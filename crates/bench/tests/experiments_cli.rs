//! The `experiments` binary checks every argument before it runs any
//! experiment: a bad id or seed anywhere on the command line prints the
//! usage and exits with code 2, with nothing on stdout.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    for args in [&["e1", "e99"][..], &["e1", "--seed=abc"], &["--bogus"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("cannot spawn experiments");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran an experiment before rejecting its arguments"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"));
    }
}
