//! `--seconds` must be finite and positive on every command that takes
//! it: `nan` used to run a zero-period `sim-run` that printed
//! `unfairness NaN`, and `inf` asked for `u32::MAX` periods.

use std::process::Command;

#[test]
fn non_finite_seconds_are_rejected() {
    let bin = env!("CARGO_BIN_EXE_copart");
    for args in [
        &["sim-run", "--apps", "2", "--seconds", "nan"][..],
        &["compare", "--seconds", "nan"][..],
    ] {
        let out = Command::new(bin).args(args).output().expect("run copart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains("--seconds must be a finite positive number"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
