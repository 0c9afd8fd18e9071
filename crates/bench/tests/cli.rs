//! `reproduce` refuses a mistyped flag or a value flag without its value
//! before it runs anything: no figure, no `BENCH_*.json` written into
//! the working directory.

use std::path::PathBuf;
use std::process::Command;

/// A fresh empty directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench_files(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_"))
        .collect()
}

#[test]
fn unknown_flags_fail_before_any_work() {
    for (tag, args) in [
        ("quick", &["--quick", "--elasticty"][..]),
        ("paper", &["--scaleot"][..]),
    ] {
        let dir = scratch_dir(tag);
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("reproduce runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains("unknown flag") && stderr.contains("usage: reproduce"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("running"),
            "{args:?} started work: {stderr}"
        );
        assert_eq!(bench_files(&dir), Vec::<String>::new(), "{args:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Runs `reproduce` with `args` in a fresh directory and asserts it
/// exits non-zero with the usage text before any work; returns stderr.
fn refused(tag: &str, args: &[&str]) -> String {
    let dir = scratch_dir(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("reproduce runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?} must fail: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("running"),
        "{args:?} started work: {stderr}"
    );
    assert_eq!(bench_files(&dir), Vec::<String>::new(), "{args:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    stderr
}

#[test]
fn value_flags_without_a_value_fail_before_any_work() {
    // A value flag followed by another flag must not take that flag as
    // its value (here: run the elasticity figure into a directory named
    // `--elasticity`), and one given last must not panic.
    for (tag, args, flag) in [
        (
            "trace-out",
            &["--quick", "--trace-out", "--elasticity"][..],
            "--trace-out",
        ),
        ("jobs", &["--jobs"][..], "--jobs"),
    ] {
        let stderr = refused(tag, args);
        assert!(
            stderr.contains(&format!("{flag} takes a value")),
            "{args:?}: {stderr}"
        );
    }
}
