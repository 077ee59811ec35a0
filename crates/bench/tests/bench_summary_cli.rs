//! `bench_summary` must never run the benchmark, or overwrite its
//! output, on a command line it does not fully understand.

use std::path::PathBuf;
use std::process::Command;

/// A fresh working directory per test, so a stray default-path write
/// would show as a file.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pio_bench_summary_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn bench_summary(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_summary"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run bench_summary")
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let dir = workdir("help");
    let out = bench_summary(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: bench_summary"), "{stdout}");
    assert!(!stdout.contains("=="), "a scenario ran: {stdout}");
    assert!(!dir.join("BENCH_summary.json").exists());
}

#[test]
fn unknown_or_misspelt_flags_exit_2_without_writing() {
    let dir = workdir("unknown");
    for args in [
        &["--tolerence", "5"][..],
        &["--only", "des/", "--bogus"],
        &["stray-positional"],
        &["--out"],
    ] {
        let out = bench_summary(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: bench_summary"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran a scenario");
    }
    assert!(!dir.join("BENCH_summary.json").exists());
}
