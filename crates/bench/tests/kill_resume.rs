//! Subprocess tests against the real `figures` binary.
//!
//! Crash safety: a sweep killed mid-run resumes at job granularity from
//! the persistent disk cache (`DSM_CACHE_DIR`). Run `figures fig2 fig3`
//! once without a cache for the reference output, run it again with a
//! cache and SIGKILL it once the first entry lands, then re-run it on
//! the same cache. The re-run's stdout must equal the reference byte
//! for byte, and it must simulate exactly the jobs the killed run did
//! not store. Both checks hold wherever the kill lands.
//!
//! Command-line validation: unknown input exits 2 before anything is
//! simulated or printed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

const ARGS: [&str; 4] = ["fig2", "fig3", "--jobs", "1"];

fn figures() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.env_remove("DSM_CACHE_DIR");
    cmd
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-kill-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Committed cache entries (`*.job`; temp files and quarantine excluded).
fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "job"))
        })
        .count()
}

/// The `N` of the `[total: … — N jobs simulated, …]` summary line.
fn simulated(out: &Output) -> usize {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("[total:"))
        .unwrap_or_else(|| panic!("no summary line in stderr:\n{stderr}"));
    let before = line.split(" jobs simulated").next().unwrap();
    before.rsplit(' ').next().unwrap().parse().unwrap()
}

fn succeeded(out: Output, what: &str) -> Output {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Uninterrupted reference → killed run → re-run on the killed run's
/// cache: identical stdout, and the re-run simulates `N − k` jobs.
#[test]
fn killed_and_resumed_run_matches_uninterrupted_stdout() {
    let reference = succeeded(figures().args(ARGS).output().unwrap(), "reference run");
    let total = simulated(&reference);
    assert!(total > 0, "reference run simulated nothing");

    let cache = scratch("cache");
    let mut child = figures()
        .args(ARGS)
        .env("DSM_CACHE_DIR", &cache)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    while child.try_wait().unwrap().is_none() {
        if entries(&cache) > 0 {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.wait().unwrap();
    let stored = entries(&cache);
    assert!(stored > 0, "the killed run stored no entry");

    let rerun = succeeded(
        figures()
            .args(ARGS)
            .env("DSM_CACHE_DIR", &cache)
            .output()
            .unwrap(),
        "re-run",
    );
    assert_eq!(
        String::from_utf8_lossy(&rerun.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "re-run stdout diverged from the uninterrupted run"
    );
    assert_eq!(
        simulated(&rerun),
        total - stored,
        "every stored job must be served from disk ({stored} entries)"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// Unknown flags and stray values exit 2 with the usage text on stderr
/// and nothing on stdout — before any artifact runs.
#[test]
fn unknown_input_is_rejected_before_anything_runs() {
    for args in [&["table1", "--bogus"][..], &["table1", "--workers", "2"]] {
        let out = figures().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: figures"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
