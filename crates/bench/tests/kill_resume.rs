//! Subprocess tests against the real `figures` binary.
//!
//! Crash safety: a sweep killed mid-run resumes at job granularity from
//! the persistent disk cache (`DSM_CACHE_DIR`). Run `figures` once
//! without a cache for the reference output, run it again with a cache
//! and SIGKILL it once the first entry lands, then re-run it on the
//! same cache. The re-run's stdout must equal the reference byte for
//! byte, and it must simulate exactly the jobs the killed run did not
//! store. Both checks hold wherever the kill lands. Entries are written
//! as each job finishes, so a kill inside a single artifact's batch
//! (`figures fig3`) keeps the jobs finished before it: the killed run's
//! progress lines (`DSM_PROGRESS`) may count at most one job more than
//! it stored, the one whose entry was being written.
//!
//! Command-line validation: unknown input exits 2 before anything is
//! simulated or printed.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

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

/// The `H` of the `[disk cache: H hits, …]` line, if there is one.
fn disk_hits(out: &Output) -> Option<usize> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[disk cache: "))?;
    Some(line.split(' ').next().unwrap().parse().unwrap())
}

/// The `X` of the last `dsm-runner: X/Y jobs done` progress line.
fn jobs_done(stderr: &str) -> usize {
    stderr
        .lines()
        .rev()
        .filter_map(|l| l.strip_prefix("dsm-runner: "))
        .find(|l| l.contains(" jobs done"))
        .map_or(0, |l| l.split('/').next().unwrap().parse().unwrap())
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
/// cache: identical stdout, and the re-run simulates `N − k` jobs and
/// serves the other `k` from disk. The
/// killed run (one worker) must have stored every job it finished but
/// the last. Returns `(N, k)`.
fn kill_and_resume(args: &[&str], name: &str) -> (usize, usize) {
    let reference = succeeded(figures().args(args).output().unwrap(), "reference run");
    let total = simulated(&reference);
    assert!(total > 0, "reference run simulated nothing");
    assert_eq!(disk_hits(&reference), None, "no cache, no disk-cache line");

    let cache = scratch(name);
    let mut child = figures()
        .args(args)
        .env("DSM_CACHE_DIR", &cache)
        .env("DSM_PROGRESS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
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
    let mut progress = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut progress)
        .unwrap();
    let done = jobs_done(&progress);
    assert!(
        done <= stored + 1,
        "the killed run finished {done} jobs but stored only {stored}"
    );

    let rerun = succeeded(
        figures()
            .args(args)
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
    assert_eq!(
        disk_hits(&rerun),
        Some(stored),
        "disk hits must be reported"
    );
    let _ = std::fs::remove_dir_all(&cache);
    (total, stored)
}

#[test]
fn killed_and_resumed_run_matches_uninterrupted_stdout() {
    kill_and_resume(&["fig2", "fig3", "--jobs", "1"], "cache");
}

/// Figure 3 is one batch of jobs. Killed at its first entry, the run
/// has not finished the batch, and the re-run simulates only the rest.
#[test]
fn run_killed_inside_one_artifact_keeps_its_finished_jobs() {
    let (total, stored) = kill_and_resume(&["fig3", "--jobs", "1"], "single");
    assert!(
        stored < total,
        "the kill landed after all {total} jobs were stored"
    );
}

/// Unknown flags and stray values exit 2 with the usage text on stderr
/// and nothing on stdout — before any artifact runs or any file is
/// read, on the `analyze` and `repro` paths too.
#[test]
fn unknown_input_is_rejected_before_anything_runs() {
    for args in [
        &["table1", "--bogus"][..],
        &["table1", "--workers", "2"],
        &["analyze", "--bogus", "nofile.ring"],
        &["analyze", "nofile.ring", "--csv"],
        &["analyze"],
        &["repro", "nofile.repro", "extra"],
        &["repro"],
    ] {
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
