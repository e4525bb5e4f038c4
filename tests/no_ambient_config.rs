//! Configuration reaches the library through one run environment
//! (`RunEnv`), read from the process environment in one place.
//!
//! The source scan keeps it that way: outside `RunEnv::from_env`, no
//! library source under `crates/*/src` (binaries excluded) reads an
//! environment variable, none sets or removes one, the only
//! thread-local is the `RunEnv` scope, and none reads the host clock or
//! sleeps, so a job's outcome depends on its key and environment alone.
//! The subprocess test shows the
//! process environment still reaches every machine, including one
//! built directly with `MachineBuilder::new`: CI's `DSM_PARANOID=1`
//! suite depends on that.

use atomic_dsm::experiments::BarSpec;
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{Cycle, MachineConfig};
use atomic_dsm::sync::Primitive;
use atomic_dsm::workloads::{build_synthetic, CounterKind, SyntheticConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every `.rs` file under `crates/*/src`, binaries excluded.
fn library_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "bin") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut out = Vec::new();
    for krate in std::fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort();
    out
}

/// The lines of `text` that are code, not comments, with their numbers;
/// lines inside `fn from_env` are marked.
fn code_lines(text: &str) -> Vec<(usize, &str, bool)> {
    let mut out = Vec::new();
    let mut depth: Option<i64> = None;
    for (i, line) in text.lines().enumerate() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        if depth.is_none() && code.contains("fn from_env(") {
            depth = Some(0);
        }
        let inside = depth.is_some();
        if let Some(d) = &mut depth {
            *d += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if *d <= 0 && code.contains('}') {
                depth = None;
            }
        }
        out.push((i + 1, code, inside));
    }
    out
}

#[test]
fn library_sources_read_no_ambient_configuration() {
    let sources = library_sources();
    assert!(sources.len() > 50, "found only {} sources", sources.len());
    let mut problems = Vec::new();
    let mut thread_locals = Vec::new();
    let mut env_reads = 0;
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        let is_env_module = path.ends_with("machine/src/env.rs");
        for (n, code, in_from_env) in code_lines(&text) {
            let at = format!("{}:{n}: {code}", path.display());
            if code.contains("env::var") {
                if is_env_module && in_from_env {
                    env_reads += 1;
                } else {
                    problems.push(format!("environment read outside RunEnv::from_env: {at}"));
                }
            }
            if code.contains("set_var") || code.contains("remove_var") {
                problems.push(format!("process environment mutated: {at}"));
            }
            if code.contains("thread_local!") {
                thread_locals.push(at.clone());
            }
            let words: Vec<&str> = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect();
            if words.contains(&"Instant")
                || words.contains(&"SystemTime")
                || code.contains("thread::sleep")
            {
                problems.push(format!("host clock read or sleep: {at}"));
            }
            for gone in [
                "fn env_fingerprint",
                "fn with_fault_config",
                "fn with_cache_dir",
                "fn with_repro_dir",
                "fn with_retries",
            ] {
                if code.contains(gone) {
                    problems.push(format!("a deleted override is back: {at}"));
                }
            }
        }
    }
    assert_eq!(env_reads, 1, "RunEnv::from_env must read the environment");
    assert!(
        thread_locals.len() == 1 && thread_locals[0].contains("machine/src/env.rs"),
        "the RunEnv scope must be the only thread-local: {thread_locals:#?}"
    );
    assert!(problems.is_empty(), "{problems:#?}");
}

/// The name of the child test below, as the harness filters it.
const CHILD: &str = "paranoid_probe_child";

/// Run only as a subprocess of the test below, with the environment
/// under test. Builds the Figure 3 machine (INV compare-and-swap, four
/// contending processors) through the workload builder, which calls
/// `MachineBuilder::new` itself — no runner, no scope — runs it and
/// prints the outcome.
#[test]
#[ignore = "run as a subprocess by env_paranoid_reaches_a_directly_built_machine"]
fn paranoid_probe_child() {
    let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    let scfg = SyntheticConfig {
        kind: CounterKind::LockFree,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention: 4,
        write_run: 1.0,
        rounds: 16,
    };
    let (mut m, _) = build_synthetic(MachineConfig::with_nodes(4), &scfg);
    let outcome = match m.run(Cycle::new(100_000_000)) {
        Ok(_) => "completed".to_string(),
        Err(e) => e.to_string(),
    };
    println!("OUTCOME paranoid={} {outcome}", m.fault_config().paranoid);
}

/// Runs the child with `vars` set (and every other `DSM_*` variable
/// removed) and returns its outcome line.
fn child_outcome(vars: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args([
        CHILD,
        "--exact",
        "--ignored",
        "--nocapture",
        "--test-threads=1",
    ]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DSM_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(vars.iter().copied());
    let out = cmd.output().expect("run the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.split_once("OUTCOME ").map(|(_, outcome)| outcome))
        .unwrap_or_else(|| panic!("no outcome line:\n{stdout}"))
        .to_string()
}

/// `DSM_PARANOID=1` reaches a machine built directly with
/// `MachineBuilder::new`, so CI's paranoid suite checks every machine
/// the tests build: with directory corruption injected from the
/// environment, the paranoid run fails on an invariant and the
/// unchecked run does not.
#[test]
fn env_paranoid_reaches_a_directly_built_machine() {
    let corrupt = ("DSM_FAULTS", "corrupt=2000,period=64");
    let checked = child_outcome(&[corrupt, ("DSM_PARANOID", "1")]);
    assert!(
        checked.starts_with("paranoid=true") && checked.contains("invariant violated"),
        "{checked}"
    );
    let unchecked = child_outcome(&[corrupt]);
    assert!(unchecked.starts_with("paranoid=false"), "{unchecked}");
    assert!(!unchecked.contains("invariant"), "{unchecked}");
}
