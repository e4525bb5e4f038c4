//! Minimal-reproducer guarantees, end to end through the runner:
//! fault-implicated failures are auto-shrunk to a minimal reproducer
//! plus a plain-text dump, both referenced from the failing job's error
//! message; and a saved reproducer replays the failure in a fresh
//! context, under the faults and protocol it recorded.

use atomic_dsm::experiments::runner::{self, Job};
use atomic_dsm::experiments::{repro, BarSpec, CounterKind};
use atomic_dsm::machine::{EnvKey, RunEnv};
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{FaultConfig, ProtoSpec};
use atomic_dsm::sync::Primitive;
use atomic_dsm::MachineConfig;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// These tests mutate process-global state (the runner's memo and
/// counters), so they serialize.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `body` under the current run environment as changed by `set`.
fn scoped<R>(set: impl FnOnce(&mut RunEnv), body: impl FnOnce() -> R) -> R {
    let mut env = RunEnv::clone(&RunEnv::current());
    set(&mut env);
    RunEnv::scope(env, body)
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dsm-supervision-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter_job(procs: u32, rounds: u64, faults: FaultConfig) -> Job {
    let mut mcfg = MachineConfig::with_nodes(procs);
    mcfg.faults = faults;
    Job::counter(
        mcfg,
        CounterKind::LockFree,
        BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
        procs,
        1.0,
        rounds,
    )
}

/// A fault configuration whose jitter provably trips the livelock
/// watchdog: the watchdog-only baseline passes, but a handful of
/// injected message delays (up to 4000 cycles against a 1500-cycle
/// window) stall retirement past the window. Deterministic — same
/// seed, same stream, same livelock.
fn doomed_faults() -> FaultConfig {
    FaultConfig {
        jitter_per_10k: 500,
        jitter_max: 4000,
        watchdog: 1500,
        period: 64,
        ..FaultConfig::default()
    }
}

/// The headline supervision pipeline: a seeded fault-implicated
/// livelock fails deterministically, the runner auto-emits a dump and a
/// ddmin-shrunk reproducer (minimal: exactly one of the applied faults
/// survives), the error message references both artifacts, and the
/// saved reproducer replays the failure from disk in one step.
#[test]
fn fault_implicated_failure_is_shrunk_to_a_minimal_reproducer() {
    let _guard = exclusive();
    // Baseline: the watchdog alone does not fire on this job.
    let baseline = counter_job(
        4,
        4,
        FaultConfig {
            watchdog: 1500,
            ..FaultConfig::default()
        },
    );
    runner::clear_cache();
    assert!(
        runner::try_run_one(&baseline).is_ok(),
        "watchdog-only baseline must pass"
    );

    let dir = scratch("shrink");
    let job = counter_job(4, 4, doomed_faults());
    let err = scoped(
        |env| env.repro_dir = Some(dir.clone()),
        || {
            runner::clear_cache();
            runner::try_run_one(&job).expect_err("jittered job must livelock")
        },
    );
    assert!(err.message.contains("livelock"), "{err}");
    assert!(err.message.contains("blocked on"), "{err}");
    assert!(
        err.message.contains("[reproducer: ") && err.message.contains("dump: "),
        "error must reference the emitted artifacts: {err}"
    );

    let stem = format!("{:016x}", job.seed());
    let dump = std::fs::read_to_string(dir.join(format!("{stem}.dump.txt")))
        .expect("failure dump emitted");
    assert!(dump.contains("livelock"), "{dump}");
    assert!(dump.contains("faults applied:"), "{dump}");

    let rep = repro::load(&dir.join(format!("{stem}.repro"))).expect("reproducer emitted");
    assert_eq!(
        rep.allowed_faults(),
        Some(1),
        "ddmin must isolate the single culprit delay: {rep:?}"
    );
    assert!(rep.message.contains("livelock"), "{rep:?}");

    let replay = repro::replay(&rep).expect("replay runs");
    assert!(
        replay.reproduced,
        "minimal reproducer must reproduce: {}",
        replay.message
    );
    assert!(replay.message.contains("livelock"), "{}", replay.message);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failures that need no injected faults at all (an impossibly tight
/// watchdog) still emit a replayable reproducer — with no filter — and
/// the livelock diagnostic's blocked-processor dump lands in the error
/// message and the dump file.
#[test]
fn faultless_livelock_still_yields_a_replayable_reproducer() {
    let _guard = exclusive();
    let dir = scratch("faultless");
    let job = counter_job(
        4,
        4,
        FaultConfig {
            watchdog: 1,
            ..FaultConfig::default()
        },
    );
    let err = scoped(
        |env| env.repro_dir = Some(dir.clone()),
        || {
            runner::clear_cache();
            runner::try_run_one(&job).expect_err("watchdog=1 must livelock")
        },
    );
    assert!(err.message.contains("livelock"), "{err}");
    assert!(err.message.contains("[reproducer: "), "{err}");

    let stem = format!("{:016x}", job.seed());
    let rep = repro::load(&dir.join(format!("{stem}.repro"))).expect("reproducer emitted");
    assert_eq!(rep.filter, None, "no faults to filter: {rep:?}");
    let replay = repro::replay(&rep).expect("replay runs");
    assert!(replay.reproduced, "{}", replay.message);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Emission is off by default: without a reproducer directory the
/// failure message carries no artifact references and nothing is
/// written anywhere.
#[test]
fn no_repro_dir_means_no_artifacts() {
    let _guard = exclusive();
    let job = counter_job(4, 4, doomed_faults());
    let err = scoped(
        |env| env.repro_dir = None,
        || {
            runner::clear_cache();
            runner::try_run_one(&job).expect_err("jittered job must livelock")
        },
    );
    assert!(
        !err.message.contains("[reproducer"),
        "artifacts emitted without a directory: {err}"
    );
}

/// A reproducer records the protocol its failure ran under, not just
/// the faults, and replays under both whatever environment the
/// replaying process has: here a failure under `--proto=mesif,hna`
/// with paranoid checking and directory corruption from the
/// environment replays inside a default-environment scope.
#[test]
fn reproducer_replays_its_own_protocol() {
    let _guard = exclusive();
    let dir = scratch("proto");
    let faults = FaultConfig {
        paranoid: true,
        ..FaultConfig::from_spec("corrupt=2000,period=64").unwrap()
    };
    let proto = ProtoSpec::from_spec("mesif,hna").unwrap();
    // No faults of its own: the environment supplies them.
    let job = Job::counter(
        MachineConfig::with_nodes(4),
        CounterKind::LockFree,
        BarSpec::new(SyncPolicy::Inv, Primitive::Llsc),
        4,
        1.0,
        8,
    );
    let err = scoped(
        |env| {
            env.faults = faults.clone();
            env.proto = proto;
            env.repro_dir = Some(dir.clone());
        },
        || runner::try_run_one(&job).expect_err("corruption must trip the checker"),
    );
    assert!(err.message.contains("[reproducer: "), "{err}");

    let stem = format!("{:016x}", job.seed());
    let rep = repro::load(&dir.join(format!("{stem}.repro"))).expect("reproducer emitted");
    assert_eq!(rep.env, EnvKey { faults, proto });
    let replay = RunEnv::scope(RunEnv::default(), || repro::replay(&rep)).expect("replay runs");
    assert!(replay.reproduced, "{}", replay.message);
    assert_eq!(replay.message, rep.message);

    // The protocol is part of what reproduces: the same schedule under
    // the default protocol is a different run.
    let dash = repro::Reproducer {
        env: EnvKey {
            proto: ProtoSpec::default(),
            ..rep.env.clone()
        },
        ..rep.clone()
    };
    let other = RunEnv::scope(RunEnv::default(), || repro::replay(&dash)).expect("replay runs");
    assert_ne!(other, replay, "the protocol did not matter to this failure");
    let _ = std::fs::remove_dir_all(&dir);
}
