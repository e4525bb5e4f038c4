//! Corruption-tolerance guarantees of the persistent result cache,
//! exercised end to end through the runner: a torn, bit-flipped or
//! truncated on-disk entry is quarantined and the job re-simulated to a
//! byte-identical result — corruption costs time, never correctness and
//! never a panic. Entries appear atomically, hits skip simulation, and
//! a populated store survives process "restarts" (simulated here by
//! clearing the in-memory memo). Every setting of the run environment
//! that can change a result keys both caches.

use atomic_dsm::experiments::runner::{self, Job, JobResult};
use atomic_dsm::experiments::{BarSpec, CounterKind};
use atomic_dsm::machine::RunEnv;
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{FaultConfig, ProtoSpec};
use atomic_dsm::sync::Primitive;
use atomic_dsm::MachineConfig;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The in-memory memo and the stats counters are process-wide; tests
/// that clear the cache or assert on deltas must serialize.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiny_job(rounds: u64) -> Job {
    Job::counter(
        MachineConfig::with_nodes(4),
        CounterKind::LockFree,
        BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
        4,
        1.0,
        rounds,
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-diskcache-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn render(r: &JobResult) -> String {
    format!("{r:?}")
}

/// The store's entry files (`<fingerprint>.job`) in `dir`.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "job"))
        .collect();
    v.sort();
    v
}

/// The environment with no `DSM_*` variable set, storing in `dir`.
fn env_in(dir: Option<&Path>) -> RunEnv {
    RunEnv {
        cache_dir: dir.map(Path::to_path_buf),
        ..RunEnv::default()
    }
}

/// Runs `job` under `env` with the memo as it is.
fn run_in(env: &RunEnv, job: &Job) -> JobResult {
    RunEnv::scope(env.clone(), || runner::try_run_one(job))
}

/// Runs `job` as a "fresh process": in-memory memo cleared first, so
/// the only cache that can answer is the disk store.
fn run_fresh(dir: &Path, job: &Job) -> JobResult {
    run_fresh_in(&env_in(Some(dir)), job)
}

fn run_fresh_in(env: &RunEnv, job: &Job) -> JobResult {
    runner::clear_cache();
    run_in(env, job)
}

/// Populate → corrupt the entry in three different ways → every time
/// the corrupt entry is quarantined, the job re-simulates, and the
/// result is byte-identical to the original.
#[test]
fn corrupt_entries_are_quarantined_and_resimulated_identically() {
    let _guard = exclusive();
    let dir = scratch("corrupt");
    let job = tiny_job(4);
    let golden = render(&run_fresh(&dir, &job));
    let files = entries(&dir);
    assert_eq!(files.len(), 1, "one job, one entry: {files:?}");
    let entry = files[0].clone();
    let pristine = std::fs::read(&entry).unwrap();

    type Mangle = fn(&[u8]) -> Vec<u8>;
    let corruptions: [(&str, Mangle); 3] = [
        ("truncated", |b| b[..b.len() / 2].to_vec()),
        ("bit-flipped", |b| {
            let mut v = b.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x01;
            v
        }),
        ("version-skewed", |b| {
            // Byte 8 is the format version (after the 8-byte magic).
            let mut v = b.to_vec();
            v[8] = v[8].wrapping_add(1);
            v
        }),
    ];
    for (name, mangle) in corruptions {
        std::fs::write(&entry, mangle(&pristine)).unwrap();
        let before = runner::stats();
        let again = render(&run_fresh(&dir, &job));
        let after = runner::stats();
        assert_eq!(again, golden, "{name}: re-simulated result diverged");
        assert_eq!(
            after.disk_quarantined,
            before.disk_quarantined + 1,
            "{name}: entry was not quarantined"
        );
        assert_eq!(
            after.completed,
            before.completed + 1,
            "{name}: job was not re-simulated"
        );
        let q = dir.join("quarantined");
        assert!(
            std::fs::read_dir(&q)
                .map(|d| d.count() > 0)
                .unwrap_or(false),
            "{name}: quarantine directory is empty"
        );
        // The re-simulation rewrote a healthy entry for the next round.
        assert_eq!(entries(&dir).len(), 1, "{name}: entry not rewritten");
        let _ = std::fs::remove_dir_all(&q);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A healthy entry written by one "process" serves a later one without
/// re-simulating, and the served bytes equal the original result.
#[test]
fn populated_store_survives_a_restart() {
    let _guard = exclusive();
    let dir = scratch("restart");
    let job = tiny_job(6);
    let golden = render(&run_fresh(&dir, &job));
    let before = runner::stats();
    let again = render(&run_fresh(&dir, &job));
    let after = runner::stats();
    assert_eq!(again, golden);
    assert_eq!(after.disk_hits, before.disk_hits + 1, "expected a disk hit");
    assert_eq!(after.completed, before.completed, "job was re-simulated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the store disabled (no directory), nothing is written anywhere.
#[test]
fn disabled_store_writes_nothing() {
    let _guard = exclusive();
    let dir = scratch("disabled");
    let job = tiny_job(8);
    let before = runner::stats();
    let _ = run_fresh_in(&env_in(None), &job);
    let after = runner::stats();
    assert_eq!(after.disk_stores, before.disk_stores);
    assert!(entries(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One result-changing setting of the run environment keys both
/// caches. Within one process and without clearing the memo, a run
/// under `knob` is simulated afresh and differs from the run under
/// `base`; a disk-cached run under `knob` then equals the uncached one,
/// and a run under `base` still gets its own result back.
fn knob_keys_the_caches(name: &str, base: RunEnv, knob: RunEnv) {
    let _guard = exclusive();
    let dir = scratch(name);
    let job = tiny_job(8);
    let with_dir = |env: &RunEnv| RunEnv {
        cache_dir: Some(dir.clone()),
        ..env.clone()
    };
    let before = render(&run_in(&base, &job));
    let simulated = runner::stats().completed;
    let uncached = render(&run_in(&knob, &job));
    assert_eq!(
        runner::stats().completed,
        simulated + 1,
        "{name}: the memo served the base environment's result"
    );
    assert_ne!(
        uncached, before,
        "{name}: the job must tell the settings apart"
    );
    assert_eq!(render(&run_in(&base, &job)), before, "{name}: base result");

    // Simulate and store, then serve from disk as a fresh process.
    assert_eq!(render(&run_fresh_in(&with_dir(&knob), &job)), uncached);
    let hits = runner::stats().disk_hits;
    let cached = render(&run_fresh_in(&with_dir(&knob), &job));
    assert_eq!(runner::stats().disk_hits, hits + 1, "{name}: no disk hit");
    assert_eq!(
        cached, uncached,
        "{name}: a cached run must equal an uncached one"
    );
    // The base environment is not served the knob's entry.
    assert_eq!(render(&run_fresh_in(&with_dir(&base), &job)), before);
    assert_eq!(
        runner::stats().disk_hits,
        hits + 1,
        "{name}: served across settings"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn with_faults(faults: FaultConfig) -> RunEnv {
    RunEnv {
        faults,
        ..RunEnv::default()
    }
}

fn with_proto(spec: &str) -> RunEnv {
    RunEnv {
        proto: ProtoSpec::from_spec(spec).unwrap(),
        ..RunEnv::default()
    }
}

/// `--faults` / `DSM_FAULTS`.
#[test]
fn faults_key_the_caches() {
    knob_keys_the_caches(
        "faults",
        RunEnv::default(),
        with_faults(FaultConfig::light()),
    );
}

/// `--paranoid` / `DSM_PARANOID`: it changes a result only when there
/// is a violation to catch, so the base environment corrupts the
/// directory too (a correct run is the same with and without the
/// checker).
#[test]
fn paranoid_keys_the_caches() {
    let corrupt = FaultConfig::from_spec("corrupt=2000,period=64").unwrap();
    let paranoid = FaultConfig {
        paranoid: true,
        ..corrupt.clone()
    };
    knob_keys_the_caches("paranoid", with_faults(corrupt), with_faults(paranoid));
}

/// `--proto` / `DSM_PROTO` without home-node atomics. The cached
/// result used to be served to a `--proto` run: `figures fig3` then
/// `figures fig3 --proto=mesif,hna` reported "0 jobs simulated" and
/// printed the DASH tables.
#[test]
fn a_proto_run_is_not_served_a_cached_default_result() {
    knob_keys_the_caches("proto", RunEnv::default(), with_proto("mesif"));
}

/// The `hna` clause alone, on the default directory protocol.
#[test]
fn home_atomics_key_the_caches() {
    knob_keys_the_caches("hna", RunEnv::default(), with_proto("hna"));
}

/// Two spellings of one setting share one disk entry: fault presets
/// and their `key=value` expansion, and reordered protocol clauses.
#[test]
fn spellings_of_one_setting_share_an_entry() {
    let _guard = exclusive();
    let dir = scratch("spellings");
    let job = tiny_job(4);
    let env = |faults: &str, proto: &str| RunEnv {
        faults: FaultConfig::from_spec(faults).unwrap(),
        proto: ProtoSpec::from_spec(proto).unwrap(),
        cache_dir: Some(dir.clone()),
        ..RunEnv::default()
    };
    let first = render(&run_fresh_in(&env("light", "mesif,hna"), &job));
    assert_eq!(entries(&dir).len(), 1);
    let hits = runner::stats().disk_hits;
    let spelled = FaultConfig::light().to_spec();
    let again = render(&run_fresh_in(&env(&spelled, "hna, mesif"), &job));
    assert_eq!(again, first);
    assert_eq!(runner::stats().disk_hits, hits + 1, "expected a disk hit");
    assert_eq!(
        entries(&dir).len(),
        1,
        "a second spelling wrote its own entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
