//! Corruption-tolerance guarantees of the persistent result cache,
//! exercised end to end through the runner: a torn, bit-flipped or
//! truncated on-disk entry is quarantined and the job re-simulated to a
//! byte-identical result — corruption costs time, never correctness and
//! never a panic. Entries appear atomically, hits skip simulation, and
//! a populated store survives process "restarts" (simulated here by
//! clearing the in-memory memo).

use atomic_dsm::experiments::runner::{self, Job, JobResult};
use atomic_dsm::experiments::{diskcache, BarSpec, CounterKind};
use atomic_dsm::protocol::SyncPolicy;
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

/// Runs `job` as a "fresh process": in-memory memo cleared first, so
/// the only cache that can answer is the disk store.
fn run_fresh(dir: &Path, job: &Job) -> JobResult {
    diskcache::with_cache_dir(Some(dir), || {
        runner::clear_cache();
        runner::try_run_one(job)
    })
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
    diskcache::with_cache_dir(None, || {
        runner::clear_cache();
        let _ = runner::try_run_one(&job);
    });
    let after = runner::stats();
    assert_eq!(after.disk_stores, before.disk_stores);
    assert!(entries(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DSM_PROTO` changes every machine a job builds without entering the
/// job key, so it must key the store: a DASH result cached by
/// `figures fig3` must not be served to `figures fig3 --proto=mesif,hna`
/// (which reported "0 jobs simulated" and printed the DASH tables).
#[test]
fn a_proto_run_is_not_served_a_cached_default_result() {
    struct RestoreProto(Option<std::ffi::OsString>);
    impl Drop for RestoreProto {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var("DSM_PROTO", v),
                None => std::env::remove_var("DSM_PROTO"),
            }
        }
    }
    let _guard = exclusive();
    let _restore = RestoreProto(std::env::var_os("DSM_PROTO"));
    let dir = scratch("proto");
    let job = tiny_job(4);
    std::env::remove_var("DSM_PROTO");
    let dash = render(&run_fresh(&dir, &job));

    std::env::set_var("DSM_PROTO", "mesif,hna");
    let before = runner::stats();
    let cached = render(&run_fresh(&dir, &job));
    let after = runner::stats();
    let uncached = render(&diskcache::with_cache_dir(None, || {
        runner::clear_cache();
        runner::try_run_one(&job)
    }));
    assert_eq!(
        after.disk_hits, before.disk_hits,
        "the DASH entry was served"
    );
    assert_eq!(
        cached, uncached,
        "a cached --proto run must equal an uncached one"
    );
    assert_ne!(cached, dash, "the job must tell the protocols apart");

    // Another spelling of the same protocol shares the new entry.
    std::env::set_var("DSM_PROTO", "hna, mesif");
    assert_eq!(render(&run_fresh(&dir, &job)), cached);
    assert_eq!(runner::stats().disk_hits, after.disk_hits + 1);
    let _ = std::fs::remove_dir_all(&dir);
}
