//! The deterministic parallel experiment runner and its process-wide
//! result cache.
//!
//! Every figure, table and sweep in [`crate::experiments`] decomposes
//! into independent simulation *jobs* (one machine, one workload, one
//! parameter point). This module gives all of them a single execution
//! path:
//!
//! * **Explicit job lists** — a driver collects every [`Job`] it needs
//!   and hands the whole batch to [`run_all`], instead of simulating
//!   point-by-point inline.
//! * **Parallel fan-out** — batches run on a scoped worker pool
//!   ([`fan_out`]). The worker count comes from the `DSM_JOBS`
//!   environment variable, falling back to
//!   [`std::thread::available_parallelism`]; [`with_workers`] overrides
//!   it programmatically. One worker means plain serial execution on
//!   the calling thread.
//! * **Bitwise determinism** — each job derives its machine RNG seed
//!   from a stable fingerprint of its own key ([`Job::seed`], built on
//!   [`dsm_sim::StableHasher`]), never from scheduling order, thread
//!   identity or global state. A sweep therefore produces *identical*
//!   bytes whether it runs on 1 worker or 64.
//! * **Memoization** — results are cached for the lifetime of the
//!   process, keyed by the same job key. Bars shared between Figures
//!   3/4/5, Figure 6, Table 1, the scaling sweep and the integration
//!   tests are simulated exactly once per process. With `DSM_CACHE_DIR`
//!   set, results also persist across processes through the
//!   corruption-tolerant on-disk store in [`super::diskcache`].
//! * **Supervision** — failures carry a transient/deterministic
//!   distinction: wall-clock timeouts ([`dsm_machine::RunError`]'s
//!   `Timeout`, enabled by `DSM_WALL_LIMIT`) are retried with a bounded
//!   deterministic backoff (`DSM_RETRIES`) and are never cached, while
//!   deterministic failures (protocol errors, invariant violations,
//!   lost updates) cache like successes. With `DSM_REPRO_DIR` set,
//!   every deterministic failure also emits a failure dump and a
//!   minimal replayable reproducer (see [`super::repro`]), referenced
//!   from the error message.
//!
//! Progress counters (jobs queued/running/done, cache hits, simulated
//! cycles) are kept in [`stats`] so long sweeps can report progress;
//! set `DSM_PROGRESS=1` to have every job completion logged to stderr.

use crate::experiments::apps::{App, AppRun};
use crate::experiments::counters::CounterPoint;
use crate::experiments::lockfree::LockfreePoint;
use crate::experiments::table1::Table1Row;
use crate::experiments::{
    apps, counters, diskcache, lockfree, repro, table1, BarSpec, CounterKind, Scale,
};
use dsm_machine::{Machine, RunError, RunReport};
use dsm_protocol::{CasVariant, LlscScheme, SyncPolicy};
use dsm_sim::{Cycle, MachineConfig, ProtoVariant, StableHasher};
use dsm_sync::{LinkPrim, Primitive};
use dsm_workloads::LfStructure;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// One simulation point: everything needed to reproduce one machine
/// run, and nothing else. `Eq`/`Hash` make it the cache key; its
/// [`seed`](Job::seed) fingerprint makes the run reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Job {
    /// A synthetic-counter measurement (Figures 3/4/5, scaling sweep).
    Counter {
        /// The simulated machine.
        mcfg: MachineConfig,
        /// Which counter application (Figure 3/4/5).
        kind: CounterKind,
        /// The implementation bar.
        bar: BarSpec,
        /// Contention level `c`, already clamped to the machine size.
        contention: u32,
        /// Write-run length `a`, stored as IEEE-754 bits so the key is
        /// hashable and the f64 round-trips exactly.
        write_run_bits: u64,
        /// Barrier-separated rounds.
        rounds: u64,
    },
    /// An application run (Figures 2 and 6).
    App {
        /// Which application.
        app: App,
        /// The implementation bar.
        bar: BarSpec,
        /// The experiment scale.
        scale: Scale,
    },
    /// One Table 1 micro-experiment, by index into the paper's rows.
    Table1 {
        /// Scenario index in `0..table1::SCENARIOS`.
        scenario: usize,
    },
    /// A lock-free structure benchmark point (queue/list/map under one
    /// link primitive × coherence policy).
    Lockfree {
        /// The simulated machine.
        mcfg: MachineConfig,
        /// Which structure.
        structure: LfStructure,
        /// Link-word primitive discipline.
        prim: LinkPrim,
        /// Coherence policy on every structure line.
        policy: SyncPolicy,
        /// Operations per processor.
        ops_per_proc: u32,
        /// Key space for set keys.
        key_space: u64,
        /// Bucket count (map only; the list always uses 1).
        buckets: u32,
    },
}

impl Job {
    /// A counter job. Canonicalizes `contention` (clamped to the
    /// machine size, as the drivers do) so equivalent requests share
    /// one cache entry.
    pub fn counter(
        mcfg: MachineConfig,
        kind: CounterKind,
        bar: BarSpec,
        contention: u32,
        write_run: f64,
        rounds: u64,
    ) -> Job {
        let contention = contention.min(mcfg.nodes).max(1);
        Job::Counter {
            mcfg,
            kind,
            bar,
            contention,
            write_run_bits: write_run.to_bits(),
            rounds,
        }
    }

    /// An application job.
    pub fn app(app: App, bar: BarSpec, scale: Scale) -> Job {
        Job::App { app, bar, scale }
    }

    /// A Table 1 scenario job.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` is out of range.
    pub fn table1(scenario: usize) -> Job {
        assert!(
            scenario < table1::SCENARIOS,
            "table 1 has {} scenarios",
            table1::SCENARIOS
        );
        Job::Table1 { scenario }
    }

    /// A lock-free structure job. The map's bucket count is
    /// canonicalized away for the queue and the list (which ignore it)
    /// so equivalent requests share one cache entry.
    pub fn lockfree(
        mcfg: MachineConfig,
        structure: LfStructure,
        prim: LinkPrim,
        policy: SyncPolicy,
        ops_per_proc: u32,
        key_space: u64,
        buckets: u32,
    ) -> Job {
        let buckets = match structure {
            LfStructure::Map => buckets.max(1),
            _ => 1,
        };
        Job::Lockfree {
            mcfg,
            structure,
            prim,
            policy,
            ops_per_proc,
            key_space,
            buckets,
        }
    }

    /// The machine RNG seed for this job: a stable fingerprint of the
    /// job key. Identical keys always derive identical seeds — on any
    /// platform, at any worker count, in any scheduling order — so a
    /// job's result is a pure function of its key.
    pub fn seed(&self) -> u64 {
        let mut h = StableHasher::new();
        self.fingerprint(&mut h);
        h.finish()
    }

    /// Feeds every field through `h` in a canonical, explicitly
    /// enumerated order (std's `Hash` is not stable across releases).
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            Job::Counter {
                mcfg,
                kind,
                bar,
                contention,
                write_run_bits,
                rounds,
            } => {
                h.write_u8(0);
                put_machine(h, mcfg);
                h.write_u8(match kind {
                    CounterKind::LockFree => 0,
                    CounterKind::TtsLock => 1,
                    CounterKind::McsLock => 2,
                });
                put_bar(h, bar);
                h.write_u32(*contention);
                h.write_u64(*write_run_bits);
                h.write_u64(*rounds);
            }
            Job::App { app, bar, scale } => {
                h.write_u8(1);
                h.write_u8(match app {
                    App::WireRoute => 0,
                    App::Cholesky => 1,
                    App::TransitiveClosure => 2,
                });
                put_bar(h, bar);
                h.write_u32(scale.procs);
                h.write_u64(scale.rounds);
                h.write_u64(scale.tc_size);
                h.write_u64(scale.wires);
                h.write_u64(scale.tasks);
            }
            Job::Table1 { scenario } => {
                h.write_u8(2);
                h.write_usize(*scenario);
            }
            Job::Lockfree {
                mcfg,
                structure,
                prim,
                policy,
                ops_per_proc,
                key_space,
                buckets,
            } => {
                h.write_u8(3);
                put_machine(h, mcfg);
                h.write_u8(match structure {
                    LfStructure::Queue => 0,
                    LfStructure::List => 1,
                    LfStructure::Map => 2,
                });
                h.write_u8(match prim {
                    LinkPrim::Llsc => 0,
                    LinkPrim::EmulLlsc => 1,
                    LinkPrim::CasPlain => 2,
                });
                h.write_u8(match policy {
                    SyncPolicy::Inv => 0,
                    SyncPolicy::Upd => 1,
                    SyncPolicy::Unc => 2,
                });
                h.write_u32(*ops_per_proc);
                h.write_u64(*key_space);
                h.write_u32(*buckets);
            }
        }
    }
}

fn put_machine(h: &mut StableHasher, m: &MachineConfig) {
    h.write_u32(m.nodes);
    h.write_u32(m.mesh_width);
    h.write_u64(m.seed);
    let p = &m.params;
    for v in [
        p.line_size,
        p.cache_hit,
        p.cache_ctrl,
        p.mem_access,
        p.dir_access,
        p.hop_delay,
        p.flit_bytes,
        p.flit_cycle,
        p.header_flits,
        p.issue,
    ] {
        h.write_u64(v);
    }
    h.write_usize(m.cache.sets);
    h.write_usize(m.cache.ways);
    // Protocol-variant fields are hashed only when non-default, so
    // every pre-existing job fingerprint (and therefore every committed
    // golden artifact) is byte-for-byte unchanged.
    if m.proto != ProtoVariant::Dash {
        h.write_u8(0xA0);
        h.write_u8(match m.proto {
            ProtoVariant::Dash => 0,
            ProtoVariant::MesiF => 1,
            ProtoVariant::Hier => 2,
        });
    }
    if m.clusters != 1 {
        h.write_u8(0xA1);
        h.write_u32(m.clusters);
    }
    if m.params.cluster_penalty != 0 {
        h.write_u8(0xA2);
        h.write_u64(m.params.cluster_penalty);
    }
}

fn put_bar(h: &mut StableHasher, b: &BarSpec) {
    h.write_u8(match b.policy {
        SyncPolicy::Inv => 0,
        SyncPolicy::Upd => 1,
        SyncPolicy::Unc => 2,
    });
    h.write_u8(match b.prim {
        Primitive::FetchPhi => 0,
        Primitive::Llsc => 1,
        Primitive::Cas => 2,
    });
    h.write_u8(match b.cas_variant {
        CasVariant::Plain => 0,
        CasVariant::Deny => 1,
        CasVariant::Share => 2,
    });
    h.write_u8(u8::from(b.load_exclusive));
    h.write_u8(u8::from(b.drop_copy));
    match b.llsc {
        LlscScheme::BitVector => h.write_u8(0),
        LlscScheme::LinkedList => h.write_u8(1),
        LlscScheme::Limited(k) => {
            h.write_u8(2);
            h.write_u8(k);
        }
        LlscScheme::SerialNumber => h.write_u8(3),
    }
    // Non-default-only, like the machine's protocol-variant fields:
    // bars without home atomics keep their historical fingerprints.
    if b.home_atomics {
        h.write_u8(0xB7);
    }
}

/// The result of one [`Job`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of a [`Job::Counter`].
    Counter(CounterPoint),
    /// Result of a [`Job::App`].
    App(AppRun),
    /// Result of a [`Job::Table1`].
    Table1(Table1Row),
    /// Result of a [`Job::Lockfree`].
    Lockfree(LockfreePoint),
}

impl JobOutput {
    /// Unwraps a counter result.
    ///
    /// # Panics
    ///
    /// Panics if this is not a counter result.
    pub fn into_counter(self) -> CounterPoint {
        match self {
            JobOutput::Counter(p) => p,
            other => panic!("expected a counter result, got {other:?}"),
        }
    }

    /// Unwraps an application result.
    ///
    /// # Panics
    ///
    /// Panics if this is not an application result.
    pub fn into_app(self) -> AppRun {
        match self {
            JobOutput::App(r) => r,
            other => panic!("expected an application result, got {other:?}"),
        }
    }

    /// Unwraps a Table 1 row.
    ///
    /// # Panics
    ///
    /// Panics if this is not a Table 1 result.
    pub fn into_table1(self) -> Table1Row {
        match self {
            JobOutput::Table1(r) => r,
            other => panic!("expected a table-1 result, got {other:?}"),
        }
    }

    /// Unwraps a lock-free structure result.
    ///
    /// # Panics
    ///
    /// Panics if this is not a lock-free structure result.
    pub fn into_lockfree(self) -> LockfreePoint {
        match self {
            JobOutput::Lockfree(p) => p,
            other => panic!("expected a lock-free result, got {other:?}"),
        }
    }

    fn cycles(&self) -> u64 {
        match self {
            JobOutput::Counter(p) => p.cycles,
            JobOutput::App(r) => r.cycles,
            JobOutput::Table1(_) => 0,
            JobOutput::Lockfree(p) => p.cycles,
        }
    }
}

/// A failed [`Job`], rendered for reporting: which job failed and the
/// run's own diagnostic (deadlock, livelock, protocol error, invariant
/// violation, lost updates, ...).
///
/// *Deterministic* failures are cached like successes, so a failing job
/// is still simulated only once per process, and one bad job never
/// aborts the worker pool — every sibling in the batch completes and
/// reports its own `Result`. *Transient* failures (a host-side
/// wall-clock budget) are retried and never cached, in memory or on
/// disk: a slow host must not poison future runs with a stale verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// A rendering of the failing job's key.
    pub job: String,
    /// The failure diagnostic, from the machine's
    /// [`dsm_machine::RunError`] or the experiment's own
    /// final-state check.
    pub message: String,
    /// True for host-side conditions (wall-clock budget exhausted) that
    /// a retry on a less loaded host may clear; false for anything
    /// reproducible from the job key alone.
    pub transient: bool,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} failed: {}", self.job, self.message)
    }
}

impl std::error::Error for JobError {}

/// A simulation failure before job attribution: the diagnostic text
/// plus whether the condition is transient (host wall-clock budget,
/// worth retrying) or deterministic (a property of the simulated
/// machine, cacheable). The experiment modules produce these; the
/// runner attributes them to a [`Job`] as [`JobError`]s.
#[derive(Debug)]
pub(crate) struct SimFailure {
    /// The failure diagnostic.
    pub message: String,
    /// See [`JobError::transient`].
    pub transient: bool,
}

impl SimFailure {
    /// A deterministic failure: reproducible from the job key alone.
    pub fn deterministic(message: String) -> Self {
        SimFailure {
            message,
            transient: false,
        }
    }

    /// Attributes a machine [`RunError`] to `label`, preserving its
    /// transience (wall-clock timeouts retry; everything else caches).
    pub fn from_run(label: &str, e: &RunError) -> Self {
        SimFailure {
            message: format!("{label}: {e}"),
            transient: e.is_transient(),
        }
    }
}

/// The completion stage of a [`PreparedRun`]: final-state checks plus
/// result assembly, consumed exactly once after the machine finishes.
pub(crate) type FinishFn =
    Box<dyn FnOnce(&mut Machine, RunReport) -> Result<JobOutput, SimFailure>>;

/// A job's machine built and seeded but not yet run.
///
/// [`try_execute`] drives these straight to completion; the reproducer
/// layer rebuilds them to replay and shrink a failing job. Building is
/// a pure function of the job key, so two `PreparedRun`s for the same
/// job hold bit-identical machines.
pub(crate) struct PreparedRun {
    /// Label used to attribute failure diagnostics (e.g. the bar name).
    pub label: String,
    /// The freshly built machine, seeded from the job key.
    pub machine: Machine,
    /// The run's simulated-cycle budget.
    pub limit: Cycle,
    /// Final-state checks plus result assembly.
    pub finish: FinishFn,
}

/// Builds the machine for a job without running it. Returns `None` for
/// [`Job::Table1`]: its directed micro-machines are driven by their own
/// harness and complete in microseconds.
pub(crate) fn prepare(job: &Job) -> Option<PreparedRun> {
    match job {
        Job::Counter {
            mcfg,
            kind,
            bar,
            contention,
            write_run_bits,
            rounds,
        } => {
            let mut mcfg = mcfg.clone();
            mcfg.seed = job.seed();
            Some(counters::prepare(
                mcfg,
                *kind,
                bar,
                *contention,
                f64::from_bits(*write_run_bits),
                *rounds,
            ))
        }
        Job::App { app, bar, scale } => Some(apps::prepare(*app, bar, scale, job.seed())),
        Job::Table1 { .. } => None,
        Job::Lockfree {
            mcfg,
            structure,
            prim,
            policy,
            ops_per_proc,
            key_space,
            buckets,
        } => {
            let mut mcfg = mcfg.clone();
            mcfg.seed = job.seed();
            Some(lockfree::prepare(
                mcfg,
                *structure,
                *prim,
                *policy,
                *ops_per_proc,
                *key_space,
                *buckets,
            ))
        }
    }
}

/// Attributes a [`SimFailure`] to `job`, producing the reportable
/// [`JobError`]. Shared by the runner and the reproducer layer so
/// failure rendering stays uniform.
pub(crate) fn attribute(job: &Job, f: SimFailure) -> JobError {
    JobError {
        job: format!("{job:?}"),
        message: f.message,
        transient: f.transient,
    }
}

/// Simulates one job from scratch (no cache involved). With a
/// reproducer directory configured, a deterministic failure also emits
/// a failure dump and a shrunk replayable reproducer, and the error
/// message references both (see [`super::repro`]).
fn try_execute(job: &Job, repro_dir: Option<&std::path::Path>) -> Result<JobOutput, JobError> {
    let result = match prepare(job) {
        Some(mut p) => {
            let finish = p.finish;
            let res = match p.machine.run(p.limit) {
                Ok(report) => finish(&mut p.machine, report),
                Err(e) => Err(SimFailure::from_run(&p.label, &e)),
            };
            match (res, repro_dir) {
                (Err(f), Some(dir)) if !f.transient => Err(repro::emit(job, &p.machine, f, dir)),
                (res, _) => res,
            }
        }
        // Table 1 micro-machines are fully directed (no randomized
        // behaviour reaches the measured chain), so the derived seed is
        // irrelevant to them, and they never fail.
        None => match job {
            Job::Table1 { scenario } => Ok(JobOutput::Table1(table1::run_scenario(*scenario))),
            other => unreachable!("prepare() only declines Table1 jobs, got {other:?}"),
        },
    };
    result.map_err(|f| attribute(job, f))
}

/// The outcome of one job: its output or its own failure report.
pub type JobResult = Result<JobOutput, JobError>;

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Every value the runner keeps under a mutex (the result cache, the
/// fan-out result slots) is valid after any partial update — entries
/// are inserted or replaced whole — so a poisoned lock carries no
/// torn state. Propagating the poison instead would cascade one
/// panicking job into failing every later, unrelated experiment in the
/// process, which is exactly what a crash-safe pipeline must not do.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cache() -> &'static Mutex<HashMap<Job, JobResult>> {
    static CACHE: OnceLock<Mutex<HashMap<Job, JobResult>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// True if a result may enter the caches (memory and disk): successes
/// and deterministic failures, but never transient host conditions.
fn cacheable(r: &JobResult) -> bool {
    match r {
        Ok(_) => true,
        Err(e) => !e.transient,
    }
}

static JOBS_QUEUED: AtomicU64 = AtomicU64::new(0);
static JOBS_RUNNING: AtomicU64 = AtomicU64::new(0);
static JOBS_COMPLETED: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CYCLES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
pub(crate) static DISK_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static DISK_STORES: AtomicU64 = AtomicU64::new(0);
pub(crate) static DISK_QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the runner's lifetime progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerStats {
    /// Jobs handed to the worker pool (cache misses only).
    pub queued: u64,
    /// Jobs currently simulating.
    pub running: u64,
    /// Jobs simulated to completion.
    pub completed: u64,
    /// Requests served from the cache without simulating.
    pub cache_hits: u64,
    /// Total simulated machine cycles across all completed jobs.
    pub cycles_simulated: u64,
    /// Transient-failure retries attempted.
    pub retries: u64,
    /// Jobs served from the persistent disk cache.
    pub disk_hits: u64,
    /// Results persisted to the disk cache.
    pub disk_stores: u64,
    /// Corrupt disk-cache entries quarantined (and re-simulated).
    pub disk_quarantined: u64,
}

/// Reads the current progress counters.
pub fn stats() -> RunnerStats {
    RunnerStats {
        queued: JOBS_QUEUED.load(Ordering::Relaxed),
        running: JOBS_RUNNING.load(Ordering::Relaxed),
        completed: JOBS_COMPLETED.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        cycles_simulated: CYCLES_SIMULATED.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        disk_stores: DISK_STORES.load(Ordering::Relaxed),
        disk_quarantined: DISK_QUARANTINED.load(Ordering::Relaxed),
    }
}

/// Empties the in-memory result cache (results are re-simulated, or
/// re-read from the disk cache, on next request). Intended for tests
/// and serial-vs-parallel timing comparisons; the progress counters are
/// *not* reset.
pub fn clear_cache() {
    lock_recover(cache()).clear();
}

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static RETRY_OVERRIDE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// The worker count [`run_all`] will use on this thread: the
/// [`with_workers`] override if active, else `DSM_JOBS` from the
/// environment, else [`std::thread::available_parallelism`].
pub fn workers() -> usize {
    if let Some(n) = WORKER_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("DSM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` with the worker count pinned to `n` on this thread,
/// restoring the previous setting afterwards (also on panic). This is
/// how tests compare serial and parallel execution without touching
/// the process environment.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// The transient-failure retry budget: the [`with_retries`] override if
/// active, else `DSM_RETRIES` from the environment, else 2. A budget of
/// `n` means a transiently failing job is attempted at most `1 + n`
/// times before its failure is reported (uncached).
pub fn retry_budget() -> u32 {
    if let Some(n) = RETRY_OVERRIDE.with(Cell::get) {
        return n;
    }
    std::env::var("DSM_RETRIES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .unwrap_or(2)
}

/// Runs `f` with the transient-retry budget pinned to `n` on this
/// thread, restoring the previous setting afterwards (also on panic).
/// Like [`with_workers`], the override is thread-local: combine it with
/// `with_workers(1, ..)` so jobs execute on the calling thread.
pub fn with_retries<R>(n: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u32>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RETRY_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(RETRY_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// The deterministic backoff schedule: 25 ms doubling per attempt,
/// capped at ~1.6 s. A pure function of the attempt number — no
/// randomness — so supervised runs remain reproducible in wall-clock
/// shape as well as in results.
fn backoff_delay(attempt: u32) -> Duration {
    const BASE_MS: u64 = 25;
    Duration::from_millis(BASE_MS << attempt.saturating_sub(1).min(6))
}

/// Runs `run`, retrying transient failures up to `budget` times with
/// [`backoff_delay`] between attempts. Deterministic failures and
/// successes return immediately.
fn retry_transient(budget: u32, mut run: impl FnMut() -> JobResult) -> JobResult {
    let mut out = run();
    for attempt in 1..=budget {
        match &out {
            Err(e) if e.transient => {
                RETRIES.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_delay(attempt));
                out = run();
            }
            _ => break,
        }
    }
    out
}

/// Maps `f` over `items` on a scoped worker pool, preserving input
/// order in the returned vector.
///
/// Work is distributed dynamically (an atomic cursor), so uneven job
/// costs balance across workers. With `workers <= 1` (or fewer than
/// two items) everything runs serially on the calling thread.
///
/// # Panics
///
/// If `f` panics for any item, the panic propagates to the caller once
/// the pool has stopped — remaining workers abandon the queue instead
/// of deadlocking, and unfinished items are never observed.
pub fn fan_out<I, O, F>(items: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    /// Flags the shared abort switch if dropped during a panic.
    struct AbortOnPanic<'a>(&'a AtomicBool);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            s.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    return;
                }
                let guard = AbortOnPanic(&abort);
                let out = f(&items[i]);
                std::mem::forget(guard);
                *lock_recover(&slots[i]) = Some(out);
            });
        }
        // A panicking worker makes scope() itself resume the panic here.
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item completed")
        })
        .collect()
}

fn try_execute_counted(
    job: &Job,
    retry_budget: u32,
    repro_dir: Option<&std::path::Path>,
) -> JobResult {
    JOBS_RUNNING.fetch_add(1, Ordering::Relaxed);
    let out = retry_transient(retry_budget, || try_execute(job, repro_dir));
    JOBS_RUNNING.fetch_sub(1, Ordering::Relaxed);
    JOBS_COMPLETED.fetch_add(1, Ordering::Relaxed);
    if let Ok(out) = &out {
        CYCLES_SIMULATED.fetch_add(out.cycles(), Ordering::Relaxed);
    }
    if std::env::var_os("DSM_PROGRESS").is_some() {
        let s = stats();
        eprintln!(
            "dsm-runner: {}/{} jobs done ({} cache hits, {} cycles simulated)",
            s.completed, s.queued, s.cache_hits, s.cycles_simulated
        );
    }
    out
}

/// Runs a batch of jobs — memory cache first, then the persistent disk
/// cache, then parallel fan-out for the remaining misses — and returns
/// each job's own `Result` in input order.
///
/// Duplicate jobs in the batch (and jobs already simulated earlier in
/// the process) are simulated only once. The output for a given job
/// list is a pure function of that list: bitwise identical at any
/// worker count, and whether a result came from a simulation, the
/// memory cache or the disk cache. A failing job (deadlock, livelock,
/// protocol error, invariant violation, lost updates — typically under
/// fault injection) reports a [`JobError`] in its slot without aborting
/// its siblings; transient failures (wall-clock budget) are retried and
/// never cached.
pub fn try_run_all(jobs: &[Job]) -> Vec<JobResult> {
    // Partition into hits and (deduplicated, order-preserving) misses.
    let mut misses: Vec<Job> = Vec::new();
    {
        let cached = lock_recover(cache());
        let mut seen: HashSet<&Job> = HashSet::new();
        for job in jobs {
            if cached.contains_key(job) {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            } else if seen.insert(job) {
                misses.push(job.clone());
            }
        }
    }

    // Probe the persistent store for the misses. Disk I/O stays on the
    // calling thread: entries are read before the fan-out and written
    // after it, so workers never contend on the filesystem and the
    // thread-local test overrides (cache dir, retry budget) apply.
    let mut fresh: HashMap<Job, JobResult> = HashMap::new();
    let mut to_run: Vec<Job> = Vec::new();
    for job in misses {
        match diskcache::load(&job) {
            Some(result) => {
                fresh.insert(job, result);
            }
            None => to_run.push(job),
        }
    }

    if !to_run.is_empty() {
        JOBS_QUEUED.fetch_add(to_run.len() as u64, Ordering::Relaxed);
        let budget = retry_budget();
        let repro_dir = repro::dir();
        let outputs = fan_out(&to_run, workers(), |job| {
            try_execute_counted(job, budget, repro_dir.as_deref())
        });
        for (job, out) in to_run.into_iter().zip(outputs) {
            diskcache::store(&job, &out);
            fresh.insert(job, out);
        }
    }

    // Publish cacheable fresh results (simulated or disk-loaded) to the
    // process-wide memory cache; transient failures stay out of it.
    {
        let mut cached = lock_recover(cache());
        for (job, out) in &fresh {
            if cacheable(out) {
                cached.insert(job.clone(), out.clone());
            }
        }
    }

    let cached = lock_recover(cache());
    jobs.iter()
        .map(|job| {
            fresh
                .get(job)
                .or_else(|| cached.get(job))
                .expect("job simulated")
                .clone()
        })
        .collect()
}

/// Like [`try_run_all`], but panics on the first failed job — the
/// contract the artifact drivers want, where any failure is a bug.
///
/// # Panics
///
/// Panics if any job's simulation fails (wrong counter value, run
/// limit exceeded); the panic carries the failing job's own message.
pub fn run_all(jobs: &[Job]) -> Vec<JobOutput> {
    try_run_all(jobs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Runs (or fetches) a single job, reporting failure as a [`JobError`].
pub fn try_run_one(job: &Job) -> JobResult {
    try_run_all(std::slice::from_ref(job))
        .pop()
        .expect("one job, one result")
}

/// Runs (or fetches) a single job.
///
/// # Panics
///
/// Panics if the job's simulation fails, carrying its diagnostic.
pub fn run_one(job: &Job) -> JobOutput {
    run_all(std::slice::from_ref(job))
        .pop()
        .expect("one job, one result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::BarSpec;

    fn tiny_counter_job(contention: u32) -> Job {
        Job::counter(
            MachineConfig::with_nodes(4),
            CounterKind::LockFree,
            BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
            contention,
            1.0,
            4,
        )
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(tiny_counter_job(1).seed(), tiny_counter_job(1).seed());
        assert_ne!(tiny_counter_job(1).seed(), tiny_counter_job(2).seed());
        assert_ne!(tiny_counter_job(1).seed(), Job::table1(0).seed());
    }

    #[test]
    fn contention_is_canonicalized() {
        // c=64 on a 4-node machine is the same point as c=4.
        assert_eq!(tiny_counter_job(64), tiny_counter_job(4));
    }

    #[test]
    fn fan_out_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = fan_out(&items, 8, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_serial_fallback_matches() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(
            fan_out(&items, 1, |&i| i + 1),
            fan_out(&items, 4, |&i| i + 1)
        );
    }

    #[test]
    fn with_workers_overrides_and_restores() {
        let outer = workers();
        with_workers(3, || assert_eq!(workers(), 3));
        assert_eq!(workers(), outer);
    }

    /// Serializes the tests that clear or poison the process-global
    /// cache, so they do not invalidate each other's entries mid-test.
    fn cache_test_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock_recover(&GUARD)
    }

    #[test]
    fn run_one_hits_cache_on_second_request() {
        let _serial = cache_test_guard();
        let job = tiny_counter_job(2);
        clear_cache();
        let first = run_one(&job).into_counter();
        let hits_before = stats().cache_hits;
        let second = run_one(&job).into_counter();
        assert_eq!(stats().cache_hits, hits_before + 1);
        assert_eq!(first.avg_cycles.to_bits(), second.avg_cycles.to_bits());
        assert_eq!(first.cycles, second.cycles);
    }

    /// Regression test for the poisoned-mutex cascade: a panic while
    /// holding the cache lock used to poison it, turning every later
    /// (unrelated) experiment in the process into a panic of its own.
    /// The runner now recovers the guard and keeps serving.
    #[test]
    fn poisoned_cache_lock_recovers() {
        let _serial = cache_test_guard();
        let poison = std::panic::catch_unwind(|| {
            let _guard = lock_recover(cache());
            panic!("deliberate panic while holding the runner cache lock");
        });
        assert!(poison.is_err(), "the poisoning panic must have fired");
        // Every cache-touching path still works.
        clear_cache();
        let p = run_one(&tiny_counter_job(2)).into_counter();
        assert!(p.cycles > 0);
        let again = run_one(&tiny_counter_job(2)).into_counter();
        assert_eq!(p.cycles, again.cycles);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        assert_eq!(backoff_delay(1), Duration::from_millis(25));
        assert_eq!(backoff_delay(2), Duration::from_millis(50));
        assert_eq!(backoff_delay(3), Duration::from_millis(100));
        // The cap: attempts beyond 7 stop doubling.
        assert_eq!(backoff_delay(7), backoff_delay(100));
        assert_eq!(backoff_delay(100), Duration::from_millis(25 << 6));
    }

    fn transient_error() -> JobError {
        JobError {
            job: "test".into(),
            message: "wall-clock budget exhausted".into(),
            transient: true,
        }
    }

    #[test]
    fn transient_failures_retry_up_to_budget() {
        let calls = Cell::new(0u32);
        let out = retry_transient(3, || {
            calls.set(calls.get() + 1);
            Err(transient_error())
        });
        assert_eq!(calls.get(), 4, "1 attempt + 3 retries");
        assert!(out.unwrap_err().transient);
    }

    #[test]
    fn transient_failure_clearing_mid_retry_succeeds() {
        let calls = Cell::new(0u32);
        let out = retry_transient(3, || {
            calls.set(calls.get() + 1);
            if calls.get() < 2 {
                Err(transient_error())
            } else {
                Ok(JobOutput::Table1(table1::run_scenario(0)))
            }
        });
        assert_eq!(calls.get(), 2, "success stops the retry loop");
        assert!(out.is_ok());
    }

    #[test]
    fn deterministic_failures_never_retry() {
        let calls = Cell::new(0u32);
        let out = retry_transient(5, || {
            calls.set(calls.get() + 1);
            Err(JobError {
                job: "test".into(),
                message: "invariant violation".into(),
                transient: false,
            })
        });
        assert_eq!(calls.get(), 1, "deterministic failures are final");
        assert!(!out.unwrap_err().transient);
    }

    #[test]
    fn with_retries_overrides_and_restores() {
        let outer = retry_budget();
        with_retries(7, || assert_eq!(retry_budget(), 7));
        assert_eq!(retry_budget(), outer);
    }

    #[test]
    fn transient_failures_are_not_cached() {
        let job = tiny_counter_job(2);
        let transient: JobResult = Err(transient_error());
        let ok_result: JobResult = Ok(JobOutput::Table1(table1::run_scenario(0)));
        assert!(!cacheable(&transient));
        assert!(cacheable(&ok_result));
        assert!(cacheable(&Err(JobError {
            job: format!("{job:?}"),
            message: "livelock".into(),
            transient: false,
        })));
    }

    /// The runner round-trips results through the persistent store: a
    /// second process (simulated here by clearing the memory cache)
    /// serves the job from disk, byte-identically, without simulating.
    #[test]
    fn disk_cache_serves_after_memory_cache_clears() {
        let _serial = cache_test_guard();
        let dir = std::env::temp_dir().join(format!("dsm-runner-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        diskcache::with_cache_dir(Some(&dir), || {
            let job = tiny_counter_job(3);
            clear_cache();
            let first = run_one(&job).into_counter();
            assert!(stats().disk_stores > 0, "result must have been persisted");
            clear_cache(); // "new process": memory cache gone, disk remains
            let hits_before = stats().disk_hits;
            let second = run_one(&job).into_counter();
            assert!(stats().disk_hits > hits_before, "must be a disk hit");
            assert_eq!(first.avg_cycles.to_bits(), second.avg_cycles.to_bits());
            assert_eq!(first.cycles, second.cycles);
            assert_eq!(first.updates, second.updates);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
