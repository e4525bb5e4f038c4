//! The persistent, corruption-tolerant result cache.
//!
//! With a cache directory in the run environment
//! ([`RunEnv::cache_dir`](dsm_machine::RunEnv::cache_dir),
//! `DSM_CACHE_DIR`), the experiment [`runner`](super::runner) extends
//! its in-memory memo to a content-addressed on-disk store: every
//! simulated job's result is written to `<dir>/<key-fingerprint>.job`
//! as a versioned, checksummed [`dsm_sim::snapshot`] container, and
//! later processes serve the same job from disk instead of
//! re-simulating. The key is the [`MODEL_FINGERPRINT`], then the
//! canonical encoding of the job, then that of the environment's
//! [`EnvKey`] (faults, paranoid checking, protocol spec). So runs under
//! different environments never share an entry, two spellings of one
//! setting always do, and a build whose model code differs misses every
//! entry an older build wrote (under a new file name, so the old entry
//! is not quarantined either).
//!
//! Robustness properties, in the order they matter:
//!
//! * **Atomic writes** — entries are written to a temp file and
//!   `rename`d into place ([`snapshot::write_atomic`]), so a killed
//!   writer leaves either no entry or a whole entry, never a torn one
//!   under the final name.
//! * **Corruption tolerance** — a torn, bit-flipped, version-skewed or
//!   otherwise unreadable entry is *quarantined* (moved into a
//!   `quarantined/` subdirectory for diagnosis) and the job is simply
//!   re-simulated; corruption is never a panic and never poisons a
//!   result.
//! * **Collision safety** — the payload stores the full canonical key
//!   (including the machine's fault configuration, which the seed
//!   fingerprint deliberately omits); a fingerprint collision holds a
//!   different key and reads as a miss, not a wrong result.
//! * **Failure policy** — failures (protocol errors, invariant
//!   violations, livelocks, lost updates) persist like successes: every
//!   outcome is a property of the job key, and re-simulating a failure
//!   wastes time.
//!
//! Table 1 rows are never persisted: their directed micro-machines
//! regenerate in microseconds and their labels are static strings.

use crate::experiments::apps::{App, AppRun};
use crate::experiments::counters::CounterPoint;
use crate::experiments::lockfree::LockfreePoint;
use crate::experiments::runner::{
    Job, JobError, JobOutput, JobResult, DISK_HITS, DISK_QUARANTINED, DISK_STORES,
};
use crate::experiments::{BarSpec, CounterKind, Scale};
use dsm_machine::EnvKey;
use dsm_protocol::{CasVariant, LlscScheme, SyncPolicy};
use dsm_sim::snapshot::{self, ByteReader, ByteWriter, PayloadKind, SnapshotError};
use dsm_sim::{
    CacheParams, FaultConfig, MachineConfig, ProtoSpec, ProtoVariant, SimParams, StableHasher,
};
use dsm_stats::{Histogram, LatencyHist};
use dsm_sync::{LinkPrim, Primitive};
use dsm_workloads::LfStructure;
use std::path::Path;
use std::sync::atomic::Ordering;

/// A hash of the simulator's model sources: every `crates/*/src` but
/// those of the few crates no job result can depend on (`bench`,
/// `analyze`, `mint`), computed by `crates/core/build.rs`. Any edit to
/// those sources changes it.
pub const MODEL_FINGERPRINT: u64 = include!(concat!(env!("OUT_DIR"), "/model_fingerprint.rs"));

/// The entry file name for a canonically encoded key: its 64-bit
/// content fingerprint.
fn file_name(key_bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write_str("dsm-cache-entry");
    h.write_bytes(key_bytes);
    format!("{:016x}.job", h.finish())
}

/// The canonical entry key: the model fingerprint, then the job's
/// encoding, then the environment's.
fn encode_key(model: u64, env: &EnvKey, job: &Job) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(model);
    w.put_bytes(&encode_job(job));
    put_env(&mut w, env);
    w.into_bytes()
}

/// Looks a job up in the persistent store at `dir`, for a run under
/// `env`.
///
/// Returns `None` on every miss-like condition: a Table 1 job, no entry
/// on disk, a fingerprint collision with a different job, or a corrupt
/// entry (which is quarantined first). The runner re-simulates in all
/// of these cases — corruption can cost time, never correctness.
pub(crate) fn load(dir: &Path, env: &EnvKey, job: &Job) -> Option<JobResult> {
    if matches!(job, Job::Table1 { .. }) {
        return None;
    }
    let key_bytes = encode_key(MODEL_FINGERPRINT, env, job);
    let path = dir.join(file_name(&key_bytes));
    let bytes = match snapshot::read(&path, PayloadKind::CacheEntry) {
        Ok(b) => b,
        Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => return quarantine_corrupt(&path, &e),
    };
    match decode_entry(&bytes, &key_bytes) {
        Ok(Some(result)) => {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            Some(result)
        }
        Ok(None) => None, // a different job's entry (fingerprint collision)
        Err(e) => quarantine_corrupt(&path, &e),
    }
}

/// Persists one job's result under `env` in the store at `dir`, unless
/// the job is Table 1. Persistence is best-effort — an I/O error is
/// reported to stderr and the run continues; the entry is simply
/// re-simulated by the next process. Safe to call from several threads
/// at once for distinct jobs: each entry has its own temporary file.
pub(crate) fn store(dir: &Path, env: &EnvKey, job: &Job, result: &JobResult) {
    if matches!(job, Job::Table1 { .. }) {
        return;
    }
    let key_bytes = encode_key(MODEL_FINGERPRINT, env, job);
    let path = dir.join(file_name(&key_bytes));
    let payload = encode_entry(&key_bytes, result);
    match snapshot::write_atomic(&path, PayloadKind::CacheEntry, &payload) {
        Ok(()) => {
            DISK_STORES.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => eprintln!(
            "dsm-runner: could not persist cache entry {}: {e}",
            path.display()
        ),
    }
}

/// Quarantines a corrupt entry and reports it; always returns `None`
/// (the caller treats the lookup as a miss and re-simulates).
fn quarantine_corrupt(path: &Path, why: &SnapshotError) -> Option<JobResult> {
    DISK_QUARANTINED.fetch_add(1, Ordering::Relaxed);
    match snapshot::quarantine(path) {
        Ok(dest) => eprintln!(
            "dsm-runner: quarantined corrupt cache entry {} -> {} ({why}); re-simulating",
            path.display(),
            dest.display()
        ),
        Err(e) => eprintln!(
            "dsm-runner: corrupt cache entry {} ({why}); quarantine failed: {e}; re-simulating",
            path.display()
        ),
    }
    None
}

// ---------------------------------------------------------------------
// Canonical byte encodings.
//
// Enum tags deliberately mirror the StableHasher fingerprint tags in
// the runner, so the two canonical forms of a job can be audited side
// by side. All integers are little-endian via ByteWriter/ByteReader;
// layout changes require a FORMAT_VERSION bump in dsm_sim::snapshot.
// ---------------------------------------------------------------------

fn put_policy(w: &mut ByteWriter, p: SyncPolicy) {
    w.put_u8(match p {
        SyncPolicy::Inv => 0,
        SyncPolicy::Upd => 1,
        SyncPolicy::Unc => 2,
    });
}

fn take_policy(r: &mut ByteReader<'_>) -> Result<SyncPolicy, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => SyncPolicy::Inv,
        1 => SyncPolicy::Upd,
        2 => SyncPolicy::Unc,
        t => return Err(bad_tag("sync policy", t)),
    })
}

fn bad_tag(what: &str, tag: u8) -> SnapshotError {
    SnapshotError::Malformed(format!("unknown {what} tag {tag}"))
}

/// Every field is named, here and in [`put_mcfg`] and [`put_scale`],
/// so a new field does not compile until the encoding carries it.
fn put_bar(w: &mut ByteWriter, b: &BarSpec) {
    let BarSpec {
        policy,
        prim,
        cas_variant,
        load_exclusive,
        drop_copy,
        llsc,
        home_atomics,
    } = *b;
    put_policy(w, policy);
    w.put_u8(match prim {
        Primitive::FetchPhi => 0,
        Primitive::Llsc => 1,
        Primitive::Cas => 2,
    });
    w.put_u8(match cas_variant {
        CasVariant::Plain => 0,
        CasVariant::Deny => 1,
        CasVariant::Share => 2,
    });
    w.put_bool(load_exclusive);
    w.put_bool(drop_copy);
    match llsc {
        LlscScheme::BitVector => w.put_u8(0),
        LlscScheme::LinkedList => w.put_u8(1),
        LlscScheme::Limited(k) => {
            w.put_u8(2);
            w.put_u8(k);
        }
        LlscScheme::SerialNumber => w.put_u8(3),
    }
    w.put_bool(home_atomics);
}

fn take_bar(r: &mut ByteReader<'_>) -> Result<BarSpec, SnapshotError> {
    let policy = take_policy(r)?;
    let prim = match r.take_u8()? {
        0 => Primitive::FetchPhi,
        1 => Primitive::Llsc,
        2 => Primitive::Cas,
        t => return Err(bad_tag("primitive", t)),
    };
    let cas_variant = match r.take_u8()? {
        0 => CasVariant::Plain,
        1 => CasVariant::Deny,
        2 => CasVariant::Share,
        t => return Err(bad_tag("cas variant", t)),
    };
    let load_exclusive = r.take_bool()?;
    let drop_copy = r.take_bool()?;
    let llsc = match r.take_u8()? {
        0 => LlscScheme::BitVector,
        1 => LlscScheme::LinkedList,
        2 => LlscScheme::Limited(r.take_u8()?),
        3 => LlscScheme::SerialNumber,
        t => return Err(bad_tag("llsc scheme", t)),
    };
    Ok(BarSpec {
        policy,
        prim,
        cas_variant,
        load_exclusive,
        drop_copy,
        llsc,
        home_atomics: r.take_bool()?,
    })
}

fn put_mcfg(w: &mut ByteWriter, m: &MachineConfig) {
    let MachineConfig {
        nodes,
        mesh_width,
        ref params,
        ref cache,
        seed,
        proto,
        clusters,
        ref faults,
    } = *m;
    let SimParams {
        line_size,
        cache_hit,
        cache_ctrl,
        mem_access,
        dir_access,
        hop_delay,
        flit_bytes,
        flit_cycle,
        header_flits,
        issue,
        cluster_penalty,
    } = *params;
    let CacheParams { sets, ways } = *cache;
    w.put_u32(nodes);
    w.put_u32(mesh_width);
    for v in [
        line_size,
        cache_hit,
        cache_ctrl,
        mem_access,
        dir_access,
        hop_delay,
        flit_bytes,
        flit_cycle,
        header_flits,
        issue,
        cluster_penalty,
    ] {
        w.put_u64(v);
    }
    put_variant(w, proto);
    w.put_u32(clusters);
    w.put_u64(sets as u64);
    w.put_u64(ways as u64);
    w.put_u64(seed);
    // The fault config is spelled out even though the seed fingerprint
    // omits it: two jobs differing only in faults must never be
    // mistaken for each other on disk.
    put_faults(w, faults);
}

fn take_mcfg(r: &mut ByteReader<'_>) -> Result<MachineConfig, SnapshotError> {
    let nodes = r.take_u32()?;
    let mut m = MachineConfig::with_nodes(nodes);
    m.mesh_width = r.take_u32()?;
    m.params.line_size = r.take_u64()?;
    m.params.cache_hit = r.take_u64()?;
    m.params.cache_ctrl = r.take_u64()?;
    m.params.mem_access = r.take_u64()?;
    m.params.dir_access = r.take_u64()?;
    m.params.hop_delay = r.take_u64()?;
    m.params.flit_bytes = r.take_u64()?;
    m.params.flit_cycle = r.take_u64()?;
    m.params.header_flits = r.take_u64()?;
    m.params.issue = r.take_u64()?;
    m.params.cluster_penalty = r.take_u64()?;
    m.proto = take_variant(r)?;
    m.clusters = r.take_u32()?;
    m.cache.sets = r.take_u64()? as usize;
    m.cache.ways = r.take_u64()? as usize;
    m.seed = r.take_u64()?;
    m.faults = take_faults(r)?;
    Ok(m)
}

/// Faults in their canonical `to_spec` form, so every spelling of one
/// setting encodes alike; `paranoid` travels separately, as the spec
/// grammar does not carry it.
fn put_faults(w: &mut ByteWriter, f: &FaultConfig) {
    w.put_str(&f.to_spec());
    w.put_bool(f.paranoid);
}

fn take_faults(r: &mut ByteReader<'_>) -> Result<FaultConfig, SnapshotError> {
    let spec = r.take_str()?;
    let mut f = FaultConfig::from_spec(&spec)
        .map_err(|e| SnapshotError::Malformed(format!("fault spec: {e}")))?;
    f.paranoid = r.take_bool()?;
    Ok(f)
}

fn put_variant(w: &mut ByteWriter, v: ProtoVariant) {
    w.put_u8(match v {
        ProtoVariant::Dash => 0,
        ProtoVariant::MesiF => 1,
        ProtoVariant::Hier => 2,
    });
}

fn take_variant(r: &mut ByteReader<'_>) -> Result<ProtoVariant, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => ProtoVariant::Dash,
        1 => ProtoVariant::MesiF,
        2 => ProtoVariant::Hier,
        t => return Err(bad_tag("proto variant", t)),
    })
}

/// Encodes the result-changing part of a run environment.
pub(crate) fn put_env(w: &mut ByteWriter, env: &EnvKey) {
    put_faults(w, &env.faults);
    let p = &env.proto;
    put_variant(w, p.variant);
    w.put_bool(p.home_atomics);
    // Cluster counts and line sizes are never 0, so 0 stands for unset.
    w.put_u32(p.clusters.unwrap_or(0));
    w.put_u64(p.penalty.map_or(0, |v| v + 1));
    w.put_u64(p.line_size.unwrap_or(0));
}

/// Decodes [`put_env`]'s encoding.
pub(crate) fn take_env(r: &mut ByteReader<'_>) -> Result<EnvKey, SnapshotError> {
    Ok(EnvKey {
        faults: take_faults(r)?,
        proto: ProtoSpec {
            variant: take_variant(r)?,
            home_atomics: r.take_bool()?,
            clusters: Some(r.take_u32()?).filter(|&n| n > 0),
            penalty: r.take_u64()?.checked_sub(1),
            line_size: Some(r.take_u64()?).filter(|&n| n > 0),
        },
    })
}

fn put_scale(w: &mut ByteWriter, s: &Scale) {
    let Scale {
        procs,
        rounds,
        tc_size,
        wires,
        tasks,
    } = *s;
    w.put_u32(procs);
    for v in [rounds, tc_size, wires, tasks] {
        w.put_u64(v);
    }
}

fn take_scale(r: &mut ByteReader<'_>) -> Result<Scale, SnapshotError> {
    Ok(Scale {
        procs: r.take_u32()?,
        rounds: r.take_u64()?,
        tc_size: r.take_u64()?,
        wires: r.take_u64()?,
        tasks: r.take_u64()?,
    })
}

fn put_app(w: &mut ByteWriter, a: App) {
    w.put_u8(match a {
        App::WireRoute => 0,
        App::Cholesky => 1,
        App::TransitiveClosure => 2,
    });
}

fn take_app(r: &mut ByteReader<'_>) -> Result<App, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => App::WireRoute,
        1 => App::Cholesky,
        2 => App::TransitiveClosure,
        t => return Err(bad_tag("app", t)),
    })
}

/// Encodes a job in its canonical on-disk form (every field, including
/// the machine's fault configuration). It leads the entry key and the
/// reproducer encoding.
pub(crate) fn encode_job(job: &Job) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match job {
        Job::Counter {
            mcfg,
            kind,
            bar,
            contention,
            write_run_bits,
            rounds,
        } => {
            w.put_u8(0);
            put_mcfg(&mut w, mcfg);
            w.put_u8(match kind {
                CounterKind::LockFree => 0,
                CounterKind::TtsLock => 1,
                CounterKind::McsLock => 2,
            });
            put_bar(&mut w, bar);
            w.put_u32(*contention);
            w.put_u64(*write_run_bits);
            w.put_u64(*rounds);
        }
        Job::App { app, bar, scale } => {
            w.put_u8(1);
            put_app(&mut w, *app);
            put_bar(&mut w, bar);
            put_scale(&mut w, scale);
        }
        Job::Table1 { scenario } => {
            w.put_u8(2);
            w.put_u64(*scenario as u64);
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
            w.put_u8(3);
            put_mcfg(&mut w, mcfg);
            w.put_u8(match structure {
                LfStructure::Queue => 0,
                LfStructure::List => 1,
                LfStructure::Map => 2,
            });
            w.put_u8(match prim {
                LinkPrim::Llsc => 0,
                LinkPrim::EmulLlsc => 1,
                LinkPrim::CasPlain => 2,
            });
            put_policy(&mut w, *policy);
            w.put_u32(*ops_per_proc);
            w.put_u64(*key_space);
            w.put_u32(*buckets);
        }
    }
    w.into_bytes()
}

/// Decodes a canonical job encoding (the exact inverse of
/// [`encode_job`]).
pub(crate) fn decode_job(bytes: &[u8]) -> Result<Job, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let job = match r.take_u8()? {
        0 => {
            let mcfg = take_mcfg(&mut r)?;
            let kind = match r.take_u8()? {
                0 => CounterKind::LockFree,
                1 => CounterKind::TtsLock,
                2 => CounterKind::McsLock,
                t => return Err(bad_tag("counter kind", t)),
            };
            let bar = take_bar(&mut r)?;
            Job::Counter {
                mcfg,
                kind,
                bar,
                contention: r.take_u32()?,
                write_run_bits: r.take_u64()?,
                rounds: r.take_u64()?,
            }
        }
        1 => Job::App {
            app: take_app(&mut r)?,
            bar: take_bar(&mut r)?,
            scale: take_scale(&mut r)?,
        },
        2 => Job::Table1 {
            scenario: r.take_u64()? as usize,
        },
        3 => {
            let mcfg = take_mcfg(&mut r)?;
            let structure = match r.take_u8()? {
                0 => LfStructure::Queue,
                1 => LfStructure::List,
                2 => LfStructure::Map,
                t => return Err(bad_tag("structure", t)),
            };
            let prim = match r.take_u8()? {
                0 => LinkPrim::Llsc,
                1 => LinkPrim::EmulLlsc,
                2 => LinkPrim::CasPlain,
                t => return Err(bad_tag("link primitive", t)),
            };
            Job::Lockfree {
                mcfg,
                structure,
                prim,
                policy: take_policy(&mut r)?,
                ops_per_proc: r.take_u32()?,
                key_space: r.take_u64()?,
                buckets: r.take_u32()?,
            }
        }
        t => return Err(bad_tag("job", t)),
    };
    r.finish()?;
    Ok(job)
}

fn put_histogram(w: &mut ByteWriter, h: &Histogram) {
    let pairs: Vec<(usize, u64)> = h.iter().collect();
    w.put_u64(pairs.len() as u64);
    for (value, count) in pairs {
        w.put_u64(value as u64);
        w.put_u64(count);
    }
}

fn take_histogram(r: &mut ByteReader<'_>) -> Result<Histogram, SnapshotError> {
    let n = r.take_u64()?;
    let mut h = Histogram::new();
    for _ in 0..n {
        let value = r.take_u64()? as usize;
        let count = r.take_u64()?;
        h.record_n(value, count);
    }
    Ok(h)
}

fn put_output(w: &mut ByteWriter, out: &JobOutput) {
    match out {
        JobOutput::Counter(p) => {
            w.put_u8(0);
            put_bar(w, &p.bar);
            w.put_f64(p.avg_cycles);
            w.put_u64(p.updates);
            w.put_u64(p.cycles);
            p.latency.encode_into(w);
        }
        JobOutput::App(a) => {
            w.put_u8(1);
            put_app(w, a.app);
            put_bar(w, &a.bar);
            w.put_u64(a.cycles);
            put_histogram(w, &a.contention);
            w.put_f64(a.write_run);
            a.latency.encode_into(w);
        }
        // Guarded by the Table 1 gate in store(): rows hold static
        // label strings and are regenerated, never persisted.
        JobOutput::Table1(_) => unreachable!("table-1 results are never persisted"),
        JobOutput::Lockfree(p) => {
            w.put_u8(3);
            w.put_u8(match p.structure {
                LfStructure::Queue => 0,
                LfStructure::List => 1,
                LfStructure::Map => 2,
            });
            w.put_u8(match p.prim {
                LinkPrim::Llsc => 0,
                LinkPrim::EmulLlsc => 1,
                LinkPrim::CasPlain => 2,
            });
            put_policy(w, p.policy);
            w.put_u64(p.ops);
            w.put_u64(p.cycles);
            w.put_f64(p.avg_cycles);
            p.latency.encode_into(w);
        }
    }
}

fn take_output(r: &mut ByteReader<'_>) -> Result<JobOutput, SnapshotError> {
    Ok(match r.take_u8()? {
        0 => JobOutput::Counter(CounterPoint {
            bar: take_bar(r)?,
            avg_cycles: r.take_f64()?,
            updates: r.take_u64()?,
            cycles: r.take_u64()?,
            latency: LatencyHist::decode_from(r)?,
        }),
        1 => JobOutput::App(AppRun {
            app: take_app(r)?,
            bar: take_bar(r)?,
            cycles: r.take_u64()?,
            contention: take_histogram(r)?,
            write_run: r.take_f64()?,
            latency: LatencyHist::decode_from(r)?,
        }),
        3 => {
            let structure = match r.take_u8()? {
                0 => LfStructure::Queue,
                1 => LfStructure::List,
                2 => LfStructure::Map,
                t => return Err(bad_tag("structure", t)),
            };
            let prim = match r.take_u8()? {
                0 => LinkPrim::Llsc,
                1 => LinkPrim::EmulLlsc,
                2 => LinkPrim::CasPlain,
                t => return Err(bad_tag("link primitive", t)),
            };
            JobOutput::Lockfree(LockfreePoint {
                structure,
                prim,
                policy: take_policy(r)?,
                ops: r.take_u64()?,
                cycles: r.take_u64()?,
                avg_cycles: r.take_f64()?,
                latency: LatencyHist::decode_from(r)?,
            })
        }
        t => return Err(bad_tag("job output", t)),
    })
}

/// Encodes one entry payload: the canonical key encoding (for collision
/// detection on load) followed by the result.
fn encode_entry(key_bytes: &[u8], result: &JobResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(key_bytes);
    match result {
        Ok(out) => {
            w.put_u8(0);
            put_output(&mut w, out);
        }
        Err(e) => {
            w.put_u8(1);
            w.put_str(&e.job);
            w.put_str(&e.message);
        }
    }
    w.into_bytes()
}

/// Decodes one entry payload. `Ok(None)` means the entry belongs to a
/// *different* key (a file-name fingerprint collision) — a cache miss,
/// not corruption.
fn decode_entry(bytes: &[u8], want: &[u8]) -> Result<Option<JobResult>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    if r.take_bytes()? != want {
        return Ok(None);
    }
    let result = match r.take_u8()? {
        0 => Ok(take_output(&mut r)?),
        1 => Err(JobError {
            job: r.take_str()?,
            message: r.take_str()?,
        }),
        t => return Err(bad_tag("result", t)),
    };
    r.finish()?;
    Ok(Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::SyncPolicy;
    use dsm_sync::Primitive;

    /// The key of a run under the default environment.
    fn key(job: &Job) -> Vec<u8> {
        encode_key(MODEL_FINGERPRINT, &EnvKey::default(), job)
    }

    fn counter_job(faulty: bool) -> Job {
        let mut mcfg = MachineConfig::with_nodes(4);
        if faulty {
            mcfg.faults = FaultConfig::light();
        }
        Job::counter(
            mcfg,
            CounterKind::LockFree,
            BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
            2,
            1.5,
            4,
        )
    }

    fn lockfree_job() -> Job {
        Job::lockfree(
            MachineConfig::with_nodes(4),
            LfStructure::Map,
            LinkPrim::EmulLlsc,
            SyncPolicy::Upd,
            4,
            16,
            4,
        )
    }

    fn app_job() -> Job {
        Job::app(
            App::TransitiveClosure,
            BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
            Scale::quick(),
        )
    }

    #[test]
    fn job_encoding_round_trips_every_variant() {
        for job in [
            counter_job(false),
            counter_job(true),
            app_job(),
            Job::table1(3),
            lockfree_job(),
        ] {
            let bytes = encode_job(&job);
            assert_eq!(decode_job(&bytes).unwrap(), job, "{job:?}");
        }
    }

    #[test]
    fn fault_config_distinguishes_entries() {
        // The seed fingerprint deliberately omits faults; the disk
        // encoding (and therefore the file name) must not.
        let plain = counter_job(false);
        let faulty = counter_job(true);
        assert_eq!(plain.seed(), faulty.seed());
        assert_ne!(encode_job(&plain), encode_job(&faulty));
        assert_ne!(file_name(&key(&plain)), file_name(&key(&faulty)));
    }

    #[test]
    fn env_key_round_trips_and_distinguishes_entries() {
        let job = counter_job(false);
        let mut faulty = EnvKey {
            faults: FaultConfig::from_spec("corrupt=50,watchdog=9000").unwrap(),
            proto: ProtoSpec::from_spec("hier,hna,clusters=4,penalty=32,line=64").unwrap(),
        };
        faulty.faults.paranoid = true;
        for env in [EnvKey::default(), faulty.clone()] {
            let mut w = ByteWriter::new();
            put_env(&mut w, &env);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(take_env(&mut r).unwrap(), env);
            r.finish().unwrap();
        }
        assert_ne!(key(&job), encode_key(MODEL_FINGERPRINT, &faulty, &job));
        // Spellings of one setting share a key.
        let light = |spec: &str| EnvKey {
            faults: FaultConfig::from_spec(spec).unwrap(),
            ..EnvKey::default()
        };
        assert_eq!(
            encode_key(MODEL_FINGERPRINT, &light("light"), &job),
            encode_key(
                MODEL_FINGERPRINT,
                &light(&FaultConfig::light().to_spec()),
                &job
            )
        );
    }

    #[test]
    fn entry_decode_rejects_collisions_as_miss() {
        let stored_for = counter_job(false);
        let bytes = encode_entry(
            &key(&stored_for),
            &Err(JobError {
                job: "x".into(),
                message: "deterministic failure".into(),
            }),
        );
        // Same entry asked for by a different job: miss, not corruption.
        assert!(decode_entry(&bytes, &key(&lockfree_job()))
            .unwrap()
            .is_none());
        // Same job under another environment: also a miss.
        let paranoid = EnvKey {
            faults: FaultConfig {
                paranoid: true,
                ..FaultConfig::default()
            },
            ..EnvKey::default()
        };
        assert!(decode_entry(
            &bytes,
            &encode_key(MODEL_FINGERPRINT, &paranoid, &stored_for)
        )
        .unwrap()
        .is_none());
        // Asked for by the right job: the stored failure comes back.
        let back = decode_entry(&bytes, &key(&stored_for)).unwrap().unwrap();
        assert_eq!(back.unwrap_err().message, "deterministic failure");
    }

    #[test]
    fn histogram_round_trips_through_entry() {
        let mut contention = Histogram::new();
        contention.record_n(1, 40);
        contention.record_n(3, 7);
        contention.record_n(9, 1);
        let mut latency = LatencyHist::new();
        for v in [3, 90, 90, 4096, u64::MAX] {
            latency.record(v);
        }
        let job = app_job();
        let out = JobOutput::App(AppRun {
            app: App::TransitiveClosure,
            bar: BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
            cycles: 123_456,
            contention: contention.clone(),
            write_run: 1.25,
            latency: latency.clone(),
        });
        let bytes = encode_entry(&key(&job), &Ok(out));
        let back = decode_entry(&bytes, &key(&job)).unwrap().unwrap().unwrap();
        let JobOutput::App(a) = back else {
            panic!("expected app output");
        };
        assert_eq!(
            a.contention.iter().collect::<Vec<_>>(),
            contention.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.cycles, 123_456);
        assert_eq!(a.write_run.to_bits(), 1.25f64.to_bits());
        assert_eq!(a.latency, latency);
    }

    #[test]
    fn store_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("dsm-diskcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = counter_job(false);
        assert!(
            load(&dir, &EnvKey::default(), &job).is_none(),
            "cold store must miss"
        );
        let mut latency = LatencyHist::new();
        latency.record_n(41, 16);
        let out = Ok(JobOutput::Counter(CounterPoint {
            bar: BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
            avg_cycles: 41.5,
            updates: 16,
            cycles: 664,
            latency,
        }));
        store(&dir, &EnvKey::default(), &job, &out);
        let back = load(&dir, &EnvKey::default(), &job).expect("warm store must hit");
        let p = back.unwrap().into_counter();
        assert_eq!(p.cycles, 664);
        assert_eq!(p.avg_cycles.to_bits(), 41.5f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_of_another_model_is_a_miss_not_corruption() {
        let dir = std::env::temp_dir().join(format!("dsm-diskcache-m-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = counter_job(false);
        // An entry as a build with other model sources stores it.
        let old_key = encode_key(MODEL_FINGERPRINT ^ 1, &EnvKey::default(), &job);
        let old_path = dir.join(file_name(&old_key));
        assert_ne!(old_path, dir.join(file_name(&key(&job))));
        let out = Err(JobError {
            job: "x".into(),
            message: "the old model's result".into(),
        });
        let payload = encode_entry(&old_key, &out);
        snapshot::write_atomic(&old_path, PayloadKind::CacheEntry, &payload).unwrap();
        assert!(
            load(&dir, &EnvKey::default(), &job).is_none(),
            "an entry written by another model must miss"
        );
        assert!(old_path.exists(), "the other model's entry stays in place");
        assert!(
            !dir.join("quarantined").exists(),
            "a model mismatch is not corruption"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_persist_and_table1_rows_never_do() {
        let dir = std::env::temp_dir().join(format!("dsm-diskcache-tr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let failure = JobError {
            job: "j".into(),
            message: "livelock".into(),
        };
        store(
            &dir,
            &EnvKey::default(),
            &counter_job(false),
            &Err(failure.clone()),
        );
        store(
            &dir,
            &EnvKey::default(),
            &Job::table1(0),
            &Ok(JobOutput::Table1(crate::experiments::table1::run_scenario(
                0,
            ))),
        );
        let back = load(&dir, &EnvKey::default(), &counter_job(false));
        assert_eq!(back.expect("a failure must persist").unwrap_err(), failure);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "nothing may be written for table-1 rows"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crates the fingerprint hashes and those it leaves out, as
    /// `crates/core/build.rs` found them.
    const MODEL_CRATES: (&[&str], &[&str]) = include!(concat!(env!("OUT_DIR"), "/model_crates.rs"));

    #[test]
    fn fingerprint_covers_every_model_dependency() {
        let (hashed, unhashed) = MODEL_CRATES;
        // Job results carry `dsm-stats` values, and lock-free jobs run
        // `dsm-trace`'s linearizability checker.
        for name in ["core", "machine", "stats", "trace"] {
            assert!(hashed.contains(&name), "{name} must be hashed: {hashed:?}");
        }
        let manifest = include_str!("../../Cargo.toml");
        let deps = manifest
            .split("[dependencies]")
            .nth(1)
            .and_then(|rest| rest.split("\n[").next())
            .expect("a [dependencies] table");
        let dsm: Vec<&str> = deps
            .lines()
            .filter_map(|line| line.trim().strip_prefix("dsm-"))
            .filter_map(|rest| rest.split(['.', ' ', '=']).next())
            .collect();
        assert!(dsm.len() >= 8, "dependencies not found: {deps}");
        for name in dsm {
            assert!(
                hashed.contains(&name) || unhashed.contains(&name),
                "dependency dsm-{name} is neither hashed nor excluded: {MODEL_CRATES:?}"
            );
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_reads_as_miss() {
        let dir = std::env::temp_dir().join(format!("dsm-diskcache-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = counter_job(false);
        let out = Ok(JobOutput::Counter(CounterPoint {
            bar: BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
            avg_cycles: 1.0,
            updates: 1,
            cycles: 1,
            latency: LatencyHist::new(),
        }));
        store(&dir, &EnvKey::default(), &job, &out);
        let path = dir.join(file_name(&key(&job)));
        // Flip one payload bit on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            load(&dir, &EnvKey::default(), &job).is_none(),
            "corrupt entry must read as a miss"
        );
        assert!(!path.exists(), "corrupt entry must be moved away");
        assert!(
            dir.join("quarantined").exists(),
            "corrupt entry must be quarantined for diagnosis"
        );
        // The job can be stored and served again afterwards.
        store(&dir, &EnvKey::default(), &job, &out);
        assert!(load(&dir, &EnvKey::default(), &job).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
