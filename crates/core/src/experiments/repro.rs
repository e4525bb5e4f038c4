//! Minimal-reproducer extraction for fault-implicated failures.
//!
//! When a job fails deterministically under fault injection (an
//! invariant violation, a livelock, a protocol error, lost updates),
//! the interesting question is *which* injected faults mattered. The
//! fault injector draws its candidates from a private deterministic
//! stream and records the applied schedule
//! ([`dsm_machine::Machine::fault_record`]); a
//! [`dsm_sim::FaultFilter`] suppresses the application of drawn
//! candidates without perturbing the stream. That makes delta debugging
//! sound: re-running the same job with a subset filter applies exactly
//! that subset, everything else unchanged.
//!
//! [`shrink`] runs the standard ddmin algorithm over the applied
//! candidate indices, producing a [`Reproducer`]: the job key, the
//! environment key of the failing run (its *effective* fault
//! configuration and the protocol spec in force), the minimal
//! allow-list, and the failure diagnostic it reproduces. Reproducers
//! persist in the snapshot container ([`PayloadKind::Reproducer`]) and
//! replay with one command:
//!
//! ```sh
//! cargo run --release -p dsm-bench --bin figures -- repro FILE
//! ```
//!
//! The experiment [`runner`] emits these artifacts automatically for
//! every failure when the run environment names a
//! reproducer directory ([`RunEnv::repro_dir`], `DSM_REPRO_DIR`),
//! together with a plain-text dump of the failure diagnostic, the
//! applied fault schedule and the machine's final state digest. The
//! failing job's error message references both files. A replay runs
//! under the recorded environment key alone, whatever environment the
//! replaying process has.

use crate::experiments::diskcache;
use crate::experiments::runner::{self, Job, JobOutput};
use dsm_machine::{EnvKey, Machine, RunEnv};
use dsm_sim::snapshot::{self, ByteReader, ByteWriter, PayloadKind, SnapshotError};
use dsm_sim::{FaultFilter, FaultRecord};
use std::path::Path;

/// A minimal reproducer: everything needed to replay one deterministic
/// failure, self-contained (no environment required).
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// The failing job.
    pub job: Job,
    /// The environment key of the original run: its effective fault
    /// configuration (explicit or from the environment) and the
    /// protocol spec in force, captured so replay pins both exactly.
    pub env: EnvKey,
    /// The minimal fault allow-list as half-open candidate-index
    /// ranges; `None` means no filter (the failure does not shrink,
    /// e.g. the schedule was capped or the failure needs no faults).
    pub filter: Option<Vec<(u64, u64)>>,
    /// The failure diagnostic the minimal schedule reproduces.
    pub message: String,
}

impl Reproducer {
    /// Number of fault applications the reproducer allows (`None`
    /// filter = unrestricted).
    pub fn allowed_faults(&self) -> Option<u64> {
        self.filter
            .as_ref()
            .map(|r| r.iter().map(|(s, e)| e - s).sum())
    }
}

/// Why a reproducer could not be saved, loaded or replayed.
#[derive(Debug)]
pub enum ReproError {
    /// The on-disk container was unreadable, truncated, corrupt, or of
    /// the wrong version/kind — or the payload failed to decode.
    Snapshot(SnapshotError),
    /// The job kind has no reproducer support (Table 1 micro-machines).
    Unsupported(String),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Snapshot(e) => write!(f, "reproducer container: {e}"),
            ReproError::Unsupported(job) => write!(f, "job {job} has no reproducer support"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<SnapshotError> for ReproError {
    fn from(e: SnapshotError) -> Self {
        ReproError::Snapshot(e)
    }
}

/// The outcome of replaying a [`Reproducer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Whether the replay failed, as the reproducer promised. (The
    /// exact diagnostic may drift across code changes; reproduction
    /// means *a* failure, not a string match.)
    pub reproduced: bool,
    /// The replay's own diagnostic (or a success note).
    pub message: String,
}

/// Persists `rep` atomically to `path` in the snapshot container.
///
/// # Errors
///
/// Returns [`ReproError::Snapshot`] if the write fails.
pub fn save(path: &Path, rep: &Reproducer) -> Result<(), ReproError> {
    let mut w = ByteWriter::new();
    w.put_bytes(&diskcache::encode_job(&rep.job));
    diskcache::put_env(&mut w, &rep.env);
    match &rep.filter {
        None => w.put_u8(0),
        Some(ranges) => {
            w.put_u8(1);
            w.put_u64(ranges.len() as u64);
            for &(s, e) in ranges {
                w.put_u64(s);
                w.put_u64(e);
            }
        }
    }
    w.put_str(&rep.message);
    snapshot::write_atomic(path, PayloadKind::Reproducer, &w.into_bytes())?;
    Ok(())
}

/// Loads a reproducer from `path`, verifying the container's magic,
/// version, kind and checksum.
///
/// # Errors
///
/// Returns [`ReproError::Snapshot`] for any container or decoding
/// failure.
pub fn load(path: &Path) -> Result<Reproducer, ReproError> {
    let payload = snapshot::read(path, PayloadKind::Reproducer)?;
    let mut r = ByteReader::new(&payload);
    let job = diskcache::decode_job(&r.take_bytes()?)?;
    let env = diskcache::take_env(&mut r)?;
    let filter = match r.take_u8()? {
        0 => None,
        1 => {
            let n = r.take_u64()?;
            let mut ranges = Vec::with_capacity(n.min(4096) as usize);
            for _ in 0..n {
                let s = r.take_u64()?;
                let e = r.take_u64()?;
                ranges.push((s, e));
            }
            Some(ranges)
        }
        t => {
            return Err(ReproError::Snapshot(SnapshotError::Malformed(format!(
                "bad filter tag {t}"
            ))))
        }
    };
    let message = r.take_str()?;
    r.finish()?;
    Ok(Reproducer {
        job,
        env,
        filter,
        message,
    })
}

/// Runs one case: the job under `env` alone (no trace) with an optional
/// candidate filter, returning the simulation outcome and the fault
/// record. `None` for Table 1 jobs.
fn run_case(
    job: &Job,
    env: &EnvKey,
    filter: Option<&[(u64, u64)]>,
) -> Option<(Result<JobOutput, String>, FaultRecord)> {
    let env = RunEnv {
        faults: env.faults.clone(),
        proto: env.proto,
        ..RunEnv::default()
    };
    RunEnv::scope(env, || {
        let mut p = runner::prepare(job)?;
        if let Some(ranges) = filter {
            p.machine
                .set_fault_filter(Some(FaultFilter::from_ranges(ranges.to_vec())));
        }
        let finish = p.finish;
        let res = match p.machine.run(p.limit) {
            Ok(report) => finish(&mut p.machine, report),
            Err(e) => Err(format!("{}: {e}", p.label)),
        };
        let record = p.machine.fault_record().cloned().unwrap_or_default();
        Some((res, record))
    })
}

/// Returns the failure message if the case fails with exactly the
/// faults in `subset` allowed.
fn fails_with(job: &Job, env: &EnvKey, subset: &[u64]) -> Option<String> {
    let filter = FaultFilter::from_indices(subset);
    run_case(job, env, Some(filter.ranges()))?.0.err()
}

/// Upper bound on shrinking test runs. Each ddmin probe is a full
/// simulation; past the budget we keep the smallest failing set found
/// so far (still a valid reproducer — just not proven 1-minimal).
const SHRINK_BUDGET: u32 = 128;

/// Standard ddmin (Zeller–Hildebrandt delta debugging) over the applied
/// candidate indices. `test` returns the failure message if the subset
/// still fails. Returns the minimized set and its failure message.
fn ddmin(
    mut current: Vec<u64>,
    mut message: String,
    mut test: impl FnMut(&[u64]) -> Option<String>,
) -> (Vec<u64>, String) {
    let mut n = 2usize;
    while current.len() >= 2 && n <= current.len() {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        // Try each chunk alone: a failing chunk becomes the new set.
        let mut i = 0;
        while i < current.len() {
            let subset = current[i..(i + chunk).min(current.len())].to_vec();
            if let Some(msg) = test(&subset) {
                current = subset;
                message = msg;
                n = 2;
                reduced = true;
                break;
            }
            i += chunk;
        }
        if reduced {
            continue;
        }
        // Try each complement (skip n == 2: complements equal chunks).
        if n > 2 {
            let mut i = 0;
            while i < current.len() {
                let mut comp = current[..i].to_vec();
                comp.extend_from_slice(&current[(i + chunk).min(current.len())..]);
                if !comp.is_empty() && comp.len() < current.len() {
                    if let Some(msg) = test(&comp) {
                        current = comp;
                        message = msg;
                        n = (n - 1).max(2);
                        reduced = true;
                        break;
                    }
                }
                i += chunk;
            }
        }
        if reduced {
            continue;
        }
        if chunk == 1 {
            break; // finest granularity survived: 1-minimal
        }
        n = (n * 2).min(current.len());
    }
    (current, message)
}

/// Shrinks a failing job to a minimal reproducer.
///
/// Runs the job once to capture the failure and the applied fault
/// schedule, then delta-debugs the schedule down to a minimal subset
/// that still triggers a failure. Returns `None` when the job succeeds
/// or is a Table 1 job. When the
/// schedule was capped (heavier runs than [`dsm_sim::fault`] records in
/// full) the reproducer carries no filter: it replays the unshrunk
/// failure, which is still deterministic.
pub fn shrink(job: &Job) -> Option<Reproducer> {
    let env = EnvKey {
        faults: runner::prepare(job)?.machine.fault_config().clone(),
        proto: RunEnv::current().proto,
    };
    let (res, record) = run_case(job, &env, None)?;
    let failure = res.err()?;
    let full: Vec<u64> = record.schedule.iter().map(|&(i, _, _)| i).collect();
    let complete = full.len() as u64 == record.applied;
    if full.is_empty() || !complete {
        return Some(Reproducer {
            job: job.clone(),
            env,
            filter: None,
            message: failure,
        });
    }
    let mut budget = SHRINK_BUDGET;
    let test = |subset: &[u64]| -> Option<String> {
        if budget == 0 {
            return None;
        }
        budget -= 1;
        fails_with(job, &env, subset)
    };
    // If the failure needs no faults at all, the minimal filter is
    // empty — don't ddmin toward it, just verify once.
    let (minimal, message) = match fails_with(job, &env, &[]) {
        Some(msg) => (Vec::new(), msg),
        None => ddmin(full, failure, test),
    };
    Some(Reproducer {
        job: job.clone(),
        env,
        filter: Some(FaultFilter::from_indices(&minimal).ranges().to_vec()),
        message,
    })
}

/// Replays a reproducer: runs its job under its pinned environment key
/// and filter, and reports whether the failure recurred.
///
/// # Errors
///
/// [`ReproError::Unsupported`] for Table 1 jobs.
pub fn replay(rep: &Reproducer) -> Result<Replay, ReproError> {
    let ranges = rep.filter.as_deref();
    let Some((res, _)) = run_case(&rep.job, &rep.env, ranges) else {
        return Err(ReproError::Unsupported(format!("{:?}", rep.job)));
    };
    Ok(match res {
        Err(message) => Replay {
            reproduced: true,
            message,
        },
        Ok(_) => Replay {
            reproduced: false,
            message: "run completed successfully; the failure did not recur".into(),
        },
    })
}

/// Emits failure artifacts for a failure and annotates
/// its message with their paths: a plain-text dump (diagnostic, applied
/// fault schedule, final state digest — the livelock watchdog's
/// per-processor blocked-on dump lands here too) and a shrunk,
/// replayable reproducer. Best-effort: emission problems are reported
/// to stderr and never turn into job failures of their own.
pub(crate) fn emit(job: &Job, machine: &Machine, mut failure: String, dir: &Path) -> String {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "dsm-repro: cannot create reproducer dir {}: {e}",
            dir.display()
        );
        return failure;
    }
    let stem = format!("{:016x}", job.seed());
    let record = machine.fault_record().cloned().unwrap_or_default();

    let dump_path = dir.join(format!("{stem}.dump.txt"));
    let mut text = format!(
        "{}\n\njob: {:?}\nfaults: {} paranoid={}\nproto: {:?}\nstate digest: {:016x}\n\
         events processed: {}\nfault candidates drawn: {}\nfaults applied: {}\n",
        failure,
        job,
        machine.fault_config().to_spec(),
        machine.fault_config().paranoid,
        RunEnv::current().proto,
        machine.state_digest(),
        machine.events_processed(),
        record.candidates,
        record.applied,
    );
    for &(i, cycle, f) in &record.schedule {
        text.push_str(&format!("  candidate #{i} @cycle {cycle}: {f:?}\n"));
    }
    if let Err(e) = std::fs::write(&dump_path, &text) {
        eprintln!(
            "dsm-repro: cannot write failure dump {}: {e}",
            dump_path.display()
        );
    }

    let repro_path = dir.join(format!("{stem}.repro"));
    match shrink(job) {
        Some(rep) => match save(&repro_path, &rep) {
            Ok(()) => {
                let kept = rep
                    .allowed_faults()
                    .map_or_else(|| "all".into(), |n| n.to_string());
                failure.push_str(&format!(
                    " [reproducer: {} ({kept} of {} faults kept; replay with \
                     `figures repro`); dump: {}]",
                    repro_path.display(),
                    record.applied,
                    dump_path.display()
                ));
            }
            Err(e) => eprintln!(
                "dsm-repro: cannot write reproducer {}: {e}",
                repro_path.display()
            ),
        },
        None => {
            // The failure did not recur on the shrinking re-run — only
            // possible if it was not deterministic after all. Leave the
            // dump in place and say so.
            failure.push_str(&format!(" [dump: {}]", dump_path.display()));
        }
    }
    failure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{BarSpec, CounterKind};
    use dsm_protocol::SyncPolicy;
    use dsm_sim::{FaultConfig, MachineConfig, ProtoSpec};
    use dsm_sync::Primitive;

    #[test]
    fn ddmin_finds_a_single_culprit() {
        let all: Vec<u64> = (0..32).collect();
        let mut runs = 0;
        let (min, msg) = ddmin(all, "seed".into(), |s| {
            runs += 1;
            s.contains(&17).then(|| "needs 17".to_string())
        });
        assert_eq!(min, vec![17]);
        assert_eq!(msg, "needs 17");
        assert!(runs < 64, "ddmin should need O(log n) runs, used {runs}");
    }

    #[test]
    fn ddmin_finds_a_pair() {
        let all: Vec<u64> = (0..16).collect();
        let (min, _) = ddmin(all, "seed".into(), |s| {
            (s.contains(&3) && s.contains(&12)).then(|| "pair".to_string())
        });
        assert_eq!(min, vec![3, 12]);
    }

    #[test]
    fn ddmin_keeps_everything_when_everything_matters() {
        let all: Vec<u64> = (0..5).collect();
        let (min, _) = ddmin(all.clone(), "seed".into(), |s| {
            (s.len() == all.len()).then(|| "all".to_string())
        });
        assert_eq!(min, all);
    }

    #[test]
    fn reproducer_round_trips_through_disk() {
        let rep = Reproducer {
            job: Job::counter(
                MachineConfig::with_nodes(4),
                CounterKind::LockFree,
                BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
                4,
                1.0,
                4,
            ),
            env: EnvKey {
                faults: FaultConfig {
                    paranoid: true,
                    ..FaultConfig::heavy()
                },
                proto: ProtoSpec::from_spec("mesif,hna").unwrap(),
            },
            filter: Some(vec![(3, 4), (17, 20)]),
            message: "INV CAS: invariant: line 0x40 promoted illegally".into(),
        };
        let path = std::env::temp_dir().join(format!("dsm-repro-codec-{}", std::process::id()));
        save(&path, &rep).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.allowed_faults(), Some(4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn succeeding_job_yields_no_reproducer() {
        let job = Job::counter(
            MachineConfig::with_nodes(4),
            CounterKind::LockFree,
            BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
            4,
            1.0,
            4,
        );
        assert!(shrink(&job).is_none());
    }
}
