//! The traced pass and the layer microbenchmarks behind the per-layer
//! metrics.
//!
//! Spans are taken here, in the benchmark, around calls into each
//! layer's public API — the `dsm-workloads` builders, `Machine::run`,
//! `Machine::stats` and `Machine::network_stats`, the runner — so no code
//! inside the simulator changes. Program stepping and the home and cache
//! protocol engines stay inside `Machine::run`. Counts (events,
//! messages, flits, ...) come from the machine's own statistics and
//! repeat exactly from run to run.

use atomic_dsm::experiments::apps::App;
use atomic_dsm::experiments::runner::{Job, RunnerStats};
use atomic_dsm::experiments::{BarSpec, Scale};
use atomic_dsm::machine::Machine;
use atomic_dsm::mesh::{LatencyNetwork, Mesh};
use atomic_dsm::sim::{Cycle, EventQueue, MachineConfig, NodeId, SimRng};
use atomic_dsm::stats::MsgClass;
use atomic_dsm::workloads::{
    build_cholesky, build_synthetic, build_tclosure, build_wire_route, sequential_closure,
    tclosure, CholeskyConfig, SyntheticConfig, TcConfig, WireRouteConfig,
};
use dsm_bench::{traffic_trace, TrafficPattern};
use std::hint::black_box;
use std::time::Instant;

/// A run's final-state check, as the runner applies it.
type Check = Box<dyn FnOnce(&Machine) -> Result<(), String>>;

/// A job's machine, built but not yet run.
pub struct Built {
    machine: Machine,
    limit: Cycle,
    check: Check,
}

/// Builds `job`'s machine through the public workload builders, seeded
/// with [`Job::seed`] as the runner seeds it. `None` for jobs the
/// builders do not construct (Table 1, lock-free structures).
pub fn build(job: &Job) -> Option<Built> {
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
            let procs = mcfg.nodes;
            let scfg = SyntheticConfig {
                kind: *kind,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                contention: (*contention).min(procs),
                write_run: f64::from_bits(*write_run_bits),
                rounds: *rounds,
            };
            let (machine, layout) = build_synthetic(mcfg, &scfg);
            let updates = scfg.total_updates(procs);
            Some(Built {
                machine,
                limit: Cycle::new(20_000_000_000),
                check: Box::new(move |m: &Machine| {
                    let counted = m.read_word(layout.counter);
                    if counted == updates {
                        Ok(())
                    } else {
                        Err(format!("counter lost updates ({counted} of {updates})"))
                    }
                }),
            })
        }
        Job::App { app, bar, scale } => Some(build_app(*app, bar, scale, job.seed())),
        _ => None,
    }
}

/// An application job's machine, configured as `experiments::apps`
/// configures it, with the runner's coherence and output checks.
fn build_app(app: App, bar: &BarSpec, scale: &Scale, seed: u64) -> Built {
    let mut mcfg = MachineConfig::with_nodes(scale.procs);
    mcfg.seed = seed;
    let (machine, output): (Machine, Check) = match app {
        App::WireRoute => {
            let cfg = WireRouteConfig {
                wires: scale.wires,
                regions: (scale.procs * 2).max(8),
                route_len: 3,
                cells_per_visit: 4,
                cells_per_region: 16,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                seed: 1997,
                compute_per_wire: 40_000,
            };
            let (m, layout) = build_wire_route(mcfg, &cfg);
            let check = move |m: &Machine| {
                let (got, want) = (layout.total_cost(m, &cfg), cfg.expected_total());
                if got == want {
                    Ok(())
                } else {
                    Err(format!("wire-route lost updates ({got} of {want})"))
                }
            };
            (m, Box::new(check) as Check)
        }
        App::Cholesky => {
            let cfg = CholeskyConfig {
                tasks: scale.tasks,
                columns: scale.procs.max(8),
                updates_per_task: 2,
                column_words: 16,
                cells_per_update: 4,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                seed: 1995,
                compute_per_task: 120_000,
            };
            let (m, layout) = build_cholesky(mcfg, &cfg);
            let check = move |m: &Machine| {
                let (got, want) = (layout.total(m, &cfg), cfg.expected_total());
                if got == want {
                    Ok(())
                } else {
                    Err(format!("cholesky lost updates ({got} of {want})"))
                }
            };
            (m, Box::new(check) as Check)
        }
        App::TransitiveClosure => {
            let cfg = TcConfig {
                size: scale.tc_size,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                density: 0.15,
                seed: 1898,
            };
            let (m, layout, input) = build_tclosure(mcfg, &cfg);
            let check = move |m: &Machine| {
                if tclosure::read_matrix(m, &layout, cfg.size) == sequential_closure(&input) {
                    Ok(())
                } else {
                    Err("closure mismatch".to_string())
                }
            };
            (m, Box::new(check) as Check)
        }
    };
    Built {
        machine,
        limit: Cycle::new(50_000_000_000),
        check: Box::new(move |m: &Machine| {
            m.validate_coherence()
                .map_err(|e| format!("coherence: {e}"))?;
            output(m)
        }),
    }
}

/// Host seconds and simulated counts of one traced job.
#[derive(Debug)]
pub struct JobSpans {
    /// The whole job, dropping the machine included: what it kept a
    /// runner worker busy for.
    job_s: f64,
    build_s: f64,
    run_s: f64,
    check_s: f64,
    stats_s: f64,
    /// Simulated cycles (0 if the run failed).
    pub cycles: u64,
    events: u64,
    ops: u64,
    local_ops: u64,
    messages: u64,
    requests: u64,
    naks: u64,
    chain_sum: f64,
    chains: u64,
    flits: u64,
    entry_wait: u64,
    exit_wait: u64,
    /// The run's failure or failed final-state check, if any.
    pub error: Option<String>,
}

impl JobSpans {
    /// Host seconds inside the layer spans.
    fn spanned_s(&self) -> f64 {
        self.build_s + self.run_s + self.check_s + self.stats_s
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Rebuilds and runs `job` with a span around each layer call: build,
/// `Machine::run`, the final-state check, and `Machine::stats` plus
/// `Machine::network_stats`.
pub fn trace_job(job: &Job) -> Option<JobSpans> {
    let start = Instant::now();
    let Built {
        mut machine,
        limit,
        check,
    } = build(job)?;
    let build_s = secs(start);
    let t = Instant::now();
    let run = machine.run(limit);
    let run_s = secs(t);
    let t = Instant::now();
    let (cycles, events, error) = match run {
        Ok(report) => (report.cycles.as_u64(), report.events, check(&machine).err()),
        Err(e) => (0, machine.events_processed(), Some(e.to_string())),
    };
    let check_s = secs(t);
    let t = Instant::now();
    let stats = machine.stats();
    let net = machine.network_stats();
    let stats_s = secs(t);
    let mut spans = JobSpans {
        job_s: 0.0,
        build_s,
        run_s,
        check_s,
        stats_s,
        cycles,
        events,
        ops: stats.ops,
        local_ops: stats.local_ops,
        messages: stats.msgs.total_messages(),
        requests: stats.msgs.messages(MsgClass::Request),
        naks: stats.msgs.messages(MsgClass::Nak),
        chain_sum: stats.msgs.chains().sum(),
        chains: stats.msgs.chains().count(),
        flits: net.flits,
        entry_wait: net.entry_wait,
        exit_wait: net.exit_wait,
        error,
    };
    drop(machine);
    spans.job_s = secs(start);
    Some(spans)
}

/// Host seconds to construct every job's machine once; dropping each
/// machine stays out of the clock.
fn setup_pass(jobs: &[Job]) -> f64 {
    jobs.iter()
        .map(|job| {
            let t = Instant::now();
            let built = black_box(build(job));
            let s = secs(t);
            drop(built);
            s
        })
        .sum()
}

/// Host seconds to construct every job's machine once, averaged over as
/// many passes as fit in `min_s` seconds (at least one), so that a
/// sample spans far more than a scheduler tick.
pub fn setup_sample(jobs: &[Job], min_s: f64) -> f64 {
    let t = Instant::now();
    let (mut total, mut passes) = (0.0, 0u32);
    while passes == 0 || secs(t) < min_s {
        total += setup_pass(jobs);
        passes += 1;
    }
    total / f64::from(passes)
}

/// Wall-clock phases of the `trace` command, in seconds.
pub struct Phases {
    /// Runner workers in every pass.
    pub workers: usize,
    /// The two untraced passes, before and after the traced one: runner
    /// and rendering, from an empty result cache.
    pub untraced_s: [f64; 2],
    /// The traced pass: one fan-out per artifact.
    pub traced_s: f64,
    /// Re-rendering every artifact from a full result cache: cache
    /// lookups and rendering.
    pub render_s: f64,
}

/// The per-layer metrics as one JSON object, named as in
/// `BENCHMARK.json`. Runs the two microbenchmarks.
pub fn report(spans: &[JobSpans], ph: &Phases, runner: &RunnerStats) -> String {
    let sum = |f: fn(&JobSpans) -> f64| spans.iter().map(f).sum::<f64>();
    let count = |f: fn(&JobSpans) -> u64| spans.iter().map(f).sum::<u64>() as f64;
    let events = count(|j| j.events);
    let ops = count(|j| j.ops);
    let messages = count(|j| j.messages);
    let run_s = sum(|j| j.run_s);
    let busy = sum(|j| j.job_s);
    let workers = ph.workers as f64;
    let untraced_s = (ph.untraced_s[0] + ph.untraced_s[1]) / 2.0;
    let mut job_ms: Vec<f64> = spans.iter().map(|j| j.job_s * 1e3).collect();
    job_ms.sort_by(f64::total_cmp);
    let fields = [
        ("sim.events", events),
        ("sim.queue_ns_per_op", queue_ns_per_op()),
        (
            "workloads.build_us_per_job",
            ratio(sum(|j| j.build_s) * 1e6, spans.len() as f64),
        ),
        ("machine.run_s", run_s),
        ("machine.ns_per_event", ratio(run_s * 1e9, events)),
        ("machine.stats_ms", sum(|j| j.stats_s) * 1e3),
        ("machine.ops", ops),
        ("machine.local_fraction", ratio(count(|j| j.local_ops), ops)),
        ("protocol.messages", messages),
        ("protocol.msgs_per_event", ratio(messages, events)),
        (
            "protocol.nak_ratio",
            ratio(count(|j| j.naks), count(|j| j.requests)),
        ),
        (
            "protocol.chain_mean",
            ratio(sum(|j| j.chain_sum), count(|j| j.chains)),
        ),
        ("mesh.send_ns", mesh_send_ns()),
        ("mesh.flits", count(|j| j.flits)),
        ("mesh.entry_wait_cycles", count(|j| j.entry_wait)),
        ("mesh.exit_wait_cycles", count(|j| j.exit_wait)),
        ("runner.jobs", runner.completed as f64),
        ("runner.cache_hits", runner.cache_hits as f64),
        ("runner.job_p50_ms", median(&job_ms)),
        ("runner.job_max_ms", job_ms.last().copied().unwrap_or(0.0)),
        ("runner.idle_s", workers * ph.traced_s - busy),
        ("runner.other_s", sum(|j| j.check_s) + ph.render_s),
        ("trace.coverage", ratio(sum(JobSpans::spanned_s), busy)),
        ("trace.overhead_s", ph.traced_s + ph.render_s - untraced_s),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The median of `n` samples of `f`.
fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    median(&samples)
}

/// `sim.queue_ns_per_op`: nanoseconds per `push_keyed` + `pop_keyed`
/// pair of the event queue in a hold model, the mean over 64 and 256
/// pending events, median of five passes.
fn queue_ns_per_op() -> f64 {
    median_of(5, || (hold_ns(64) + hold_ns(256)) / 2.0)
}

/// One hold-model pass: the queue keeps `pending` events; each step pops
/// the earliest and schedules a successor a few cycles later or, one
/// step in sixteen, beyond the time wheel.
fn hold_ns(pending: u64) -> f64 {
    const STEPS: u64 = 1 << 20;
    let mut rng = SimRng::new(pending);
    let mut queue = EventQueue::new();
    let mut key: u128 = 0;
    for i in 0..pending {
        queue.push_keyed(Cycle::new(rng.range(64)), key, i);
        key += 1;
    }
    let t = Instant::now();
    for _ in 0..STEPS {
        let (at, _, event) = queue.pop_keyed().expect("the hold model never drains");
        let delay = if rng.range(16) == 0 {
            1024 + rng.range(4096)
        } else {
            1 + rng.range(64)
        };
        queue.push_keyed(at + delay, key, black_box(event));
        key += 1;
    }
    t.elapsed().as_nanos() as f64 / STEPS as f64
}

/// `mesh.send_ns`: nanoseconds per `LatencyNetwork::send` replaying
/// `dsm_bench::traffic_trace` Hotspot and Uniform traffic on the paper's
/// 64-node mesh, the mean of the two, median of five passes.
fn mesh_send_ns() -> f64 {
    let cfg = MachineConfig::with_nodes(Scale::paper().procs);
    let traces = [TrafficPattern::Hotspot, TrafficPattern::Uniform]
        .map(|p| traffic_trace(p, cfg.nodes, 1 << 18, 7));
    median_of(5, || {
        let per_trace = traces.iter().map(|trace| {
            let mut net = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
            let t = Instant::now();
            for &(at, src, dst, flits) in trace {
                black_box(net.send(Cycle::new(at), NodeId::new(src), NodeId::new(dst), flits));
            }
            t.elapsed().as_nanos() as f64 / trace.len() as f64
        });
        per_trace.sum::<f64>() / traces.len() as f64
    })
}
