//! Benchmark driver for `figures all --paper`, split into three workloads
//! whose union is the whole command:
//!
//! | workload | artifacts | runner workers |
//! |---|---|---|
//! | `contended` | `table1 fig3 fig4 scaling` | 1 |
//! | `mcs` | `fig5` | 1 |
//! | `apps` | `fig2 fig6` | the host's parallelism |
//!
//! ```text
//! perfbench run   --workload NAME --seed N --jobs W --csv DIR
//! perfbench setup --workload NAME --seed N
//! perfbench trace --workload NAME --seed N --jobs W --csv DIR
//! ```
//!
//! * `run` regenerates the workload's sections of `results_paper.txt` on
//!   stdout and its CSV files into DIR, submitting the same job lists to
//!   the runner, one batch per artifact, as `figures` does, and ends
//!   stderr with a JSON line of the runner's counters. It exists for
//!   seeds `figures` cannot take; under the default seed `run.py` times
//!   `figures` itself.
//! * `setup` constructs every job's machine through the public workload
//!   builders once untimed, then in samples of at least half a second,
//!   and prints each sample's seconds per construction pass.
//! * `trace` does what `run` does, then rebuilds and re-runs every job
//!   with a span around each call into a layer (see [`layers`]), runs the
//!   workload untraced once more, and ends stderr with the counters plus
//!   the per-layer figures.
//!
//! `--seed` becomes every counter job's `MachineConfig::seed`, which is
//! part of the job key; the simulator's default machine seed (24301)
//! reproduces the committed goldens. Table 1 and the application jobs
//! carry no seed. `perfbench/run.py` drives these commands in a clean
//! environment and checks their outputs.

mod layers;

use atomic_dsm::experiments::apps::{self, App, AppRun};
use atomic_dsm::experiments::counters::{self, CounterGraph};
use atomic_dsm::experiments::runner::{self, Job, JobOutput};
use atomic_dsm::experiments::scaling::{self, ScalingLine};
use atomic_dsm::experiments::{paper_bars, table1, BarSpec, CounterKind, Scale};
use atomic_dsm::stats::{render_csv, render_table};
use atomic_dsm::{MachineConfig, Primitive, SyncPolicy};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// One artifact of `figures all`.
#[derive(Debug, Clone, Copy)]
enum Artifact {
    Table1,
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Scaling,
}

/// A workload's artifacts, in the order `figures all` prints them.
fn workload_artifacts(name: &str) -> Option<&'static [Artifact]> {
    match name {
        "contended" => Some(&[
            Artifact::Table1,
            Artifact::Fig3,
            Artifact::Fig4,
            Artifact::Scaling,
        ]),
        "mcs" => Some(&[Artifact::Fig5]),
        "apps" => Some(&[Artifact::Fig2, Artifact::Fig6]),
        _ => None,
    }
}

fn counter_machine(procs: u32, seed: u64) -> MachineConfig {
    let mut mcfg = MachineConfig::with_nodes(procs);
    mcfg.seed = seed;
    mcfg
}

/// The `(c, a)` points of Figures 3–5 as `counters::run_figure` sweeps
/// them: the write-run graphs, then the distinct clamped contention
/// levels.
fn figure_points(s: &Scale) -> Vec<(u32, f64)> {
    let mut points: Vec<(u32, f64)> = counters::WRITE_RUNS.iter().map(|&a| (1, a)).collect();
    let mut levels = Vec::new();
    for c in counters::CONTENTION.map(|c| c.min(s.procs)) {
        if !levels.contains(&c) {
            levels.push(c);
            points.push((c, 1.0));
        }
    }
    points
}

fn header(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

impl Artifact {
    fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig4 => "fig4",
            Artifact::Fig5 => "fig5",
            Artifact::Fig6 => "fig6",
            Artifact::Scaling => "scaling",
        }
    }

    fn counter_kind(self) -> CounterKind {
        match self {
            Artifact::Fig3 => CounterKind::LockFree,
            Artifact::Fig4 => CounterKind::TtsLock,
            _ => CounterKind::McsLock,
        }
    }

    /// The job list `figures` submits for this artifact, with `seed` as
    /// every counter job's machine seed.
    fn jobs(self, s: Scale, seed: u64) -> Vec<Job> {
        match self {
            Artifact::Table1 => (0..table1::SCENARIOS).map(Job::table1).collect(),
            Artifact::Fig2 => App::ALL
                .into_iter()
                .flat_map(|app| {
                    SyncPolicy::ALL.into_iter().map(move |policy| {
                        Job::app(app, BarSpec::new(policy, Primitive::FetchPhi), s)
                    })
                })
                .collect(),
            Artifact::Fig3 | Artifact::Fig4 | Artifact::Fig5 => {
                let kind = self.counter_kind();
                let bars = paper_bars();
                figure_points(&s)
                    .into_iter()
                    .flat_map(|(c, a)| {
                        bars.iter().map(move |&bar| {
                            Job::counter(counter_machine(s.procs, seed), kind, bar, c, a, s.rounds)
                        })
                    })
                    .collect()
            }
            Artifact::Fig6 => {
                let bars = paper_bars();
                App::ALL
                    .into_iter()
                    .flat_map(|app| bars.iter().map(move |&bar| Job::app(app, bar, s)))
                    .collect()
            }
            Artifact::Scaling => scaling::scaling_bars()
                .into_iter()
                .flat_map(|bar| {
                    scaling::PROCS.iter().map(move |&p| {
                        let mcfg = counter_machine(p, seed);
                        Job::counter(mcfg, CounterKind::LockFree, bar, p, 1.0, s.rounds.min(32))
                    })
                })
                .collect(),
        }
    }

    /// This artifact's section of `results_paper.txt` and its CSV rows,
    /// rendered from the job results exactly as `figures` prints them.
    fn render(self, s: Scale, outputs: Vec<JobOutput>) -> (String, Vec<Vec<String>>) {
        let procs = s.procs;
        match self {
            Artifact::Table1 => {
                let mut rows = vec![header(&["scenario", "paper", "measured"])];
                for r in outputs.into_iter().map(JobOutput::into_table1) {
                    rows.push(vec![
                        r.scenario.to_string(),
                        r.paper.to_string(),
                        r.measured.to_string(),
                    ]);
                }
                let table = render_table(&rows);
                let section =
                    format!("## Table 1 — serialized network messages for stores\n\n{table}\n");
                (section, rows)
            }
            Artifact::Fig2 => {
                let runs: Vec<AppRun> = outputs.into_iter().map(JobOutput::into_app).collect();
                let mut rows = vec![header(&["app", "policy", "level", "percentage"])];
                for r in &runs {
                    for (level, _) in r.contention.iter() {
                        rows.push(vec![
                            r.app.label().to_string(),
                            r.bar.policy.label().to_string(),
                            level.to_string(),
                            format!("{:.4}", r.contention.percentage(level)),
                        ]);
                    }
                }
                let section = format!(
                    "## Figure 2 — contention histograms (p={procs})\n\n{}\n",
                    apps::render_fig2(&runs)
                );
                (section, rows)
            }
            Artifact::Fig3 | Artifact::Fig4 | Artifact::Fig5 => {
                let kind = self.counter_kind();
                let bars = paper_bars().len();
                let mut points = outputs.into_iter().map(JobOutput::into_counter);
                let graphs: Vec<CounterGraph> = figure_points(&s)
                    .into_iter()
                    .map(|(contention, write_run)| CounterGraph {
                        contention,
                        write_run,
                        points: points.by_ref().take(bars).collect(),
                    })
                    .collect();
                let mut rows = vec![header(&[
                    "implementation",
                    "contention",
                    "write_run",
                    "avg_cycles",
                ])];
                for g in &graphs {
                    for p in &g.points {
                        rows.push(vec![
                            p.bar.label(),
                            g.contention.to_string(),
                            g.write_run.to_string(),
                            format!("{:.2}", p.avg_cycles),
                        ]);
                    }
                }
                let section = format!(
                    "## Figure {} — average cycles per {} counter update (p={procs})\n\n{}\n",
                    &self.name()[3..],
                    kind.label(),
                    counters::render(kind, &graphs)
                );
                (section, rows)
            }
            Artifact::Fig6 => {
                let runs: Vec<AppRun> = outputs.into_iter().map(JobOutput::into_app).collect();
                let mut rows = vec![header(&["app", "implementation", "total_cycles"])];
                for r in &runs {
                    rows.push(vec![
                        r.app.label().to_string(),
                        r.bar.label(),
                        r.cycles.to_string(),
                    ]);
                }
                let section = format!(
                    "## Figure 6 — total elapsed cycles per application (p={procs})\n\n{}\n",
                    apps::render_fig6(&runs)
                );
                (section, rows)
            }
            Artifact::Scaling => {
                let mut points = outputs.into_iter().map(JobOutput::into_counter);
                let lines: Vec<ScalingLine> = scaling::scaling_bars()
                    .into_iter()
                    .map(|bar| ScalingLine {
                        bar,
                        points: scaling::PROCS
                            .iter()
                            .map(|&p| (p, points.next().expect("one result per job")))
                            .collect(),
                    })
                    .collect();
                let mut rows = vec![header(&["implementation", "procs", "avg_cycles"])];
                for line in &lines {
                    for (p, pt) in &line.points {
                        rows.push(vec![
                            line.bar.label(),
                            p.to_string(),
                            format!("{:.2}", pt.avg_cycles),
                        ]);
                    }
                }
                let section = format!(
                    "## Scaling sweep — fully contended lock-free counter, 2..64 processors\n\n{}\n",
                    scaling::render(&lines)
                );
                (section, rows)
            }
        }
    }
}

/// What one pass over a workload's artifacts produced.
struct Produced {
    /// The workload's slice of `results_paper.txt`, header included.
    text: String,
    /// Jobs requested, cache hits included.
    requests: usize,
    /// Jobs whose run failed.
    failed: usize,
}

/// Runs a workload's artifacts through the runner, one batch per
/// artifact, and renders them as `figures` does. An artifact with a
/// failed job renders nothing, so the output check counts it too.
fn produce(arts: &[Artifact], s: Scale, seed: u64, csv: Option<&Path>) -> Produced {
    let mut text = format!(
        "# atomic-dsm figure harness — {} processors (paper scale)\n\n",
        s.procs
    );
    let (mut requests, mut failed) = (0, 0);
    for &art in arts {
        let jobs = art.jobs(s, seed);
        requests += jobs.len();
        let mut outputs = Vec::with_capacity(jobs.len());
        for result in runner::try_run_all(&jobs) {
            match result {
                Ok(out) => outputs.push(out),
                Err(e) => {
                    failed += 1;
                    eprintln!("{e}");
                }
            }
        }
        if outputs.len() < jobs.len() {
            continue;
        }
        let (section, rows) = art.render(s, outputs);
        text.push_str(&section);
        if let Some(dir) = csv {
            let path = dir.join(format!("{}.csv", art.name()));
            std::fs::write(&path, render_csv(&rows))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }
    Produced {
        text,
        requests,
        failed,
    }
}

/// The jobs the runner simulates for each artifact, in its order: the
/// artifact's jobs that no earlier artifact ran, each once. Only jobs
/// whose machine the public workload builders construct are kept:
/// Table 1's directed micro-machines are driven by a private harness,
/// take microseconds, and are checked through the golden table instead.
fn batches(arts: &[Artifact], s: Scale, seed: u64) -> Vec<Vec<Job>> {
    let mut seen = HashSet::new();
    arts.iter()
        .map(|a| {
            a.jobs(s, seed)
                .into_iter()
                .filter(|j| !matches!(j, Job::Table1 { .. }) && seen.insert(j.clone()))
                .collect()
        })
        .collect()
}

/// The JSON fields every command that runs the workload reports: what
/// it asked for and the runner's counters at that point.
fn counts(p: &Produced) -> String {
    let st = runner::stats();
    format!(
        "\"requests\": {}, \"failed\": {}, \"jobs\": {}, \"cache_hits\": {}, \"cycles\": {}",
        p.requests, p.failed, st.completed, st.cache_hits, st.cycles_simulated
    )
}

/// Samples `setup` takes after an untimed warm-up pass; it prints each.
const SETUP_SAMPLES: usize = 4;
/// Least host seconds of construction passes in one setup sample.
const SETUP_SAMPLE_S: f64 = 0.5;

struct Args {
    workload: &'static [Artifact],
    seed: u64,
    jobs: usize,
    csv: Option<PathBuf>,
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} takes a positive integer, got `{value}`"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: &[],
        seed: MachineConfig::with_nodes(Scale::paper().procs).seed,
        jobs: 1,
        csv: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                parsed.workload = workload_artifacts(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (try contended, mcs or apps)")
                })?;
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got `{value}`"))?;
            }
            "--jobs" => parsed.jobs = positive(flag, value)?,
            "--csv" => parsed.csv = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// `trace`: the untraced pass of `run`, the traced pass over the same
/// jobs, a second untraced pass, then the layer microbenchmarks. The
/// untraced passes on either side of the traced one make its overhead
/// independent of which pass runs on a warmer process.
fn trace(args: &Args, s: Scale) {
    let untraced = |csv: Option<&Path>| {
        runner::clear_cache();
        let t = Instant::now();
        let p = runner::with_workers(args.jobs, || produce(args.workload, s, args.seed, csv));
        (p, t.elapsed().as_secs_f64())
    };
    let (first, before_s) = untraced(args.csv.as_deref());
    let runner_stats = runner::stats();
    let first_counts = counts(&first);
    print!("{}", first.text);

    // The runner fans out one artifact's cache misses at a time, so the
    // traced pass does too: workers idle at the barrier between two
    // artifacts as they do in `figures`.
    let batches = batches(args.workload, s, args.seed);
    let traced = Instant::now();
    let spans: Vec<layers::JobSpans> = batches
        .iter()
        .flat_map(|batch| {
            runner::fan_out(batch, args.jobs, |job| {
                layers::trace_job(job).expect("batches hold only rebuildable jobs")
            })
        })
        .collect();
    let traced_s = traced.elapsed().as_secs_f64();

    let (again, after_s) = untraced(None);
    let mut mismatches = 0;
    if again.text != first.text {
        mismatches += 1;
        eprintln!("the second untraced pass differs from the first");
    }
    let t = Instant::now();
    let cached = runner::with_workers(args.jobs, || produce(args.workload, s, args.seed, None));
    let render_s = t.elapsed().as_secs_f64();
    if cached.text != first.text {
        mismatches += 1;
        eprintln!("re-rendering from the result cache differs from the first pass");
    }

    // The rebuilt machine must be the one the runner simulated.
    for (job, span) in batches.iter().flatten().zip(&spans) {
        let cycles = match runner::try_run_one(job) {
            Ok(JobOutput::Counter(p)) => Some(p.cycles),
            Ok(JobOutput::App(r)) => Some(r.cycles),
            _ => None,
        };
        if span.error.is_some() || cycles != Some(span.cycles) {
            mismatches += 1;
            eprintln!(
                "traced rebuild disagrees with runner::run_one on {job:?}: {} vs {cycles:?} cycles ({:?})",
                span.cycles, span.error
            );
        }
    }
    let phases = layers::Phases {
        workers: args.jobs,
        untraced_s: [before_s, after_s],
        traced_s,
        render_s,
    };
    let report = layers::report(&spans, &phases, &runner_stats);
    eprintln!(
        "{{{first_counts}, \"traced_jobs\": {}, \"mismatches\": {mismatches}, \"layers\": {report}}}",
        spans.len()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench run|setup|trace --workload contended|mcs|apps \
                 [--seed N] [--jobs W] [--csv DIR]";
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        exit(2);
    };
    let args = parse(rest).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{usage}");
        exit(2)
    });
    let s = Scale::paper();
    match mode.as_str() {
        "run" => {
            let p = runner::with_workers(args.jobs, || {
                produce(args.workload, s, args.seed, args.csv.as_deref())
            });
            print!("{}", p.text);
            eprintln!("{{{}}}", counts(&p));
        }
        "setup" => {
            let jobs = batches(args.workload, s, args.seed).concat();
            layers::setup_sample(&jobs, 0.0);
            let samples: Vec<String> = (0..SETUP_SAMPLES)
                .map(|_| layers::setup_sample(&jobs, SETUP_SAMPLE_S).to_string())
                .collect();
            eprintln!("{{\"setup_s\": [{}]}}", samples.join(", "));
        }
        "trace" => trace(&args, s),
        other => {
            eprintln!("perfbench: unknown command `{other}`\n{usage}");
            exit(2);
        }
    }
}
