//! Regenerates the paper's tables and figures from the simulator.
//!
//! ```sh
//! cargo run --release -p dsm-bench --bin figures -- all
//! cargo run --release -p dsm-bench --bin figures -- fig3 --paper      # 64 processors
//! cargo run --release -p dsm-bench --bin figures -- table1 fig6
//! cargo run --release -p dsm-bench --bin figures -- all --csv out/    # also write CSV
//! ```
//!
//! Artifacts: `table1`, `fig2`–`fig6`, `scaling`, `scaling-xl`,
//! `lockfree`, `latency`, `metrics`, `modern`, `ablations`, `all`
//! (`all` regenerates the committed paper artifacts and deliberately
//! excludes `scaling-xl`, `lockfree`, `latency`, `metrics`, `modern`
//! and `ablations` — request those tables by name). `scaling-xl`
//! extends the scaling sweep to the beyond-paper 256- and 1024-node
//! machines. `modern` is the modern-architecture ablation — "Table 1
//! on a 2020s machine" (see RESULTS.md): chain tables, counter sweeps
//! and a false-sharing table across the MESI(F)/NUMA/hierarchical/
//! wide-line variant matrix plus home-node atomics. `ablations` checks
//! the paper's modelling choices in five fixed-configuration tables
//! (mesh model, LL/SC reservation schemes, drop_copy, latency
//! crossover, trace-driven simulation), one CSV file each.
//! `--proto=SPEC` instead applies one variant spec (the `DSM_PROTO`
//! grammar, e.g. `--proto=hier,clusters=4,penalty=32`) to every
//! machine of the *requested* baseline artifacts.
//! `--paper` runs at the paper's 64-processor scale (slower); the
//! default is a 16-processor scale with the same shape. `--csv DIR`
//! additionally writes one CSV file per artifact into DIR; `--bars`
//! renders each counter graph as an ASCII bar chart (the paper's
//! figures are bar charts); `--jobs N` pins the experiment runner's
//! worker count (default: `DSM_JOBS` or the machine's parallelism —
//! output is identical either way, only wall-clock changes).
//! `--faults[=SPEC]` turns on deterministic fault injection and
//! `--paranoid` runs the protocol invariant checker after every
//! transition (see EXPERIMENTS.md — both off by default, leaving every
//! artifact byte-identical to a faults-free build); `--trace[=SPEC]`
//! captures a structured event trace of every simulated machine
//! (Perfetto JSON into `traces/` by default — see
//! `dsm_trace::TraceSpec` for the SPEC grammar). Trace files are
//! content-addressed and byte-identical across `--jobs` settings.
//! An unknown option or artifact exits 2 with the usage text on stderr
//! before anything runs.
//!
//! `figures repro FILE` replays a minimal reproducer artifact emitted
//! by the supervision layer (`DSM_REPRO_DIR`): it pins the recorded
//! fault configuration, protocol spec and minimal fault schedule, and
//! reports whether the recorded deterministic failure recurs.
//!
//! `figures analyze FILE...` runs the trace-analytics engine
//! (`dsm-analyze`) over binary ring dumps captured with
//! `--trace=ring:...,cat:...` (the categories must include `span` and
//! `msg`): per-operation latency percentiles, an additive
//! critical-path decomposition, the hottest lines with contention
//! timelines, and LL/SC retry-storm detection. `--csv DIR` also
//! writes `analyze_latency.csv` / `analyze_decomposition.csv`.

use atomic_dsm::experiments::{
    ablations, apps, counters, latency, lockfree, metrics, modern, paper_bars, runner, scaling,
    table1, CounterKind,
};
use atomic_dsm::machine::RunEnv;
use atomic_dsm::sim::{FaultConfig, ProtoSpec};
use atomic_dsm::trace::TraceSpec;
use dsm_bench::scale;
use std::path::PathBuf;
use std::time::Instant;

/// Every artifact name `figures` accepts.
const ARTIFACTS: [&str; 14] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "scaling",
    "scaling-xl",
    "lockfree",
    "latency",
    "metrics",
    "modern",
    "ablations",
    "all",
];

const USAGE: &str = "usage: figures [ARTIFACT...] [--paper] [--bars] [--csv DIR] [--jobs N] \
[--faults[=SPEC]] [--paranoid] [--trace[=SPEC]] [--proto=SPEC]
       figures repro FILE
       figures analyze FILE... [--csv DIR]";

/// Reports a command-line error with the usage text and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    eprintln!("{USAGE}");
    eprintln!("artifacts: {}", ARTIFACTS.join(" "));
    std::process::exit(2);
}

fn write_csv(dir: &Option<PathBuf>, name: &str, rows: &[Vec<String>]) {
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create csv output dir");
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, atomic_dsm::stats::render_csv(rows)).expect("write csv");
    eprintln!("wrote {}", path.display());
}

/// `figures repro FILE`: replays a minimal reproducer emitted by the
/// supervision layer (see `DSM_REPRO_DIR` in EXPERIMENTS.md). Exit 0
/// when the recorded deterministic failure recurs, 1 when it does not,
/// 2 on an unreadable artifact.
fn replay_reproducer(path: &str) -> ! {
    use atomic_dsm::experiments::repro;
    let rep = match repro::load(std::path::Path::new(path)) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };
    println!("job:      {:?}", rep.job);
    println!(
        "faults:   {} paranoid={}",
        rep.env.faults.to_spec(),
        rep.env.faults.paranoid
    );
    println!("proto:    {:?}", rep.env.proto);
    match (&rep.filter, rep.allowed_faults()) {
        (Some(ranges), Some(n)) => println!("filter:   {n} fault(s) allowed, ranges {ranges:?}"),
        _ => println!("filter:   none (all drawn faults apply)"),
    }
    println!("recorded: {}", rep.message);
    match repro::replay(&rep) {
        Ok(r) if r.reproduced => {
            println!("replayed: {}", r.message);
            println!("REPRODUCED");
            std::process::exit(0);
        }
        Ok(r) => {
            println!("replayed: {}", r.message);
            println!("NOT REPRODUCED");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    }
}

/// `figures analyze FILE... [--csv DIR]`: runs the trace-analytics
/// engine over binary ring dumps and prints the latency/critical-path
/// report. Exit 0 on success, 2 on an unreadable file.
fn analyze_traces(args: &[String]) -> ! {
    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let mut skip_next = false;
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--csv" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .collect();
    if files.is_empty() {
        eprintln!("usage: figures analyze FILE... [--csv DIR]");
        std::process::exit(2);
    }
    let analysis = match dsm_analyze::Analysis::from_files(&files) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", analysis.report());
    write_csv(&csv_dir, "analyze_latency", &analysis.latency_rows());
    write_csv(
        &csv_dir,
        "analyze_decomposition",
        &analysis.decomposition_rows(),
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repro") {
        match args.get(1) {
            Some(path) => replay_reproducer(path),
            None => {
                eprintln!("usage: figures repro FILE");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("analyze") {
        analyze_traces(&args[1..]);
    }
    // Everything is validated before any artifact runs, so a typo never
    // costs a partial sweep: an unknown flag or artifact exits 2 with
    // the usage line and nothing on stdout. The flags refine the run
    // environment read from `DSM_*`, which then scopes every job.
    let mut env = RunEnv::from_env().unwrap_or_else(|e| usage_error(&e));
    let mut paper = false;
    let mut bars_mode = false;
    let mut csv_dir: Option<PathBuf> = None;
    // `--faults[=SPEC]` replaces the faults but keeps paranoid checking
    // (`--paranoid` or `DSM_PARANOID=1`).
    let mut paranoid = env.faults.paranoid;
    let mut wanted: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--paper" => paper = true,
            "--bars" => bars_mode = true,
            "--paranoid" => paranoid = true,
            "--faults" => env.faults = FaultConfig::light(),
            "--trace" => env.trace = Some(TraceSpec::default()),
            "--csv" => match rest.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => usage_error("--csv takes a directory"),
            },
            "--jobs" => match rest.next().map(|v| (v, v.parse::<usize>())) {
                Some((_, Ok(n))) => env.jobs = Some(n.max(1)),
                Some((v, Err(_))) => {
                    usage_error(&format!("--jobs takes a positive integer, got `{v}`"))
                }
                None => usage_error("--jobs takes a positive integer"),
            },
            _ => {
                if let Some(spec) = a.strip_prefix("--faults=") {
                    match FaultConfig::from_spec(spec) {
                        Ok(f) => env.faults = f,
                        Err(e) => usage_error(&format!("--faults: {e}")),
                    }
                } else if let Some(spec) = a.strip_prefix("--trace=") {
                    match TraceSpec::from_spec(spec) {
                        Ok(t) => env.trace = Some(t),
                        Err(e) => usage_error(&format!("--trace: {e}")),
                    }
                } else if let Some(spec) = a.strip_prefix("--proto=") {
                    match ProtoSpec::from_spec(spec) {
                        Ok(p) => env.proto = p,
                        Err(e) => usage_error(&format!("--proto: {e}")),
                    }
                } else if a.starts_with('-') {
                    usage_error(&format!("unknown option `{a}`"));
                } else if ARTIFACTS.contains(&a.as_str()) {
                    wanted.push(a);
                } else {
                    usage_error(&format!("unknown artifact `{a}`"));
                }
            }
        }
    }
    // `scaling-xl`, `lockfree`, `latency`, `metrics`, `modern` and
    // `ablations` are deliberately NOT part of `all`: the committed
    // paper artifacts (results_paper.txt, results_csv/) must stay
    // byte-identical. Request those tables by name.
    env.faults.paranoid = paranoid;
    let workers = env.workers();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec!["table1", "fig2", "fig3", "fig4", "fig5", "fig6", "scaling"]
    } else {
        wanted
    };
    let s = scale(paper);
    println!(
        "# atomic-dsm figure harness — {} processors ({} scale)\n",
        s.procs,
        if s.procs == 64 { "paper" } else { "quick" }
    );

    let started = Instant::now();
    let run_artifacts = || {
        for &artifact in &wanted {
            let t = Instant::now();
            match artifact {
                "table1" => {
                    println!("## Table 1 — serialized network messages for stores\n");
                    let mut rows = vec![vec![
                        "scenario".to_string(),
                        "paper".to_string(),
                        "measured".to_string(),
                    ]];
                    for r in table1::run() {
                        rows.push(vec![
                            r.scenario.to_string(),
                            r.paper.to_string(),
                            r.measured.to_string(),
                        ]);
                    }
                    println!("{}", atomic_dsm::stats::render_table(&rows));
                    write_csv(&csv_dir, "table1", &rows);
                }
                "fig2" => {
                    println!("## Figure 2 — contention histograms (p={})\n", s.procs);
                    let runs = apps::fig2(&s);
                    println!("{}", apps::render_fig2(&runs));
                    let mut rows = vec![vec![
                        "app".to_string(),
                        "policy".to_string(),
                        "level".to_string(),
                        "percentage".to_string(),
                    ]];
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
                    write_csv(&csv_dir, "fig2", &rows);
                }
                f @ ("fig3" | "fig4" | "fig5") => {
                    let kind = match f {
                        "fig3" => CounterKind::LockFree,
                        "fig4" => CounterKind::TtsLock,
                        _ => CounterKind::McsLock,
                    };
                    println!(
                        "## Figure {} — average cycles per {} counter update (p={})\n",
                        &f[3..],
                        kind.label(),
                        s.procs
                    );
                    let graphs = counters::run_figure(kind, &paper_bars(), &s);
                    println!("{}", counters::render(kind, &graphs));
                    if bars_mode {
                        for g in &graphs {
                            let title = if g.contention == 1 {
                                format!("p={} c=1 a={}", s.procs, g.write_run)
                            } else {
                                format!("p={} c={}", s.procs, g.contention)
                            };
                            println!("{title}");
                            let data: Vec<(String, f64)> = g
                                .points
                                .iter()
                                .map(|p| (p.bar.label(), p.avg_cycles))
                                .collect();
                            println!("{}", atomic_dsm::stats::render_bar_chart(&data, 50));
                        }
                    }
                    let mut rows = vec![vec![
                        "implementation".to_string(),
                        "contention".to_string(),
                        "write_run".to_string(),
                        "avg_cycles".to_string(),
                    ]];
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
                    write_csv(&csv_dir, f, &rows);
                }
                "fig6" => {
                    println!(
                        "## Figure 6 — total elapsed cycles per application (p={})\n",
                        s.procs
                    );
                    let runs = apps::fig6(&paper_bars(), &s);
                    println!("{}", apps::render_fig6(&runs));
                    let mut rows = vec![vec![
                        "app".to_string(),
                        "implementation".to_string(),
                        "total_cycles".to_string(),
                    ]];
                    for r in &runs {
                        rows.push(vec![
                            r.app.label().to_string(),
                            r.bar.label(),
                            r.cycles.to_string(),
                        ]);
                    }
                    write_csv(&csv_dir, "fig6", &rows);
                }
                "scaling" => {
                    println!(
                        "## Scaling sweep — fully contended lock-free counter, 2..64 processors\n"
                    );
                    let lines = scaling::run_scaling(CounterKind::LockFree, s.rounds.min(32));
                    println!("{}", scaling::render(&lines));
                    let mut rows = vec![vec![
                        "implementation".to_string(),
                        "procs".to_string(),
                        "avg_cycles".to_string(),
                    ]];
                    for line in &lines {
                        for (p, pt) in &line.points {
                            rows.push(vec![
                                line.bar.label(),
                                p.to_string(),
                                format!("{:.2}", pt.avg_cycles),
                            ]);
                        }
                    }
                    write_csv(&csv_dir, "scaling", &rows);
                }
                "scaling-xl" => {
                    println!(
                        "## Scaling sweep (XL) — fully contended lock-free counter, 256/1024 processors\n"
                    );
                    // Few rounds: at 1024 fully-contended processors each
                    // round is already ~1k counter updates.
                    let lines = scaling::run_scaling_on(
                        CounterKind::LockFree,
                        s.rounds.min(4),
                        &scaling::PROCS_XL,
                    );
                    println!("{}", scaling::render(&lines));
                    let mut rows = vec![vec![
                        "implementation".to_string(),
                        "procs".to_string(),
                        "avg_cycles".to_string(),
                    ]];
                    for line in &lines {
                        for (p, pt) in &line.points {
                            rows.push(vec![
                                line.bar.label(),
                                p.to_string(),
                                format!("{:.2}", pt.avg_cycles),
                            ]);
                        }
                    }
                    write_csv(&csv_dir, "scaling_xl", &rows);
                }
                "lockfree" => {
                    println!(
                        "## Lock-free structures — cycles per operation (p={})\n",
                        s.procs
                    );
                    let tables = lockfree::run_tables(&s);
                    println!("{}", lockfree::render(&tables));
                    let mut rows = vec![vec![
                        "structure".to_string(),
                        "primitive".to_string(),
                        "policy".to_string(),
                        "ops".to_string(),
                        "avg_cycles".to_string(),
                    ]];
                    for t in &tables {
                        for p in &t.points {
                            rows.push(vec![
                                t.structure.label().to_string(),
                                p.prim.label().to_string(),
                                p.policy.label().to_string(),
                                p.ops.to_string(),
                                format!("{:.2}", p.avg_cycles),
                            ]);
                        }
                    }
                    write_csv(&csv_dir, "lockfree", &rows);
                }
                "latency" => {
                    println!(
                        "## Operation latency — cycles per op, p50/p90/p99/p99.9 (p={})\n",
                        s.procs
                    );
                    let rows = latency::run(&s);
                    println!("{}", latency::render(&rows));
                    write_csv(&csv_dir, "latency", &latency::csv_rows(&rows));
                }
                "metrics" => {
                    println!("## Per-node mesh/protocol metrics (p={})\n", s.procs);
                    let runs = metrics::run(&s);
                    println!("{}", metrics::render(&runs));
                    write_csv(&csv_dir, "metrics", &metrics::csv_rows(&runs));
                }
                "modern" => {
                    println!(
                        "## Modern-architecture ablation — \"Table 1 on a 2020s machine\" (p={})\n",
                        s.procs
                    );
                    let report = modern::run(&s);
                    println!("{}", modern::render(&report));
                    write_csv(&csv_dir, "modern", &modern::csv_rows(&report));
                }
                "ablations" => {
                    println!("## Ablations — the paper's modelling choices, checked\n");
                    let tables = ablations::run();
                    print!("{}", ablations::render(&tables));
                    for t in &tables {
                        write_csv(&csv_dir, t.name, &t.rows);
                    }
                }
                other => unreachable!("artifact `{other}` passed validation"),
            }
            eprintln!("[{artifact}: {:.2}s]", t.elapsed().as_secs_f64());
        }
    };
    RunEnv::scope(env, run_artifacts);
    let st = runner::stats();
    eprintln!(
        "[total: {:.2}s on {} worker(s) — {} jobs simulated, {} cache hits, {} cycles]",
        started.elapsed().as_secs_f64(),
        workers,
        st.completed,
        st.cache_hits,
        st.cycles_simulated
    );
}
