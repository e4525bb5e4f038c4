//! Simulator-throughput harness: the perf trajectory baseline.
//!
//! Runs a fixed workload basket (lock-free counter, MCS-lock counter,
//! a message-bound TTS-lock counter, one application kernel) through
//! the cycle-level engine and reports how fast the *simulator* is —
//! simulated cycles and discrete events per wall-clock second. The
//! simulated results themselves are deterministic; only the wall-clock
//! figures vary with the host. The printed table also splits each
//! workload's dispatched events by kind (`Wire`, `Deliver`, `Process`,
//! `ProcStep`, `OpDone`): the first three are coherence-message work.
//!
//! ```text
//! cargo run --release -p dsm-bench --bin throughput -- \
//!     [--quick] [--out BENCH_throughput.json] [--baseline FILE]
//! ```
//!
//! * `--quick`     reduced basket (16 processors) for CI smoke runs;
//! * `--out`       where to write the JSON report (default
//!   `BENCH_throughput.json` in the current directory);
//! * `--baseline`  a previous report whose `total.cycles_per_sec` is
//!   embedded as the "before" figure, together with the speedup;
//! * `--repeat N`  run each workload `N` times and report the fastest
//!   wall clock (default 1). The simulated results must be identical
//!   across repeats — the harness asserts it — so taking the minimum
//!   only filters out ambient host load;
//! * `--floor FILE --floor-pct N`  regression gate: exit 1 if this
//!   run's `total.cycles_per_sec` falls more than `N`% below the
//!   floor report's (default N = 15). CI points `--floor` at the
//!   committed `BENCH_throughput.json` so a perf regression fails the
//!   build while ambient host noise does not;
//! * `--trace[=SPEC]` capture a structured event trace of every
//!   workload machine (see `dsm_trace::TraceSpec` for the grammar).
//!   Tracing costs wall clock, so never pass it when refreshing the
//!   committed baseline.
//!
//! The report is a single JSON object: one entry per workload plus a
//! `total`, each `{sim_cycles, events, wall_ms, cycles_per_sec,
//! events_per_sec}`. Every workload runs one machine on one thread, so
//! the committed floor stays comparable across hosts with different
//! core counts.

use atomic_dsm::experiments::{BarSpec, CounterKind};
use atomic_dsm::machine::{Machine, RunEnv};
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{Cycle, MachineConfig};
use atomic_dsm::trace::TraceSpec;
use atomic_dsm::workloads::{
    build_synthetic, build_tclosure, sequential_closure, SyntheticConfig, TcConfig,
};
use atomic_dsm::Primitive;
use std::time::Instant;

const RUN_LIMIT: Cycle = Cycle::new(50_000_000_000);

/// One measured workload.
struct Measurement {
    name: &'static str,
    sim_cycles: u64,
    events: u64,
    /// Events the host dispatched: `events` minus the spin iterations
    /// that parking skipped. Printed, not written to the JSON report.
    dispatched: u64,
    /// `dispatched` split by event kind (see `Machine::dispatched_by_kind`).
    /// Printed, not written to the JSON report.
    by_kind: [(&'static str, u64); 5],
    wall_ms: f64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sim_cycles as f64 / (self.wall_ms / 1000.0)
    }

    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ms / 1000.0)
    }
}

/// Runs and times one built machine, so construction cost
/// (allocation, program setup) stays out of the clock.
fn measure(name: &'static str, mut machine: Machine, check: impl FnOnce(&Machine)) -> Measurement {
    let start = Instant::now();
    let report = machine.run(RUN_LIMIT).unwrap_or_else(|e| {
        panic!("throughput workload {name} failed: {e}");
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    check(&machine);
    let by_kind = machine.dispatched_by_kind();
    let dispatched = machine.events_dispatched();
    assert_eq!(
        by_kind.iter().map(|&(_, n)| n).sum::<u64>(),
        dispatched,
        "{name}: per-kind counts do not add up"
    );
    Measurement {
        name,
        sim_cycles: report.cycles.as_u64(),
        events: report.events,
        dispatched,
        by_kind,
        wall_ms,
    }
}

/// Runs `build` `repeat` times, keeping the fastest-wall-clock
/// measurement. Simulated cycle and event counts must not vary between
/// repeats (the engine is deterministic); anything else is a bug worth
/// failing the benchmark over.
fn best_of(repeat: u32, build: impl Fn() -> Measurement) -> Measurement {
    let mut best = build();
    for _ in 1..repeat {
        let next = build();
        assert_eq!(
            (next.sim_cycles, next.events, next.by_kind),
            (best.sim_cycles, best.events, best.by_kind),
            "{}: simulated results varied between repeats",
            best.name
        );
        if next.wall_ms < best.wall_ms {
            best = next;
        }
    }
    best
}

fn counter_workload(
    name: &'static str,
    kind: CounterKind,
    bar: &BarSpec,
    procs: u32,
    contention: u32,
    rounds: u64,
) -> Measurement {
    let scfg = SyntheticConfig {
        kind,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention,
        write_run: 1.0,
        rounds,
    };
    let (machine, layout) = build_synthetic(MachineConfig::with_nodes(procs), &scfg);
    let expected = scfg.total_updates(procs);
    measure(name, machine, move |m| {
        assert_eq!(
            m.read_word(layout.counter),
            expected,
            "{name}: counter lost updates"
        );
    })
}

fn tclosure_workload(name: &'static str, procs: u32, size: u64) -> Measurement {
    let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    let cfg = TcConfig {
        size,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        density: 0.15,
        seed: 1898,
    };
    let (machine, layout, input) = build_tclosure(MachineConfig::with_nodes(procs), &cfg);
    measure(name, machine, move |m| {
        let got = atomic_dsm::workloads::tclosure::read_matrix(m, &layout, cfg.size);
        assert_eq!(got, sequential_closure(&input), "{name}: closure mismatch");
    })
}

/// Extracts the number following `"<key>":` within the `"total"` object
/// of a previous report (good enough for our own output format; no JSON
/// dependency needed).
fn extract_total_field(json: &str, key: &str) -> Option<f64> {
    let total = json.find("\"total\"")?;
    let rest = &json[total..];
    let field = rest.find(&format!("\"{key}\""))?;
    let after = &rest[field..];
    let colon = after.find(':')?;
    let num: String = after[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
}

fn fmt_entry(m: &Measurement, indent: &str) -> String {
    format!(
        "{indent}{{\n{indent}  \"name\": \"{}\",\n{indent}  \"sim_cycles\": {},\n{indent}  \"events\": {},\n{indent}  \"wall_ms\": {:.3},\n{indent}  \"cycles_per_sec\": {:.0},\n{indent}  \"events_per_sec\": {:.0}\n{indent}}}",
        m.name,
        m.sim_cycles,
        m.events,
        m.wall_ms,
        m.cycles_per_sec(),
        m.events_per_sec()
    )
}

/// The workload basket, each workload the fastest of `repeat` runs
/// under the run environment in force (its trace spec included).
fn basket(repeat: u32, procs: u32, rounds: u64, tc_size: u64) -> [Measurement; 4] {
    let inv_phi = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
    let mcs = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    [
        best_of(repeat, || {
            counter_workload(
                "counter-lockfree",
                CounterKind::LockFree,
                &inv_phi,
                procs,
                4,
                rounds,
            )
        }),
        best_of(repeat, || {
            counter_workload("counter-mcs", CounterKind::McsLock, &mcs, procs, 4, rounds)
        }),
        // Figure 4's hardest point: every processor contends for one
        // TTS lock, and each release invalidates every spinning sharer,
        // so the run is coherence messages end to end. A quarter of the
        // rounds keeps it from outweighing the rest of the basket.
        best_of(repeat, || {
            counter_workload(
                "counter-tts",
                CounterKind::TtsLock,
                &inv_phi,
                procs,
                procs,
                rounds / 4,
            )
        }),
        best_of(repeat, || tclosure_workload("app-tclosure", procs, tc_size)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut floor_path: Option<String> = None;
    let mut floor_pct: f64 = 15.0;
    let mut repeat: u32 = 1;
    let mut env = RunEnv::from_env().unwrap_or_else(|e| {
        eprintln!("throughput: {e}");
        std::process::exit(2);
    });
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).expect("--baseline needs a path").clone());
            }
            "--floor" => {
                i += 1;
                floor_path = Some(args.get(i).expect("--floor needs a path").clone());
            }
            "--floor-pct" => {
                i += 1;
                floor_pct = args
                    .get(i)
                    .expect("--floor-pct needs a percentage")
                    .parse()
                    .expect("--floor-pct needs a number");
                assert!(
                    (0.0..100.0).contains(&floor_pct),
                    "--floor-pct needs a percentage in [0, 100)"
                );
            }
            "--repeat" => {
                i += 1;
                repeat = args
                    .get(i)
                    .expect("--repeat needs a count")
                    .parse()
                    .expect("--repeat needs a positive integer");
                assert!(repeat >= 1, "--repeat needs a positive integer");
            }
            "--trace" => env.trace = Some(TraceSpec::bare()),
            other if other.starts_with("--trace=") => {
                match TraceSpec::from_spec(&other["--trace=".len()..]) {
                    Ok(spec) => env.trace = Some(spec),
                    Err(e) => {
                        eprintln!("--trace: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: throughput [--quick] [--out FILE] [--baseline FILE] [--repeat N] \
                     [--floor FILE] [--floor-pct N] [--trace[=SPEC]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (procs, rounds, tc_size) = if quick { (16, 64, 12) } else { (64, 256, 32) };
    let scale_label = if quick { "quick" } else { "paper" };
    eprintln!("throughput basket: {procs} processors ({scale_label} scale)");

    let workloads = RunEnv::scope(env, || basket(repeat, procs, rounds, tc_size));

    let total = Measurement {
        name: "total",
        sim_cycles: workloads.iter().map(|m| m.sim_cycles).sum(),
        events: workloads.iter().map(|m| m.events).sum(),
        dispatched: workloads.iter().map(|m| m.dispatched).sum(),
        by_kind: std::array::from_fn(|k| {
            let name = workloads[0].by_kind[k].0;
            (name, workloads.iter().map(|m| m.by_kind[k].1).sum())
        }),
        wall_ms: workloads.iter().map(|m| m.wall_ms).sum(),
    };
    for m in workloads.iter().chain([&total]) {
        eprintln!(
            "  {:<18} {:>12} cycles  {:>10} events  {:>10} dispatched  {:>9.1} ms  {:>12.0} cyc/s  {:>11.0} ev/s",
            m.name,
            m.sim_cycles,
            m.events,
            m.dispatched,
            m.wall_ms,
            m.cycles_per_sec(),
            m.events_per_sec()
        );
    }
    eprintln!("  dispatched by kind:");
    for m in workloads.iter().chain([&total]) {
        let kinds: Vec<String> = m
            .by_kind
            .iter()
            .map(|(kind, n)| format!("{kind} {n:>10}"))
            .collect();
        eprintln!("  {:<18} {}", m.name, kinds.join("  "));
    }

    let mut baseline_block = String::new();
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let before_cps = extract_total_field(&text, "cycles_per_sec")
            .expect("baseline file has no total.cycles_per_sec");
        let before_eps = extract_total_field(&text, "events_per_sec").unwrap_or(0.0);
        let speedup = total.cycles_per_sec() / before_cps;
        eprintln!(
            "  baseline {before_cps:.0} cyc/s -> {:.0} cyc/s  (speedup {speedup:.2}x)",
            total.cycles_per_sec()
        );
        baseline_block = format!(
            ",\n  \"baseline\": {{\n    \"cycles_per_sec\": {before_cps:.0},\n    \"events_per_sec\": {before_eps:.0},\n    \"speedup\": {speedup:.2}\n  }}"
        );
    }

    let entries: Vec<String> = workloads.iter().map(|m| fmt_entry(m, "    ")).collect();
    let json = format!(
        "{{\n  \"scale\": \"{scale_label}\",\n  \"workloads\": [\n{}\n  ],\n  \"total\": {}{baseline_block}\n}}\n",
        entries.join(",\n"),
        fmt_entry(&total, "  ").trim_start()
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    if let Some(path) = &floor_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read floor {path}: {e}"));
        let floor_cps = extract_total_field(&text, "cycles_per_sec")
            .expect("floor file has no total.cycles_per_sec");
        let allowed = floor_cps * (1.0 - floor_pct / 100.0);
        let got = total.cycles_per_sec();
        if got < allowed {
            eprintln!(
                "PERF REGRESSION: total {got:.0} cyc/s is more than {floor_pct:.0}% below \
                 the floor {floor_cps:.0} cyc/s (allowed ≥ {allowed:.0})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "floor gate ok: {got:.0} cyc/s ≥ {allowed:.0} \
             ({floor_pct:.0}% slack under floor {floor_cps:.0})"
        );
    }
}
