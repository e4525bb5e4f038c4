#!/usr/bin/env python3
"""Benchmark of `figures all --paper`, split into three workloads.

    python3 perfbench/run.py --workload contended|mcs|apps \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds the `figures` binary of
crates/bench and the `perfbench` binary of perfbench/ (a cargo package of
its own that calls the simulator's public API) into $CARGO_TARGET_DIR
(default .bench_build), then runs them in fresh processes, one after
another, with every DSM_* variable removed and the runner's worker count
set explicitly (1, or nproc for `apps`):

* --trace 0 (end to end): processes that regenerate the workload's
  sections of results_paper.txt and its CSV files follow one another,
  as many as fit in S seconds at the workload's nominal process time,
  at least two. A `perfbench setup` process, which constructs every
  job's machine in four samples, runs before the first of them and
  after the last; setup_s is the median over those eight samples of
  seconds per construction pass. The workload processes are
  `figures <artifacts> --paper` whenever `figures` can make the run:
  always for `apps`, whose inputs take no seed, and under DEFAULT_SEED
  for the others. Under any other seed they are `perfbench run`, which
  submits the same job lists to the runner with the seed in every
  counter job. wall_s and cpu_s are the least over those processes,
  sim_cycles_per_s the greatest; cpu_s comes from
  wait4, as does each process's peak RSS, which is recorded with the
  samples but is no metric: it varies by a third between identical
  processes.
* --trace 1 (per layer): one `perfbench trace` process runs the workload
  untraced, rebuilds and re-runs every job with spans around each layer
  call, runs it untraced again, cross-checks every job's cycles against
  runner::run_one, and reports the per-layer metrics.

Every process's outputs are checked. Table 1 and Figures 2 and 6 take no
seed and must match results_paper.txt and results_csv/ byte for byte. The
counter artifacts (Figures 3-5, scaling) take the seed as their machine
seed: under DEFAULT_SEED they must match the goldens too, under any other
seed they must repeat exactly across the run's processes. Job counts,
cache hits and, where the seed allows, simulated cycles, events and
messages must equal the values in WORKLOADS. A job that fails, or that
belongs to an artifact whose output differs, counts as failed.

The last line of stdout is the JSON result; the line before it records
the host (nproc, load average), the commit and the per-process samples.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The simulator's default machine seed: the goldens were made with it.
DEFAULT_SEED = 0x5EED
CHILD_LIMIT_S = 170
MIN_PROCESSES = 2
# How each end-to-end timing is taken from the run's workload processes.
BEST = dict(wall_s=min, cpu_s=min, sim_cycles_per_s=max)
# The summary `figures` ends its stderr with.
FIGURES_TOTAL = re.compile(r"(\d+) jobs simulated, (\d+) cache hits, (\d+) cycles\]")

# Jobs each artifact requests, in the order `figures all` prints them.
ARTIFACT_JOBS = {
    "table1": 7,
    "fig2": 9,
    "fig3": 210,
    "fig4": 210,
    "fig5": 210,
    "fig6": 63,
    "scaling": 30,
}
SEEDLESS = {"table1", "fig2", "fig6"}
HEADINGS = {
    "table1": "## Table 1 ",
    "fig2": "## Figure 2 ",
    "fig3": "## Figure 3 ",
    "fig4": "## Figure 4 ",
    "fig5": "## Figure 5 ",
    "fig6": "## Figure 6 ",
    "scaling": "## Scaling sweep ",
}

# What a run of each workload must report. `cycles`, `events` and
# `messages` hold for the default seed, and for any seed when the
# workload is not `seeded`. `nominal_s` is about one process's wall
# seconds on a 2-core host; it sets how many processes a run makes.
WORKLOADS = {
    "contended": dict(
        artifacts=["table1", "fig3", "fig4", "scaling"],
        parallel=False,
        nominal_s=11,
        seeded=True,
        jobs=457,
        cache_hits=0,
        cycles=228_566_809,
        events=76_870_383,
        messages=28_942_686,
    ),
    "mcs": dict(
        artifacts=["fig5"],
        parallel=False,
        nominal_s=25,
        seeded=True,
        jobs=210,
        cache_hits=0,
        cycles=98_126_843,
        events=253_102_139,
        messages=12_582_363,
    ),
    "apps": dict(
        artifacts=["fig2", "fig6"],
        parallel=True,
        nominal_s=19,
        seeded=False,
        jobs=63,
        cache_hits=9,
        cycles=60_783_290,
        events=382_551_410,
        messages=9_018_109,
    ),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment without any DSM_* knob or the scale override."""
    return {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("DSM_") and k != "ATOMIC_DSM_PAPER"
    }


def build(env):
    """Builds `figures` from the repository's workspace and `perfbench`
    from perfbench/. Returns the target directory and the two binaries."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    cargo = ["cargo", "build", "--release", "--offline", "--manifest-path"]
    for manifest, extra in (
        ("Cargo.toml", ["-p", "dsm-bench", "--bin", "figures"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        done = subprocess.run(
            cargo + [os.path.join(ROOT, manifest)] + extra,
            cwd=ROOT,
            env=dict(env, CARGO_TARGET_DIR=target),
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail(f"building {manifest} failed")
    release = os.path.join(target, "release")
    return target, os.path.join(release, "figures"), os.path.join(release, "perfbench")


def perfbench_summary(stderr):
    """The JSON object on the last `{` line of a `perfbench` process's stderr."""
    lines = [line for line in stderr.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def figures_summary(spec):
    """A parser for the `[total: ...]` line `figures` ends its stderr
    with, as the counts `perfbench` reports. `figures` stops at the first
    failed job, so a run that ends at all failed none."""

    def parse(stderr):
        found = FIGURES_TOTAL.findall(stderr)
        if not found:
            return None
        jobs, hits, cycles = map(int, found[-1])
        return dict(
            requests=sum(ARTIFACT_JOBS[a] for a in spec["artifacts"]),
            failed=0,
            jobs=jobs,
            cache_hits=hits,
            cycles=cycles,
        )

    return parse


def spawn(argv, env, out_dir, summarize=perfbench_summary):
    """Runs one process to completion. Returns its stdout, the counts
    `summarize` reads from its stderr, and wall seconds, user+sys seconds
    and peak RSS from wait4."""
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "stdout")
    err_path = os.path.join(out_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    summary = summarize(stderr)
    if proc.returncode != 0 or summary is None:
        sys.stderr.write(stderr[-4000:])
        name = os.path.basename(argv[0])
        fail(f"`{name} {' '.join(argv[1:4])}` exited with status {proc.returncode}")
    return dict(
        stdout=stdout,
        summary=summary,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def split_sections(text):
    """Splits `figures` output into its header and {artifact: section}."""
    header, sections, current = [], {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("## "):
            current = next((a for a, h in HEADINGS.items() if line.startswith(h)), line)
            sections[current] = ""
        if current is None:
            header.append(line)
        else:
            sections[current] += line
    return "".join(header), sections


def load_goldens():
    with open(os.path.join(ROOT, "results_paper.txt"), encoding="utf-8") as f:
        header, sections = split_sections(f.read())
    csvs = {}
    for art in ARTIFACT_JOBS:
        with open(os.path.join(ROOT, "results_csv", f"{art}.csv"), encoding="utf-8") as f:
            csvs[art] = f.read()
    return header, sections, csvs


def check_outputs(spec, seed, stdout, csv_dir, goldens, reference):
    """Compares one process's rendered sections and CSV files with the
    goldens, or, for seeded artifacts under another seed, with `reference`
    (the run's first process). Returns (outputs, mismatched artifacts)."""
    header, sections = split_sections(stdout)
    golden_header, golden_sections, golden_csvs = goldens
    outputs, bad = {}, []
    for art in spec["artifacts"]:
        path = os.path.join(csv_dir, f"{art}.csv")
        csv = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                csv = f.read()
        got = (sections.get(art), csv)
        outputs[art] = got
        if seed == DEFAULT_SEED or art in SEEDLESS:
            want = (golden_sections[art], golden_csvs[art])
        elif reference is not None:
            want = reference[art]
        else:
            want = got
        if None in got or got != want:
            bad.append(art)
    if header != golden_header:
        bad = list(spec["artifacts"])
    return outputs, bad


def check_counts(spec, seed, summary, layers=None):
    """Problems with the counts a process reported, as messages."""
    exact = seed == DEFAULT_SEED or not spec["seeded"]
    want = {
        "requests": sum(ARTIFACT_JOBS[a] for a in spec["artifacts"]),
        "jobs": spec["jobs"],
        "cache_hits": spec["cache_hits"],
    }
    got = dict(summary)
    if exact:
        want["cycles"] = spec["cycles"]
        if layers is not None:
            for key, name in (("events", "sim.events"), ("messages", "protocol.messages")):
                if spec[key] is not None:
                    want[key] = spec[key]
                    got[key] = layers[name]
    return [f"{k} = {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]


def failed_jobs(summary, bad):
    return summary["failed"] + sum(ARTIFACT_JOBS[a] for a in bad)


def workload_process(ctx, csv_dir):
    """The argv and stderr parser of one end-to-end process: `figures`
    itself when it can make the run, else `perfbench run`."""
    spec, jobs = ctx["spec"], str(ctx["workers"])
    if ctx["seed"] == DEFAULT_SEED or not spec["seeded"]:
        argv = [ctx["figures"], *spec["artifacts"], "--paper", "--jobs", jobs]
        summarize = figures_summary(spec)
    else:
        argv = [ctx["perfbench"], "run", *ctx["common"], "--jobs", jobs]
        summarize = perfbench_summary
    return argv + ["--csv", csv_dir], summarize


def setup_samples(ctx):
    """One `perfbench setup` process's samples of seconds per
    construction pass.

    glibc serves a large allocation either from fresh mmap pages or from
    the heap, and moves the threshold between the two as blocks are
    freed, so the order of frees alone changed a pass by 10-17x. The
    threshold is pinned at glibc's dynamic maximum (32 MiB): every
    sample then reuses the heap, and setup_s follows the builders'
    work."""
    setup = spawn(
        [ctx["perfbench"], "setup", *ctx["common"]],
        dict(ctx["env"], MALLOC_MMAP_THRESHOLD_=str(32 << 20)),
        os.path.join(ctx["runs_dir"], "setup"),
    )
    return setup["summary"]["setup_s"]


def process_count(spec, seconds):
    """How many workload processes a run of `seconds` makes: as many as
    fit at the workload's nominal process time, at least MIN_PROCESSES.
    The count depends on nothing measured, so a faster or slower program
    gets the same number of tries at its fastest time."""
    return max(MIN_PROCESSES, int(seconds // spec["nominal_s"]))


def end_to_end(ctx):
    # A `setup` process runs before the first workload process and after
    # the last, so set-up is sampled at both ends of the run.
    samples, rss_mb, reference, problems = [], [], None, []
    attempted = failed = 0
    setup_s = setup_samples(ctx)
    for _ in range(process_count(ctx["spec"], ctx["seconds"])):
        out_dir = os.path.join(ctx["runs_dir"], f"run{len(samples)}")
        csv_dir = os.path.join(out_dir, "csv")
        os.makedirs(csv_dir)
        argv, summarize = workload_process(ctx, csv_dir)
        proc = spawn(argv, ctx["env"], out_dir, summarize)
        summary = proc["summary"]
        outputs, bad = check_outputs(
            ctx["spec"], ctx["seed"], proc["stdout"], csv_dir, ctx["goldens"], reference
        )
        reference = reference or outputs
        problems += check_counts(ctx["spec"], ctx["seed"], summary)
        problems += [f"{a} output differs" for a in bad]
        attempted += summary["requests"]
        failed += failed_jobs(summary, bad)
        samples.append(
            dict(
                wall_s=proc["wall"],
                cpu_s=proc["cpu"],
                sim_cycles_per_s=summary["cycles"] / proc["wall"],
            )
        )
        rss_mb.append(proc["rss_mb"])
        shutil.rmtree(out_dir)
    setup_s += setup_samples(ctx)
    # Neighbours on a shared host only ever slow a process down, so the
    # best value over the run's processes is the steadiest estimate of
    # the program's own cost.
    metrics = {k: best(s[k] for s in samples) for k, best in BEST.items()}
    metrics["setup_s"] = statistics.median(setup_s)
    samples.append(
        dict(
            program=os.path.basename(argv[0]),
            peak_rss_mb=rss_mb,
            setup_samples_s=setup_s,
        )
    )
    return metrics, attempted, failed, problems, samples


def per_layer(ctx):
    out_dir = os.path.join(ctx["runs_dir"], "trace")
    csv_dir = os.path.join(out_dir, "csv")
    os.makedirs(csv_dir)
    proc = spawn(
        [ctx["perfbench"], "trace", *ctx["common"], "--jobs", str(ctx["workers"]),
         "--csv", csv_dir],
        ctx["env"],
        out_dir,
    )
    summary = proc["summary"]
    layers = summary["layers"]
    _, bad = check_outputs(
        ctx["spec"], ctx["seed"], proc["stdout"], csv_dir, ctx["goldens"], None
    )
    problems = check_counts(ctx["spec"], ctx["seed"], summary, layers)
    problems += [f"{a} output differs" for a in bad]
    if summary["traced_jobs"] == 0:
        problems.append("the traced pass ran no job")
    attempted = summary["requests"]
    failed = failed_jobs(summary, bad) + summary["mismatches"]
    metrics = dict(layers, fail_ratio=failed / attempted)
    return metrics, attempted, failed, problems, [dict(wall_s=proc["wall"])]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 unsigned bits")
    for path in ("Cargo.toml", "crates", "results_paper.txt", "results_csv", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail(f"{path} is missing: run from the root of a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    spec = WORKLOADS[args.workload]
    env = clean_env()
    target, figures, perfbench = build(env)
    nproc = len(os.sched_getaffinity(0))
    ctx = dict(
        figures=figures,
        perfbench=perfbench,
        env=env,
        spec=spec,
        seed=args.seed,
        seconds=args.seconds,
        workers=nproc if spec["parallel"] else 1,
        goldens=load_goldens(),
        common=["--workload", args.workload, "--seed", str(args.seed)],
        runs_dir=os.path.join(target, "perfbench-runs", str(os.getpid())),
    )
    try:
        metrics, attempted, failed, problems, samples = (
            per_layer(ctx) if args.trace else end_to_end(ctx)
        )
    finally:
        shutil.rmtree(ctx["runs_dir"], ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    context = dict(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        workers=ctx["workers"],
        nproc=nproc,
        loadavg=os.getloadavg(),
        commit=commit(),
        source_sha256=source_digest(),
        samples=samples,
    )
    print(json.dumps(dict(context=context)))
    result = dict(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={m["name"]: dict(value=metrics[m["name"]], unit=m["unit"]) for m in declared},
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
