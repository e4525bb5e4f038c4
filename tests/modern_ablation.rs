//! Regression tests for the modern-architecture ablation (`figures
//! modern` — see RESULTS.md): the whole artifact must be byte-identical
//! across experiment-runner worker counts (`--jobs`), and the directed
//! false-sharing workload must diverge under cache-coherent atomics
//! while converging under home-node atomics.

use atomic_dsm::experiments::{modern, runner, Scale};

fn tiny() -> Scale {
    Scale {
        procs: 8,
        rounds: 8,
        tc_size: 8,
        wires: 16,
        tasks: 16,
    }
}

/// The complete rendered artifact plus its CSV form, regenerated from
/// scratch (cache cleared) at the given runner worker count.
fn artifact(jobs: usize) -> (String, String) {
    runner::with_workers(jobs, || {
        runner::clear_cache();
        let report = modern::run(&tiny());
        let csv: Vec<String> = modern::csv_rows(&report)
            .into_iter()
            .map(|r| r.join(","))
            .collect();
        (modern::render(&report), csv.join("\n"))
    })
}

/// The acceptance criterion verbatim: `figures modern` emits its
/// tables deterministically — byte-identical across `--jobs 1` and
/// `--jobs 8`.
#[test]
fn modern_artifact_is_bitwise_identical_across_jobs() {
    let serial = artifact(1);
    let parallel = artifact(8);
    assert_eq!(
        serial, parallel,
        "runner worker count changed the modern artifact"
    );
}

/// The directed false-sharing regression: two privately-owned counters
/// packed into one cache line vs split across lines. Cache-coherent
/// atomics must pay a clear ping-pong penalty for packing; home-node
/// atomics (which never migrate the line) must not care.
#[test]
fn false_sharing_penalty_exists_under_cc_and_vanishes_under_home_atomics() {
    let rows = modern::false_sharing(8, 32);
    let get = |label: &str| {
        rows.iter()
            .find(|r| r.implementation == label)
            .unwrap_or_else(|| panic!("missing row {label}"))
    };
    let cc = get("INV FAP");
    let unc = get("UNC FAP");
    let hna = get("INV FAP @home");
    assert!(
        cc.same_line > cc.split_line * 1.8,
        "CC: packed ({:.1}) must clearly exceed split ({:.1})",
        cc.same_line,
        cc.split_line
    );
    for (name, row) in [("UNC", unc), ("home-atomic", hna)] {
        let ratio = row.same_line / row.split_line;
        assert!(
            (0.95..1.05).contains(&ratio),
            "{name}: packed ({:.1}) and split ({:.1}) must converge, ratio {ratio:.2}",
            row.same_line,
            row.split_line
        );
    }
    // And the modern point of the exercise: once the counters are
    // packed, home-node atomics beat the cache-coherent implementation
    // that the 1995 analysis recommends for low contention.
    assert!(
        hna.same_line < cc.same_line,
        "packed: home atomics ({:.1}) must beat CC ({:.1})",
        hna.same_line,
        cc.same_line
    );
}
