//! Helpers for the `figures` binary. The experiments themselves live in
//! `atomic_dsm::experiments`; the traffic generator of the mesh ablation
//! is re-exported here for the `perfbench` harness.

#![warn(missing_docs)]

use atomic_dsm::experiments::Scale;

pub use atomic_dsm::experiments::ablations::{traffic_trace, TrafficPattern};

/// Picks the experiment scale: `Scale::paper()` when `paper` is true,
/// else a CI-friendly quick scale.
pub fn scale(paper: bool) -> Scale {
    if paper {
        Scale::paper()
    } else {
        Scale::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selection() {
        assert_eq!(scale(true).procs, 64);
        assert_eq!(scale(false).procs, 16);
    }
}
