//! Drivers that regenerate every table and figure of the paper.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (serialized messages per store) | [`table1::run`] |
//! | Figure 2 (contention histograms) | [`apps::fig2`] |
//! | Figure 3 (lock-free counter) | [`counters::run_figure`] with [`CounterKind::LockFree`] |
//! | Figure 4 (TTS-lock counter) | [`counters::run_figure`] with [`CounterKind::TtsLock`] |
//! | Figure 5 (MCS-lock counter) | [`counters::run_figure`] with [`CounterKind::McsLock`] |
//! | Figure 6 (application elapsed time) | [`apps::fig6`] |
//! | Scaling sweep (beyond the paper) | [`scaling::run_scaling`] |
//! | Lock-free structure tables (beyond the paper) | [`lockfree::run_tables`] |
//! | Modern-architecture ablation (beyond the paper) | [`modern::run`] |
//! | Modelling-choice ablations (beyond the paper) | [`ablations::run`] |
//!
//! Absolute cycle counts depend on latency constants the paper does not
//! publish; the quantities to compare are *shapes*: which bar wins,
//! where the crossovers fall (see EXPERIMENTS.md).

pub mod ablations;
pub mod apps;
pub mod counters;
pub mod diskcache;
pub mod latency;
pub mod lockfree;
pub mod metrics;
pub mod modern;
pub mod repro;
pub mod runner;
pub mod scaling;
pub mod table1;

use dsm_protocol::{CasVariant, LlscScheme, SyncConfig, SyncPolicy};
use dsm_sync::{PrimChoice, Primitive};
pub use dsm_workloads::CounterKind;

/// Experiment sizing. The paper runs 64 processors; tests and CI-grade
/// benches use smaller machines with the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Number of processors (and nodes).
    pub procs: u32,
    /// Barrier-separated rounds per synthetic-counter run.
    pub rounds: u64,
    /// Matrix dimension for Transitive Closure.
    pub tc_size: u64,
    /// Wires for the router kernel.
    pub wires: u64,
    /// Tasks for the factorization kernel.
    pub tasks: u64,
}

impl Scale {
    /// The paper's machine: 64 processors.
    pub fn paper() -> Self {
        Scale {
            procs: 64,
            rounds: 64,
            tc_size: 32,
            wires: 256,
            tasks: 192,
        }
    }

    /// A fast configuration for tests and smoke benches.
    pub fn quick() -> Self {
        Scale {
            procs: 16,
            rounds: 16,
            tc_size: 12,
            wires: 48,
            tasks: 32,
        }
    }
}

/// One bar of a figure: a primitive implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarSpec {
    /// Coherence policy for the synchronization variable(s).
    pub policy: SyncPolicy,
    /// Primitive family.
    pub prim: Primitive,
    /// CAS implementation variant (INV policy only).
    pub cas_variant: CasVariant,
    /// Use `load_exclusive` before CAS.
    pub load_exclusive: bool,
    /// Use `drop_copy` after updates/releases.
    pub drop_copy: bool,
    /// Memory-side LL/SC reservation scheme (UNC/UPD policies).
    pub llsc: LlscScheme,
    /// Execute FAΦ/CAS in memory at the home node while keeping the
    /// line cacheable for ordinary loads (INV policy only) — the modern
    /// "remote atomics" implementation point, beyond the paper.
    pub home_atomics: bool,
}

impl BarSpec {
    /// A plain bar.
    pub fn new(policy: SyncPolicy, prim: Primitive) -> Self {
        BarSpec {
            policy,
            prim,
            cas_variant: CasVariant::Plain,
            load_exclusive: false,
            drop_copy: false,
            llsc: LlscScheme::BitVector,
            home_atomics: false,
        }
    }

    /// The figure label, e.g. `INV CAS+lx +drop`.
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.policy.label(), self.prim.label());
        match self.cas_variant {
            CasVariant::Plain => {}
            CasVariant::Deny => s.push('d'),
            CasVariant::Share => s.push('s'),
        }
        if self.load_exclusive {
            s.push_str("+lx");
        }
        if self.drop_copy {
            s.push_str(" +drop");
        }
        match self.llsc {
            LlscScheme::BitVector => {}
            LlscScheme::LinkedList => s.push_str(" @list"),
            LlscScheme::Limited(k) => s.push_str(&format!(" @lim{k}")),
            LlscScheme::SerialNumber => s.push_str(" @serial"),
        }
        if self.home_atomics {
            s.push_str(" @home");
        }
        s
    }

    /// The per-line synchronization configuration this bar implies.
    pub fn sync_config(&self) -> SyncConfig {
        debug_assert!(
            !self.home_atomics || self.prim.supports_home_atomics(),
            "home atomics require a single-round-trip primitive"
        );
        SyncConfig {
            policy: self.policy,
            cas_variant: self.cas_variant,
            llsc: self.llsc,
            home_atomics: self.home_atomics,
        }
    }

    /// The primitive choice this bar implies.
    pub fn prim_choice(&self) -> PrimChoice {
        PrimChoice {
            prim: self.prim,
            load_exclusive: self.load_exclusive,
            drop_copy: self.drop_copy,
        }
    }
}

/// The full bar set of Figures 3–6, in the paper's order:
///
/// * UNC: FAΦ, LL/SC, CAS;
/// * INV (without, then with `drop_copy`): FAΦ, LL/SC, then the four
///   CAS bars — INV, INVd, INVs, INV+`load_exclusive`;
/// * UPD (without, then with `drop_copy`): FAΦ, LL/SC, CAS.
pub fn paper_bars() -> Vec<BarSpec> {
    let mut bars = Vec::new();
    for prim in Primitive::ALL {
        bars.push(BarSpec::new(SyncPolicy::Unc, prim));
    }
    for drop_copy in [false, true] {
        bars.push(BarSpec {
            drop_copy,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi)
        });
        bars.push(BarSpec {
            drop_copy,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Llsc)
        });
        bars.push(BarSpec {
            drop_copy,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
        });
        bars.push(BarSpec {
            drop_copy,
            cas_variant: CasVariant::Deny,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
        });
        bars.push(BarSpec {
            drop_copy,
            cas_variant: CasVariant::Share,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
        });
        bars.push(BarSpec {
            drop_copy,
            load_exclusive: true,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
        });
    }
    for drop_copy in [false, true] {
        for prim in Primitive::ALL {
            bars.push(BarSpec {
                drop_copy,
                ..BarSpec::new(SyncPolicy::Upd, prim)
            });
        }
    }
    bars
}

/// A reduced bar set (one bar per policy × primitive) for smoke tests.
pub fn basic_bars() -> Vec<BarSpec> {
    SyncPolicy::ALL
        .into_iter()
        .flat_map(|policy| {
            Primitive::ALL
                .into_iter()
                .map(move |prim| BarSpec::new(policy, prim))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bar_set_matches_figure_structure() {
        let bars = paper_bars();
        // 3 UNC + 2×6 INV + 2×3 UPD = 21.
        assert_eq!(bars.len(), 21);
        let unc = bars.iter().filter(|b| b.policy == SyncPolicy::Unc).count();
        let inv = bars.iter().filter(|b| b.policy == SyncPolicy::Inv).count();
        let upd = bars.iter().filter(|b| b.policy == SyncPolicy::Upd).count();
        assert_eq!((unc, inv, upd), (3, 12, 6));
        // Four CAS bars per INV drop_copy subset.
        let inv_cas = bars
            .iter()
            .filter(|b| b.policy == SyncPolicy::Inv && b.prim == Primitive::Cas && !b.drop_copy)
            .count();
        assert_eq!(inv_cas, 4);
    }

    #[test]
    fn labels_are_unique() {
        let bars = paper_bars();
        let labels: std::collections::HashSet<String> = bars.iter().map(BarSpec::label).collect();
        assert_eq!(labels.len(), bars.len());
        assert!(labels.contains("INV CASd"));
        assert!(labels.contains("INV CAS+lx +drop"));
        assert!(labels.contains("UNC FAP"));
    }

    #[test]
    fn scales_are_sane() {
        let p = Scale::paper();
        assert_eq!(p.procs, 64);
        let q = Scale::quick();
        assert!(q.procs < p.procs);
    }
}
