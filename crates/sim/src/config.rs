//! Machine and timing configuration.
//!
//! The defaults describe the machine simulated in the paper: a 64-node
//! (8×8) mesh with 32-byte cache lines and queued memory modules. The
//! paper does not publish its exact latency constants, so the timing
//! defaults here use DASH-era magnitudes; every constant is configurable
//! so the benchmark harness can sweep them.

use crate::fault::FaultConfig;
use crate::ids::NodeId;

/// Latency and sizing parameters for the simulated hardware.
///
/// All times are in processor clock cycles; all sizes in bytes.
///
/// # Example
///
/// ```
/// use dsm_sim::SimParams;
///
/// let p = SimParams::default();
/// assert_eq!(p.line_size, 32);
/// // A 32-byte data message: header + command flits + 4 data flits.
/// assert_eq!(p.flits_for_payload(32), 6);
/// assert_eq!(p.flits_for_payload(0), 2); // control message
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimParams {
    /// Cache line size in bytes (paper: 32).
    pub line_size: u64,
    /// Cycles for a load/store that hits in the local cache.
    pub cache_hit: u64,
    /// Cache-controller occupancy for handling a protocol action.
    pub cache_ctrl: u64,
    /// DRAM access time at a memory module (read or write of one line).
    pub mem_access: u64,
    /// Directory lookup/update time at the home node.
    pub dir_access: u64,
    /// Per-hop router delay in the mesh.
    pub hop_delay: u64,
    /// Flit width in bytes (payloads are divided into flits of this size).
    pub flit_bytes: u64,
    /// Cycles for one flit to cross a link (also the per-flit occupancy of
    /// a network-interface queue).
    pub flit_cycle: u64,
    /// Extra header flits prepended to every message (address, type, ...).
    pub header_flits: u64,
    /// Cycles the processor needs to issue an operation.
    pub issue: u64,
    /// Extra wire latency paid by every message whose source and
    /// destination lie in different NUMA clusters (see
    /// [`MachineConfig::clusters`]). 0 — the default, and the paper's
    /// flat machine — adds nothing anywhere, keeping every committed
    /// artifact byte-identical.
    pub cluster_penalty: u64,
}

impl SimParams {
    /// Returns the total flit count of a message carrying `payload` bytes.
    ///
    /// A message with no payload (a control message: request, ack,
    /// invalidation) still carries `header_flits` plus one flit of
    /// address/command.
    pub fn flits_for_payload(&self, payload: u64) -> u64 {
        self.header_flits + 1 + payload.div_ceil(self.flit_bytes)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, e.g. a
    /// non-power-of-two line size or a zero flit size.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_size.is_power_of_two() {
            return Err(format!(
                "line_size {} is not a power of two",
                self.line_size
            ));
        }
        if self.flit_bytes == 0 {
            return Err("flit_bytes must be positive".into());
        }
        if self.flit_cycle == 0 {
            return Err("flit_cycle must be positive".into());
        }
        Ok(())
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            line_size: 32,
            cache_hit: 1,
            cache_ctrl: 4,
            mem_access: 20,
            dir_access: 4,
            hop_delay: 2,
            flit_bytes: 8,
            flit_cycle: 1,
            header_flits: 1,
            issue: 1,
            cluster_penalty: 0,
        }
    }
}

/// Which directory-protocol variant the home nodes run.
///
/// The base protocol is the paper's DASH-style write-invalidate
/// directory. The other variants model 2020s coherence features for the
/// modern-architecture ablations (`figures modern`); they change *who
/// supplies data on a read miss to a shared line*, nothing else, so
/// every result under [`ProtoVariant::Dash`] is byte-identical to the
/// pre-variant simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtoVariant {
    /// The paper's base protocol: the home memory supplies all read
    /// misses.
    #[default]
    Dash,
    /// MESI(F)-style forwarding: on a read miss to a shared line, the
    /// home forwards the request to the sharer nearest the requester
    /// (fewest mesh hops, lowest node id on ties), which supplies the
    /// data cache-to-cache.
    MesiF,
    /// Two-level hierarchical NUMA directory: like [`ProtoVariant::MesiF`],
    /// but the home only forwards to a sharer inside the *requester's
    /// cluster*, so the data leg never crosses the inter-cluster
    /// interconnect; with no cluster-local sharer it falls back to the
    /// home memory like the base protocol.
    Hier,
}

impl ProtoVariant {
    /// The label used in `figures modern` tables.
    pub fn label(self) -> &'static str {
        match self {
            ProtoVariant::Dash => "DASH",
            ProtoVariant::MesiF => "MESI(F)",
            ProtoVariant::Hier => "HIER",
        }
    }
}

/// A parsed `DSM_PROTO` / `--proto` specification: protocol/topology
/// overrides applied to every machine built while it is in force.
///
/// The grammar is a comma-separated list of clauses:
///
/// * `dash` | `mesif` | `hier` — directory variant (default `dash`);
/// * `hna` — execute fetch-and-Φ / compare-and-swap on INV-policy sync
///   lines at the home memory, without line migration (ARM-LSE-style
///   in-memory remote atomics);
/// * `clusters=N` — partition the nodes into `N` equal NUMA clusters
///   of contiguous ids;
/// * `penalty=N` — extra cycles per inter-cluster message;
/// * `line=N` — cache line size in bytes (power of two).
///
/// # Example
///
/// ```
/// use dsm_sim::{ProtoSpec, ProtoVariant};
///
/// let s = ProtoSpec::from_spec("hier,clusters=4,penalty=32").unwrap();
/// assert_eq!(s.variant, ProtoVariant::Hier);
/// assert_eq!((s.clusters, s.penalty), (Some(4), Some(32)));
/// assert!(!s.home_atomics);
/// assert!(ProtoSpec::from_spec("bogus").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProtoSpec {
    /// Directory variant to run.
    pub variant: ProtoVariant,
    /// Execute INV-line atomics at the home memory (no line migration).
    pub home_atomics: bool,
    /// NUMA cluster count override, if given.
    pub clusters: Option<u32>,
    /// Inter-cluster penalty override in cycles, if given.
    pub penalty: Option<u64>,
    /// Line-size override in bytes, if given.
    pub line_size: Option<u64>,
}

impl ProtoSpec {
    /// Parses a spec string (see the type-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed clause.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut out = ProtoSpec::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            match clause.split_once('=') {
                None => match clause {
                    "dash" => out.variant = ProtoVariant::Dash,
                    "mesif" => out.variant = ProtoVariant::MesiF,
                    "hier" => out.variant = ProtoVariant::Hier,
                    "hna" => out.home_atomics = true,
                    other => return Err(format!("unknown proto clause {other:?}")),
                },
                Some((key, val)) => {
                    let n: u64 = val
                        .parse()
                        .map_err(|_| format!("clause {clause:?}: {val:?} is not a number"))?;
                    match key {
                        "clusters" => {
                            if n == 0 {
                                return Err("clusters must be positive".into());
                            }
                            out.clusters = Some(n as u32);
                        }
                        "penalty" => out.penalty = Some(n),
                        "line" => {
                            if !n.is_power_of_two() {
                                return Err(format!("line size {n} is not a power of two"));
                            }
                            out.line_size = Some(n);
                        }
                        other => return Err(format!("unknown proto key {other:?}")),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Applies the overrides to a machine configuration (unset clauses
    /// leave the corresponding fields untouched). The `hna` flag is not
    /// applied here — it concerns per-line sync configs, which the
    /// machine builder owns.
    pub fn apply(&self, cfg: &mut MachineConfig) {
        cfg.proto = self.variant;
        if let Some(c) = self.clusters {
            cfg.clusters = c;
        }
        if let Some(p) = self.penalty {
            cfg.params.cluster_penalty = p;
        }
        if let Some(l) = self.line_size {
            cfg.params.line_size = l;
        }
    }
}

/// Geometry of the per-node processor cache.
///
/// Synchronization studies touch few distinct lines, so the default cache
/// is large enough that conflict misses do not perturb the results; the
/// benchmark harness shrinks it for capacity-pressure ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl CacheParams {
    /// Total capacity in lines.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message if `sets` is not a power of two or either field
    /// is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || self.ways == 0 {
            return Err("cache must have at least one set and one way".into());
        }
        if !self.sets.is_power_of_two() {
            return Err(format!("cache sets {} is not a power of two", self.sets));
        }
        Ok(())
    }
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams { sets: 256, ways: 4 }
    }
}

/// Full description of the simulated machine.
///
/// # Example
///
/// ```
/// use dsm_sim::MachineConfig;
///
/// let cfg = MachineConfig::default(); // the paper's 64-node machine
/// assert_eq!(cfg.nodes, 64);
/// assert_eq!(cfg.mesh_dims(), (8, 8));
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of nodes (one processor + one memory module each).
    pub nodes: u32,
    /// Mesh width; `nodes` must equal `mesh_width * mesh_height`.
    pub mesh_width: u32,
    /// Timing and sizing parameters.
    pub params: SimParams,
    /// Per-node cache geometry.
    pub cache: CacheParams,
    /// Seed for all randomized behaviour (backoff jitter, workloads).
    pub seed: u64,
    /// Directory-protocol variant the home nodes run (default: the
    /// paper's DASH-style base protocol).
    pub proto: ProtoVariant,
    /// Number of NUMA clusters the nodes are partitioned into
    /// (contiguous id blocks of equal size; `nodes` must be a
    /// multiple). 1 — the default — is the paper's flat machine, and
    /// with [`SimParams::cluster_penalty`] = 0 the partition has no
    /// observable effect.
    pub clusters: u32,
    /// Fault injection and self-checking knobs; the default disables
    /// everything, leaving the simulated machine's behaviour (and every
    /// derived paper artifact) byte-identical to a faults-free build.
    pub faults: FaultConfig,
}

impl MachineConfig {
    /// Creates a configuration for `nodes` processors arranged in the
    /// squarest possible mesh, with default timing.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_nodes(nodes: u32) -> Self {
        assert!(nodes > 0, "a machine must have at least one node");
        let mut w = (nodes as f64).sqrt() as u32;
        while w > 1 && !nodes.is_multiple_of(w) {
            w -= 1;
        }
        MachineConfig {
            nodes,
            mesh_width: w.max(1),
            params: SimParams::default(),
            cache: CacheParams::default(),
            seed: 0x5EED,
            proto: ProtoVariant::Dash,
            clusters: 1,
            faults: FaultConfig::default(),
        }
    }

    /// The NUMA cluster `node` belongs to: nodes are partitioned into
    /// [`clusters`](MachineConfig::clusters) contiguous id blocks of
    /// equal size. With 1 cluster every node answers 0.
    pub fn cluster_of(&self, node: NodeId) -> u32 {
        node.as_u32() / (self.nodes / self.clusters.max(1)).max(1)
    }

    /// `true` if both nodes lie in the same NUMA cluster (always true
    /// on the default flat machine).
    pub fn same_cluster(&self, a: NodeId, b: NodeId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// Returns (width, height) of the mesh.
    pub fn mesh_dims(&self) -> (u32, u32) {
        (self.mesh_width, self.nodes / self.mesh_width)
    }

    /// Returns the (x, y) coordinates of `node` in the mesh.
    pub fn coords(&self, node: NodeId) -> (u32, u32) {
        let id = node.as_u32();
        (id % self.mesh_width, id / self.mesh_width)
    }

    /// Returns the Manhattan distance in hops between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency, e.g. a mesh
    /// width that does not divide the node count.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("machine must have at least one node".into());
        }
        if self.mesh_width == 0 || !self.nodes.is_multiple_of(self.mesh_width) {
            return Err(format!(
                "mesh width {} does not tile {} nodes",
                self.mesh_width, self.nodes
            ));
        }
        if self.clusters == 0 || !self.nodes.is_multiple_of(self.clusters) {
            return Err(format!(
                "cluster count {} does not partition {} nodes",
                self.clusters, self.nodes
            ));
        }
        self.params.validate()?;
        self.cache.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    /// The paper's machine: 64 nodes in an 8×8 mesh, 32-byte lines.
    fn default() -> Self {
        MachineConfig::with_nodes(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.nodes, 64);
        assert_eq!(cfg.mesh_dims(), (8, 8));
        assert_eq!(cfg.params.line_size, 32);
        cfg.validate().unwrap();
    }

    #[test]
    fn flit_accounting() {
        let p = SimParams::default();
        assert_eq!(p.flits_for_payload(0), 2);
        assert_eq!(p.flits_for_payload(8), 3);
        assert_eq!(p.flits_for_payload(32), 6);
        assert_eq!(p.flits_for_payload(33), 7);
    }

    #[test]
    fn coords_and_hops() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.coords(NodeId::new(0)), (0, 0));
        assert_eq!(cfg.coords(NodeId::new(9)), (1, 1));
        assert_eq!(cfg.hops(NodeId::new(0), NodeId::new(63)), 14);
        assert_eq!(cfg.hops(NodeId::new(5), NodeId::new(5)), 0);
    }

    #[test]
    fn with_nodes_finds_rectangles() {
        assert_eq!(MachineConfig::with_nodes(16).mesh_dims(), (4, 4));
        assert_eq!(MachineConfig::with_nodes(12).mesh_dims(), (3, 4));
        assert_eq!(MachineConfig::with_nodes(1).mesh_dims(), (1, 1));
        assert_eq!(MachineConfig::with_nodes(7).mesh_dims(), (1, 7));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = MachineConfig {
            mesh_width: 5,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.params.line_size = 24;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.cache.sets = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.params.flit_bytes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.faults.evict_per_10k = 50_000;
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig {
            clusters: 7, // does not divide 64
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn clusters_partition_contiguous_blocks() {
        let mut cfg = MachineConfig::with_nodes(16);
        cfg.clusters = 4;
        cfg.validate().unwrap();
        assert_eq!(cfg.cluster_of(NodeId::new(0)), 0);
        assert_eq!(cfg.cluster_of(NodeId::new(3)), 0);
        assert_eq!(cfg.cluster_of(NodeId::new(4)), 1);
        assert_eq!(cfg.cluster_of(NodeId::new(15)), 3);
        assert!(cfg.same_cluster(NodeId::new(4), NodeId::new(7)));
        assert!(!cfg.same_cluster(NodeId::new(3), NodeId::new(4)));
        // The default flat machine puts everyone in cluster 0.
        let flat = MachineConfig::with_nodes(16);
        assert!(flat.same_cluster(NodeId::new(0), NodeId::new(15)));
    }

    #[test]
    fn proto_spec_grammar() {
        let s = ProtoSpec::from_spec("mesif").unwrap();
        assert_eq!(s.variant, ProtoVariant::MesiF);
        assert!(s.clusters.is_none() && s.penalty.is_none() && s.line_size.is_none());

        let s = ProtoSpec::from_spec("hna,clusters=2,penalty=40,line=128").unwrap();
        assert!(s.home_atomics);
        assert_eq!(s.clusters, Some(2));
        assert_eq!(s.penalty, Some(40));
        assert_eq!(s.line_size, Some(128));

        assert!(ProtoSpec::from_spec("line=24").is_err());
        assert!(ProtoSpec::from_spec("clusters=0").is_err());
        assert!(ProtoSpec::from_spec("warp=9").is_err());
        assert!(ProtoSpec::from_spec("mesi").is_err());

        let mut cfg = MachineConfig::with_nodes(16);
        s.apply(&mut cfg);
        assert_eq!(cfg.proto, ProtoVariant::Dash);
        assert_eq!(cfg.clusters, 2);
        assert_eq!(cfg.params.cluster_penalty, 40);
        assert_eq!(cfg.params.line_size, 128);
        cfg.validate().unwrap();
    }

    #[test]
    fn variant_labels() {
        assert_eq!(ProtoVariant::Dash.label(), "DASH");
        assert_eq!(ProtoVariant::MesiF.label(), "MESI(F)");
        assert_eq!(ProtoVariant::Hier.label(), "HIER");
    }
}
