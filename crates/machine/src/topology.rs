//! Machine topology: sockets → physical cores → processing units (PUs).
//!
//! A *PU* is a hardware thread (what Linux calls a logical CPU). With SMT
//! enabled, two PUs share one physical core's pipelines and private L1/L2
//! caches; all cores of a socket share that socket's L3. PU numbering follows
//! the Linux convention used in the paper's Figure 11(c): PU *n* and PU
//! *n + total_cores* are SMT siblings on the same physical core, so on a
//! quad-core machine logical CPUs 0 and 4 share core 0.

use std::fmt::Write as _;

/// Index of a processing unit (hardware thread / logical CPU).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PuId(pub usize);

/// Index of a physical core (owns private L1/L2, hosts 1–2 PUs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub usize);

/// Index of a socket (owns a shared L3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SocketId(pub usize);

/// Static description of the machine's processor layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
    smt: usize,
    memory_mb: u64,
}

impl Topology {
    /// Build a topology. `smt` is threads per core (1 = no hyper-threading).
    ///
    /// # Panics
    /// Panics if any dimension is zero or `smt > 2` (the models in the paper
    /// are at most 2-way SMT).
    pub fn new(sockets: usize, cores_per_socket: usize, smt: usize, memory_mb: u64) -> Self {
        assert!(sockets > 0 && cores_per_socket > 0, "empty topology");
        assert!((1..=2).contains(&smt), "smt must be 1 or 2");
        Topology {
            sockets,
            cores_per_socket,
            smt,
            memory_mb,
        }
    }

    pub fn sockets(&self) -> usize {
        self.sockets
    }

    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Threads per physical core (1 or 2).
    pub fn smt(&self) -> usize {
        self.smt
    }

    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Total number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total number of PUs (logical CPUs).
    pub fn num_pus(&self) -> usize {
        self.num_cores() * self.smt
    }

    /// Physical core hosting `pu`.
    ///
    /// Linux-style numbering: the second SMT thread of core *c* is PU
    /// `c + num_cores`.
    pub fn core_of(&self, pu: PuId) -> CoreId {
        assert!(pu.0 < self.num_pus(), "PU {} out of range", pu.0);
        CoreId(pu.0 % self.num_cores())
    }

    /// Socket owning `core`.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        assert!(core.0 < self.num_cores(), "core {} out of range", core.0);
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Socket owning `pu`.
    pub fn socket_of(&self, pu: PuId) -> SocketId {
        self.socket_of_core(self.core_of(pu))
    }

    /// All PUs hosted by `core`, in increasing order.
    pub fn pus_of_core(&self, core: CoreId) -> Vec<PuId> {
        assert!(core.0 < self.num_cores(), "core {} out of range", core.0);
        (0..self.smt)
            .map(|t| PuId(core.0 + t * self.num_cores()))
            .collect()
    }

    /// The SMT sibling of `pu`, if the machine has SMT.
    pub fn smt_sibling(&self, pu: PuId) -> Option<PuId> {
        if self.smt == 1 {
            return None;
        }
        let n = self.num_cores();
        Some(if pu.0 < n {
            PuId(pu.0 + n)
        } else {
            PuId(pu.0 - n)
        })
    }

    /// Iterate over all PU ids.
    pub fn pus(&self) -> impl Iterator<Item = PuId> {
        (0..self.num_pus()).map(PuId)
    }

    /// Iterate over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// hwloc-style ASCII rendering, in the spirit of the paper's Figure 11(c).
    ///
    /// `l1_kb`/`l2_kb`/`l3_kb` are the cache sizes to annotate (the topology
    /// itself does not own cache geometry; the [`crate::Machine`] passes its
    /// configuration in).
    pub fn render(&self, l1_kb: u64, l2_kb: u64, l3_kb: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Machine ({}MB)", self.memory_mb);
        for s in 0..self.sockets {
            let _ = writeln!(out, "  Socket#{s}");
            let _ = writeln!(out, "    L3 ({l3_kb}KB)");
            for c in 0..self.cores_per_socket {
                let core = CoreId(s * self.cores_per_socket + c);
                let pus: Vec<String> = self
                    .pus_of_core(core)
                    .iter()
                    .map(|p| format!("PU#{}", p.0))
                    .collect();
                let _ = writeln!(
                    out,
                    "    L2 ({l2_kb}KB)  L1 ({l1_kb}KB)  Core#{}  {}",
                    core.0,
                    pus.join(" ")
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_ht() -> Topology {
        // The paper's quad-core Nehalem with hyper-threading (Fig 11 (c)).
        Topology::new(1, 4, 2, 5965)
    }

    #[test]
    fn pu_core_mapping_matches_linux_numbering() {
        let t = quad_ht();
        assert_eq!(t.num_pus(), 8);
        assert_eq!(t.num_cores(), 4);
        // PU#0 and PU#4 share physical core 0, as in the paper's SMT pinning
        // experiment ("logical cores 0 and 4").
        assert_eq!(t.core_of(PuId(0)), CoreId(0));
        assert_eq!(t.core_of(PuId(4)), CoreId(0));
        assert_eq!(t.smt_sibling(PuId(0)), Some(PuId(4)));
        assert_eq!(t.smt_sibling(PuId(4)), Some(PuId(0)));
        assert_eq!(t.pus_of_core(CoreId(2)), vec![PuId(2), PuId(6)]);
    }

    #[test]
    fn dual_socket_mapping() {
        // The data-center node: bi-Xeon E5640 quad-core with HT → 16 PUs.
        let t = Topology::new(2, 4, 2, 24_000);
        assert_eq!(t.num_pus(), 16);
        assert_eq!(t.socket_of(PuId(0)), SocketId(0));
        assert_eq!(t.socket_of(PuId(5)), SocketId(1)); // core 5 is socket 1
        assert_eq!(t.socket_of(PuId(13)), SocketId(1)); // sibling of PU 5
        assert_eq!(t.core_of(PuId(13)), CoreId(5));
    }

    #[test]
    fn no_smt_has_no_siblings() {
        let t = Topology::new(1, 2, 1, 2048);
        assert_eq!(t.num_pus(), 2);
        assert_eq!(t.smt_sibling(PuId(1)), None);
    }

    #[test]
    fn render_mentions_all_parts() {
        let t = quad_ht();
        let s = t.render(32, 256, 8192);
        assert!(s.contains("Machine (5965MB)"));
        assert!(s.contains("Socket#0"));
        assert!(s.contains("L3 (8192KB)"));
        assert!(s.contains("Core#3"));
        assert!(s.contains("PU#7"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pu_panics() {
        quad_ht().core_of(PuId(8));
    }
}
