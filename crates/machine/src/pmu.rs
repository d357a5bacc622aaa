//! Hardware events and per-slice event counts.
//!
//! This is the *vocabulary* of the performance-monitoring unit: every
//! countable hardware event the simulated machines expose. The split between
//! "generic" events (portable across architectures — cycles, instructions,
//! LLC references/misses, branches, branch misses, exactly the set the Linux
//! header provides) and "raw" target-specific events (FP assists, L1D/L2
//! misses…) is made one layer up, in the kernel's `perf` module; down here
//! everything is just a hardware event.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Every hardware event a simulated PMU can count.
///
/// `CacheReferences`/`CacheMisses` follow the Linux generic-event convention
/// of referring to the *last-level* cache: references are accesses that reach
/// the L3, misses are accesses the L3 could not serve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(usize)]
pub enum HwEvent {
    /// Unhalted core cycles.
    Cycles = 0,
    /// Retired instructions.
    Instructions,
    /// Last-level cache references (accesses reaching the L3).
    CacheReferences,
    /// Last-level cache misses (served from memory).
    CacheMisses,
    /// Retired branch instructions.
    BranchInstructions,
    /// Mispredicted branches.
    BranchMisses,
    /// L1 data-cache misses.
    L1dMisses,
    /// L2 cache misses (same set of accesses as `CacheReferences`; exposed
    /// separately because the paper's Figure 11(d) plots "L2 misses").
    L2Misses,
    /// Retired load instructions.
    Loads,
    /// Retired store instructions.
    Stores,
    /// Retired floating-point operations.
    FpOps,
    /// Floating-point operations that required micro-code assist
    /// (`FP_ASSIST.ANY` on Nehalem; the key counter of the paper's §3.1).
    FpAssists,
    /// Cycles in which retirement was stalled on memory.
    StallCyclesMem,
    /// Reference (bus) cycles — counts wall-clock at the nominal frequency
    /// regardless of what the core does.
    RefCycles,
}

/// Number of distinct hardware events.
pub const N_EVENTS: usize = 14;

/// All events, in index order.
pub const ALL_EVENTS: [HwEvent; N_EVENTS] = [
    HwEvent::Cycles,
    HwEvent::Instructions,
    HwEvent::CacheReferences,
    HwEvent::CacheMisses,
    HwEvent::BranchInstructions,
    HwEvent::BranchMisses,
    HwEvent::L1dMisses,
    HwEvent::L2Misses,
    HwEvent::Loads,
    HwEvent::Stores,
    HwEvent::FpOps,
    HwEvent::FpAssists,
    HwEvent::StallCyclesMem,
    HwEvent::RefCycles,
];

impl HwEvent {
    /// Stable index into an [`EventCounts`] array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Canonical upper-case name, used by the metric DSL and config files.
    pub fn name(self) -> &'static str {
        match self {
            HwEvent::Cycles => "CYCLES",
            HwEvent::Instructions => "INSTRUCTIONS",
            HwEvent::CacheReferences => "CACHE_REFERENCES",
            HwEvent::CacheMisses => "CACHE_MISSES",
            HwEvent::BranchInstructions => "BRANCHES",
            HwEvent::BranchMisses => "BRANCH_MISSES",
            HwEvent::L1dMisses => "L1D_MISSES",
            HwEvent::L2Misses => "L2_MISSES",
            HwEvent::Loads => "LOADS",
            HwEvent::Stores => "STORES",
            HwEvent::FpOps => "FP_OPS",
            HwEvent::FpAssists => "FP_ASSIST",
            HwEvent::StallCyclesMem => "STALL_CYCLES_MEM",
            HwEvent::RefCycles => "REF_CYCLES",
        }
    }

    /// Parse a canonical name back to an event.
    pub fn from_name(name: &str) -> Option<HwEvent> {
        ALL_EVENTS.iter().copied().find(|e| e.name() == name)
    }

    /// Events counted by *fixed* hardware counters (always on, never
    /// multiplexed), mirroring the Intel fixed counters for instructions
    /// retired / core cycles / reference cycles.
    pub fn is_fixed(self) -> bool {
        matches!(
            self,
            HwEvent::Cycles | HwEvent::Instructions | HwEvent::RefCycles
        )
    }
}

impl fmt::Display for HwEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A vector of per-event counts, indexable by [`HwEvent`].
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts([u64; N_EVENTS]);

impl EventCounts {
    pub const ZERO: EventCounts = EventCounts([0; N_EVENTS]);

    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn get(&self, e: HwEvent) -> u64 {
        self.0[e.index()]
    }

    #[inline]
    pub fn set(&mut self, e: HwEvent, v: u64) {
        self.0[e.index()] = v;
    }

    #[inline]
    pub fn add(&mut self, e: HwEvent, v: u64) {
        self.0[e.index()] += v;
    }

    /// Element-wise accumulate.
    pub fn accumulate(&mut self, other: &EventCounts) {
        for i in 0..N_EVENTS {
            self.0[i] += other.0[i];
        }
    }

    /// Element-wise saturating difference (`self - earlier`).
    pub fn delta_since(&self, earlier: &EventCounts) -> EventCounts {
        let mut d = EventCounts::ZERO;
        for i in 0..N_EVENTS {
            d.0[i] = self.0[i].saturating_sub(earlier.0[i]);
        }
        d
    }

    pub fn iter(&self) -> impl Iterator<Item = (HwEvent, u64)> + '_ {
        ALL_EVENTS.iter().map(move |&e| (e, self.get(e)))
    }

    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

impl Index<HwEvent> for EventCounts {
    type Output = u64;
    fn index(&self, e: HwEvent) -> &u64 {
        &self.0[e.index()]
    }
}

impl IndexMut<HwEvent> for EventCounts {
    fn index_mut(&mut self, e: HwEvent) -> &mut u64 {
        &mut self.0[e.index()]
    }
}

impl fmt::Debug for EventCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("EventCounts");
        for (e, v) in self.iter() {
            if v != 0 {
                d.field(e.name(), &v);
            }
        }
        d.finish()
    }
}

/// What the PMU hardware of a CPU model offers: how many events can be
/// counted *simultaneously*. Requesting more forces the kernel to
/// time-multiplex (see `tiptop-kernel::perf`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmuCapabilities {
    /// Fixed-function counters (each tied to one [`HwEvent::is_fixed`] event).
    pub fixed_counters: usize,
    /// General-purpose programmable counters.
    pub programmable_counters: usize,
}

impl PmuCapabilities {
    /// Nehalem-style PMU: 3 fixed + 4 programmable.
    pub fn nehalem() -> Self {
        PmuCapabilities {
            fixed_counters: 3,
            programmable_counters: 4,
        }
    }

    /// The paper reports the Xeon W3550 supports "up to sixteen simultaneous
    /// events"; modelled as 3 fixed + 13 programmable.
    pub fn nehalem_wide() -> Self {
        PmuCapabilities {
            fixed_counters: 3,
            programmable_counters: 13,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for e in ALL_EVENTS {
            assert_eq!(HwEvent::from_name(e.name()), Some(e));
        }
        assert_eq!(HwEvent::from_name("NOPE"), None);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; N_EVENTS];
        for e in ALL_EVENTS {
            assert!(e.index() < N_EVENTS);
            assert!(!seen[e.index()], "duplicate index for {e:?}");
            seen[e.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counts_accumulate_and_delta() {
        let mut a = EventCounts::new();
        a.add(HwEvent::Cycles, 100);
        a.add(HwEvent::Instructions, 150);
        let mut b = a;
        b.add(HwEvent::Cycles, 50);
        let d = b.delta_since(&a);
        assert_eq!(d.get(HwEvent::Cycles), 50);
        assert_eq!(d.get(HwEvent::Instructions), 0);

        let mut sum = EventCounts::new();
        sum.accumulate(&a);
        sum.accumulate(&d);
        assert_eq!(sum.get(HwEvent::Cycles), b.get(HwEvent::Cycles));
    }

    #[test]
    fn delta_saturates_rather_than_underflows() {
        let mut a = EventCounts::new();
        a.set(HwEvent::Cycles, 10);
        let b = EventCounts::new();
        assert_eq!(b.delta_since(&a).get(HwEvent::Cycles), 0);
    }

    #[test]
    fn fixed_events_are_the_intel_fixed_set() {
        let fixed: Vec<_> = ALL_EVENTS.iter().filter(|e| e.is_fixed()).collect();
        assert_eq!(fixed.len(), 3);
    }
}
