//! # tiptop-machine
//!
//! A deterministic, cycle-approximate multicore machine simulator that plays
//! the role of the *hardware* underneath the Tiptop reproduction: CPUs with
//! per-hardware-thread performance-monitoring units (PMUs), an SMT-aware
//! topology, and a set-associative multi-level cache hierarchy through which
//! concurrently running tasks genuinely contend.
//!
//! The paper ("Tiptop: Hardware Performance Counters for the Masses", Rohou,
//! INRIA RR-7789 / ICPP 2012) evaluates on real Nehalem, Core and PPC970
//! machines. This crate substitutes those with parameterized micro-
//! architecture models. Counter *semantics* — what is counted, per hardware
//! thread, attributable per task slice — are faithful; absolute cycle counts
//! come from an analytical performance model driven by sampled cache
//! simulation:
//!
//! ```text
//! CPI = base_cpi · smt_factor
//!     + accesses/insn · E[miss penalty]/MLP
//!     + branches/insn · mispredict_rate · branch_penalty
//!     + fp/insn · assist_fraction · assist_cost
//! ```
//!
//! Cache-miss penalties are *measured* by pushing interleaved, seeded address
//! streams of all co-running tasks through a real set-associative LRU
//! hierarchy (private L1/L2 per physical core, shared L3 per socket), so
//! cross-core and SMT interference — the subject of the paper's Section 3.4 —
//! is emergent rather than scripted.
//!
//! ## Quick tour
//!
//! ```
//! use tiptop_machine::prelude::*;
//!
//! // A single-socket quad-core Nehalem with SMT, like the paper's Xeon W3550.
//! let cfg = MachineConfig::nehalem_w3550();
//! let mut machine = Machine::new(cfg, 42);
//!
//! // A task profile: integer-ish code with a 64 KiB working set.
//! let profile = ExecProfile::builder("demo")
//!     .base_cpi(0.75)
//!     .memory(MemoryBehavior::uniform(64 * 1024))
//!     .loads_per_insn(0.25)
//!     .build();
//!
//! let mut stream = TaskStream::new(1, 7);
//! let mut req = [SliceRequest::new(PuId(0), &profile, &mut stream)
//!     .cycles(1_000_000)];
//! let out = machine.execute_epoch(&mut req);
//! assert!(out[0].instructions > 0);
//! assert_eq!(out[0].events.get(HwEvent::Instructions), out[0].instructions);
//! ```

#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod access;
pub mod cache;
pub mod config;
pub mod exec;
mod fastmod;
pub mod machine;
pub mod pmu;
pub mod time;
pub mod topology;
mod vector;

pub use access::{AccessPattern, MemoryBehavior, TaskStream, WorkingSetTier};
pub use cache::{CacheGeometry, CacheLevel, SetAssocCache};
pub use config::{AssistTriggers, CpuModelKind, MachineConfig, UarchParams};
pub use exec::{ExecOutcome, ExecProfile, ExecProfileBuilder, FpUnit};
pub use machine::{Machine, SliceRequest};
pub use pmu::{EventCounts, HwEvent, PmuCapabilities, N_EVENTS};
pub use time::{Freq, SimDuration, SimTime};
pub use topology::{CoreId, PuId, SocketId, Topology};
pub use vector::{sampler_kernels, SamplerKernels};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::access::{AccessPattern, MemoryBehavior, TaskStream, WorkingSetTier};
    pub use crate::cache::{CacheGeometry, SetAssocCache};
    pub use crate::config::{CpuModelKind, MachineConfig, UarchParams};
    pub use crate::exec::{ExecOutcome, ExecProfile, FpUnit};
    pub use crate::machine::{Machine, SliceRequest};
    pub use crate::pmu::{EventCounts, HwEvent};
    pub use crate::time::{Freq, SimDuration, SimTime};
    pub use crate::topology::{CoreId, PuId, SocketId, Topology};
}
