//! # tiptop
//!
//! A full reproduction of *"Tiptop: Hardware Performance Counters for the
//! Masses"* (Erven Rohou, INRIA RR-7789, 2011 / ICPP 2012) as a Rust
//! workspace — the tool **and** every substrate it needs:
//!
//! | crate | role |
//! |-------|------|
//! | [`machine`] | multicore CPU simulator: Nehalem/Core/PPC970 models, SMT topology, set-associative L1/L2/shared-L3 caches, per-hw-thread PMU events |
//! | [`kernel`] | OS layer: tasks, a pluggable `Scheduler` trait (CFS-like default, FIFO, round-robin) with affinity, `/proc`, `perf_event_open`-style syscalls with multiplexing |
//! | [`workloads`] | SPEC CPU2006 stand-ins, the §3.1 diverging R program, micro-benchmarks, data-center job scripts |
//! | [`core`] | **tiptop itself**: collector, metric DSL, screens, live/batch rendering, baselines (`top`, Pin-style `inscount`), the `Scenario`/`Monitor` session API, and the multi-machine `ClusterScenario`/`ClusterSession` layer |
//!
//! Experiments are declared with [`tiptop_core::scenario::Scenario`]
//! (machine + users + timed spawn/kill/renice events) and driven through
//! [`tiptop_core::scenario::Session`], which runs any set of
//! [`tiptop_core::monitor::Monitor`]s — tiptop, `top`, and Pin-style
//! `inscount` all implement it — over one live kernel. Multi-machine
//! experiments declare one scenario per machine on a
//! [`tiptop_core::cluster::ClusterScenario`]; the resulting
//! [`tiptop_core::cluster::ClusterSession`] shards the machines across a
//! worker-thread pool and merges their frames deterministically by
//! (sim-time, machine) — byte-identical at any thread count. On top of
//! the shards sit the distributed affordances: cross-machine
//! [`migrate_at`](tiptop_core::cluster::ClusterScenario::migrate_at)
//! events move a job between machines at one exact instant,
//! [`run_all`](tiptop_core::cluster::ClusterSession::run_all) drives a
//! *set* of monitors per machine, and
//! [`ClusterWindowSink`](tiptop_core::cluster::ClusterWindowSink) bounds
//! memory on long runs by folding the stream into tumbling-window
//! aggregates (migration handovers deduped on request). The loop closes
//! with [`run_reactive`](tiptop_core::cluster::ClusterSession::run_reactive):
//! [`SchedulerPolicy`](tiptop_core::reactive::SchedulerPolicy)s — the
//! [`IpcFloor`](tiptop_core::reactive::IpcFloor) threshold detector, the
//! [`Cusum`](tiptop_core::reactive::Cusum) and
//! [`Population`](tiptop_core::reactive::Population) change-point
//! detectors, optionally composed with live
//! [`LeastLoaded`](tiptop_core::reactive::LeastLoaded) placement via
//! [`Balanced`](tiptop_core::reactive::Balanced) —
//! watch the merged stream *during* the run and issue live migrations,
//! applied deterministically at the next scheduler-epoch boundary.
//!
//! See `examples/quickstart.rs` for a runnable end-to-end tour, and the
//! `tiptop-bench` crate for the harnesses that regenerate the paper's
//! tables and figures.

pub use tiptop_core as core;
pub use tiptop_kernel as kernel;
pub use tiptop_machine as machine;
pub use tiptop_workloads as workloads;

/// Everything needed to build a machine, spawn workloads, and watch them.
pub mod prelude {
    pub use tiptop_core::prelude::*;
    pub use tiptop_kernel::prelude::*;
    pub use tiptop_machine::prelude::*;
    pub use tiptop_workloads::{datacenter, micro, rlang, spec};
    pub use tiptop_workloads::{Compiler, EvolutionAlgorithm, SpecBenchmark};
}
