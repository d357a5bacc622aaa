//! Multi-machine (cluster) sessions and **distributed scenarios**: N
//! [`Session`]s — one per machine — sharded across a worker-thread pool
//! behind one observer-facing API, with their frame streams merged
//! **deterministically** by `(sim-time, machine)` into a streaming
//! [`ClusterFrameSink`].
//!
//! The paper evaluates tiptop across *three* physical machines (Figs 3,
//! 6–8) and a data-center co-run node (Fig 10); those machines are
//! physically independent, so simulating them serially wastes every core
//! but one. A [`ClusterScenario`] declares one [`Scenario`] per machine;
//! building it yields a [`ClusterSession`] whose one
//! [`run`](ClusterSession::run) drives every machine concurrently. Because
//! each shard owns its whole stack (machine, kernel, monitor) and the
//! merge orders frames by `(time, machine-index)` with per-machine streams
//! already time-ordered, **the merged stream is byte-identical at any
//! worker-thread count** — `threads: 1` and `threads: 8` produce the same
//! frames in the same order.
//!
//! On top of the independent shards sit the *distributed* affordances:
//!
//! * [`ClusterScenario::migrate_at`] — a cross-machine workload event: the
//!   grid scheduler moves a tagged job from one machine to another at an
//!   exact instant. It is validated across machines at build time and lands
//!   as a kill on the source plus a spawn on the destination, both at the
//!   same sim-time — so the merged stream shows the job leaving node A and
//!   appearing on node B in the same refresh. Each hop creates a fresh
//!   *incarnation* of the tag on its destination, so migrations chain
//!   freely — onward (`A→B→C`) and round trips (`A→B→A`) alike. In
//!   [`MigrationMode::Restart`] the job restarts from zero (a scheduler
//!   re-submission); [`ClusterScenario::resume_at`] instead checkpoints the
//!   task at the kill instant and resumes it mid-program on the
//!   destination, conserving its total retired-instruction count.
//! * [`ClusterSession::run`] — the fleet-scale version of
//!   [`Session::run_all`]: every machine drives its own *set* of monitors
//!   at distinct intervals (the §2.5 perturbation story on every node at
//!   once), frames labelled `(machine, monitor)` in the merged stream.
//! * [`ClusterWindowSink`] — bounded-memory consumption for long runs:
//!   tumbling windows of the merged stream are folded into per
//!   `(machine, monitor)` column aggregates, so a fleet observed for hours
//!   never buffers more than one window of frames.
//! * The monitor→migration loop *closed*: [`SchedulerPolicy`]s handed to
//!   [`ClusterSession::run`] observe the merged stream during the run and
//!   issue live migrations — restart or checkpoint/resume, per the
//!   decision's [`MigrationMode`] — validated at run time and applied at
//!   the next epoch boundary (see [`crate::reactive`]).
//! * **Cross-machine dependency edges** — a machine's scenario may key an
//!   event on a tag that completes on *another* machine
//!   ([`Trigger::AfterExit`], via [`Scenario::spawn_after`] and friends):
//!   a pipeline stage on node B starts when the extract job on node A
//!   exits. One validator checks a machine and a fleet: the one behind
//!   [`Scenario::build`] runs over every machine's schedule at once in
//!   [`ClusterScenario::build`], with the same checks, messages and typed
//!   [`DagError`]s (cycles, unknown or migrated-away dependencies), and
//!   names the machine hosting each dependency. The build hands
//!   same-machine chains back to their [`Session`]s and resolves the rest
//!   centrally — in scripted and reactive runs alike — with exact firing
//!   instants.
//!
//! [`Trigger::AfterExit`]: crate::scenario::Trigger::AfterExit
//! [`DagError`]: crate::scenario::DagError
//! [`Scenario::spawn_after`]: crate::scenario::Scenario::spawn_after
//!
//! One driver runs every cluster: the **round driver**. At each
//! observation instant it resolves dependency edges and resume handoffs,
//! advances the machines due then on a worker pool spawned once per run,
//! each through the observation loop of a lone [`Session`], delivers the
//! round's frames in machine order, and lets policies decide (the steps
//! of a round are documented on [`ClusterSession::run`]). Scripted runs
//! are runs with no policies. A barrier is paid only where the run needs
//! one: once no policy, unresolved edge or unpublished handoff can act
//! between two instants, a round becomes a **window** — each machine
//! takes all of its observations up to a horizon in one task, at least
//! eight instants of them, buffering at most `max(256, 8 × monitors)`
//! frames, and the window is merged by `(time, machine)`. The merged
//! stream is the same either way, and byte-identical at any thread count.
//!
//! Failure is contained per shard: a [`SessionError`] inside one machine
//! surfaces as [`SessionError::Shard`], a panic as
//! [`SessionError::ShardPanicked`]; the rest of the fleet keeps running and
//! their frames still reach the sink (the exact contract is documented on
//! [`ClusterSession::run`]; runs with policies halt at the round barrier
//! instead).
//!
//! ```
//! use tiptop_core::prelude::*;
//! use tiptop_kernel::prelude::*;
//! use tiptop_machine::prelude::*;
//!
//! let spin = || Program::endless(ExecProfile::builder("spin").build());
//! let node = |seed: u64| {
//!     Scenario::new(MachineConfig::nehalem_w3550().noiseless())
//!         .seed(seed)
//!         .user(Uid(1), "u1")
//! };
//! // One busy job on node-a; at t=2s the grid scheduler moves it to node-b.
//! let mut cluster = ClusterScenario::new()
//!     .machine("node-a", node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin())))
//!     .machine("node-b", node(2))
//!     .migrate_at(SimTime::from_secs(2), "job", "node-a", "node-b")
//!     .build()
//!     .unwrap();
//! let tiptop = || {
//!     Tiptop::new(
//!         TiptopOptions::default().delay(SimDuration::from_secs(1)),
//!         ScreenConfig::default_screen(),
//!     )
//! };
//! let mut sink = ClusterCollectSink::new();
//! cluster
//!     .run(2, 3, |_m| vec![(Box::new(tiptop()), None)], &mut [], &mut sink)
//!     .unwrap();
//! let frames = sink.into_frames();
//! // 2 machines x 3 refreshes, merged by (time, machine).
//! assert_eq!(frames.len(), 6);
//! let on = |t: u64, machine: &str| {
//!     frames
//!         .iter()
//!         .find(|cf| cf.machine == machine && cf.frame.time == SimTime::from_secs(t))
//!         .is_some_and(|cf| cf.frame.row_for_comm("job").is_some())
//! };
//! assert!(on(1, "node-a") && !on(1, "node-b"), "before: job lives on node-a");
//! // The handover refresh at t=2 shows the job twice: its final row on the
//! // source (it ran right up to the kill instant) and its first row on the
//! // destination. One refresh later it lives only on node-b.
//! assert!(on(2, "node-a") && on(2, "node-b"), "t=2 is the handover frame");
//! assert!(!on(3, "node-a") && on(3, "node-b"), "after: only node-b");
//! ```

// Driver code reports failures as typed errors; a panic here would take
// a whole fleet run down with it.
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

mod pool;
mod rounds;
mod scenario;
mod session;
mod sink;

pub use scenario::{ClusterScenario, HandoverRecord};
pub use session::{ClusterSession, RunStats, Until};
pub use sink::{
    ClusterCollectSink, ClusterFrameSink, ClusterWindow, ClusterWindowSink, WindowStats,
};

use crate::render::Frame;
use crate::symbols::Label;
#[cfg(doc)]
use crate::{
    monitor::Monitor,
    reactive::{MigrationMode, SchedulerPolicy},
    scenario::{Scenario, Session, SessionError},
};

/// Identity of one machine of the cluster, handed to the per-machine
/// factories (monitor, stop predicate).
#[derive(Clone, Copy, Debug)]
pub struct MachineRef<'a> {
    pub id: &'a str,
    /// Declaration index; the merge tie-breaker for same-instant frames.
    pub index: usize,
}

/// One frame of the merged cluster stream, labelled with its origin.
#[derive(Clone, Debug)]
pub struct ClusterFrame {
    /// Machine id as declared on the [`ClusterScenario`]. A [`Label`]
    /// compares directly against `&str`/`String`, so consumers read it like
    /// the `String` it used to be; producing one is a refcount bump.
    pub machine: Label,
    /// Machine declaration index (the merge tie-breaker).
    pub machine_index: usize,
    /// Producing monitor's [`Monitor::name`].
    pub source: Label,
    /// Per-(machine, monitor) observation number (0-based).
    pub seq: usize,
    pub frame: Frame,
}
