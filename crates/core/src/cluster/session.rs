//! The live cluster: [`ClusterSession`] and its run methods.

use std::fmt;
use std::sync::mpsc;

use super::pool::{serve, Pool, Worker};
use super::rounds::{Handoff, Rounds, Status, WorkUnit};
use super::scenario::ClusterDep;
use super::{ClusterFrameSink, HandoverRecord, MachineRef};
use crate::monitor::Monitor;
use crate::reactive::{AppliedDecision, SchedulerPolicy};
use crate::render::Frame;
use crate::scenario::{MonitorSet, Session, SessionError};
use crate::symbols::Label;
#[cfg(doc)]
use {
    super::{ClusterCollectSink, ClusterScenario, ClusterWindowSink},
    crate::reactive::MigrationMode,
};

/// Statistics of the most recent [`ClusterSession::run`] (see
/// [`ClusterSession::last_run_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Frames delivered to the sink.
    pub frames: usize,
    /// Driver steps: rounds plus windows (see
    /// [`ClusterSession::run`]). Each one is a barrier.
    pub rounds: usize,
    /// Merge deliveries: rounds and windows that produced frames.
    pub batches: usize,
    /// Most frames held at once before delivery: the largest round or
    /// window. A window holds at most `max(256, 8 × open monitors)`
    /// frames.
    pub peak_buffered_frames: usize,
}

pub(super) struct ShardSlot {
    pub(super) id: String,
    /// `None` only while a run borrows it, or after a panic tore the shard
    /// mid-epoch (the torn session is never handed back).
    pub(super) session: Option<Session>,
}

/// A live cluster: every machine's [`Session`], runnable on a worker pool.
pub struct ClusterSession {
    pub(super) shards: Vec<ShardSlot>,
    /// Every migration handover of this cluster, in application order:
    /// scripted ones from build time, reactive ones appended as their
    /// decisions apply.
    pub(super) handovers: Vec<HandoverRecord>,
    /// The scripted resume handoffs, in instant order.
    pub(super) handoffs: Vec<Handoff>,
    /// Cross-machine dependency edges, in declaration order. While any is
    /// live, every machine marches to each round's instant.
    pub(super) deps: Vec<ClusterDep>,
    /// Statistics of the most recent run.
    pub(super) last_stats: RunStats,
}

impl fmt::Debug for ClusterSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSession")
            .field(
                "machines",
                &self.shards.iter().map(|s| &s.id).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A monitor's stop rule in a [`ClusterSession::run`]: the monitor stops
/// after the first frame the rule returns `true` on, and that frame is
/// still delivered.
pub type Until = Box<dyn FnMut(&Frame) -> bool + Send>;
/// The monitor set one machine runs: each tool paired with its stop rule.
type ToolSet = Vec<(Box<dyn Monitor + Send>, Option<Until>)>;
/// One machine's monitors with their clocks, as a run drives them.
pub(super) type Monitors = MonitorSet<Box<dyn Monitor + Send>, Until>;

impl ClusterSession {
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Machine ids in declaration (= merge tie-break) order.
    pub fn machines(&self) -> impl Iterator<Item = MachineRef<'_>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, s)| MachineRef { id: &s.id, index })
    }

    /// Every migration handover of this cluster so far, in application
    /// order: the scripted [`ClusterScenario::migrate_at`]s from build
    /// time, plus — after a [`ClusterSession::run`] with policies — the
    /// handovers of every applied live decision. Feed these to
    /// [`ClusterWindowSink::dedupe_handovers`] so fleet-wide aggregates
    /// count a migrating job once at its handover instant.
    pub fn handovers(&self) -> &[HandoverRecord] {
        &self.handovers
    }

    /// Statistics of the most recent run, scripted or reactive: frames
    /// delivered, driver steps, merge deliveries, and the peak buffering.
    pub fn last_run_stats(&self) -> RunStats {
        self.last_stats
    }

    /// One machine's session, for pid lookups and exit records after a run.
    /// `None` for unknown ids — or for a shard whose session was lost to a
    /// panic (a torn session is never handed back).
    pub fn session(&self, id: &str) -> Option<&Session> {
        self.shards
            .iter()
            .find(|s| s.id == id)
            .and_then(|s| s.session.as_ref())
    }

    /// Drive every machine's own *set* of monitors — [`Session::run_all`]
    /// lifted to the fleet — while [`SchedulerPolicy`]s watch the merged
    /// stream **live** and issue migrations, closing the paper's
    /// monitor→decision loop. Returns the decisions that were applied.
    ///
    /// Each machine's `tools(mref)` are primed together and observed on
    /// their own intervals until every one has produced `refreshes` frames
    /// or has been stopped by its [`Until`] rule (the stopping frame is
    /// still delivered). An **empty monitor set is rejected** with a typed
    /// [`SessionError::InvalidScenario`] before anything runs: a machine
    /// only advances through its observations, so an unobserved machine
    /// would silently stay frozen at its current sim-time (its events —
    /// including migrations landing on it — never applying) rather than
    /// "run unobserved". The error leaves every shard intact and the
    /// cluster re-runnable.
    ///
    /// Work is sharded over `threads` workers (clamped to `1..=machines`);
    /// frames stream into `sink` labelled `(machine, monitor-name)` and
    /// merged by `(time, machine_index)`. Same-instant frames of one
    /// machine observe (and merge) in set order, same-instant frames of
    /// different machines in machine order — so the merged stream is
    /// byte-identical at any worker-thread count. With an empty `policies`
    /// slice nothing decides and the run is scripted.
    ///
    /// # The round driver
    ///
    /// A decision must land on an instant no machine has passed yet, so no
    /// machine may race ahead of the merge frontier. Every cluster run
    /// therefore goes to the **round driver**; scripted runs are runs with
    /// no policies. Each round takes the globally earliest pending
    /// observation instant `t*` and, in order:
    ///
    /// 1. resolves cross-machine dependency edges to fixpoint: an edge
    ///    whose dependency's final incarnation has exited injects its event
    ///    on the consumer at `max(exit + delay, consumer-now)`;
    /// 2. advances every resume-handoff source to its handoff instant
    ///    before any consumer crosses it (publish first; same-instant
    ///    chains in topological order), so a checkpoint is always on the
    ///    board before its destination takes it;
    /// 3. advances the machines due at `t*` concurrently on a pool of
    ///    `threads − 1` workers, spawned once for the run, plus the calling
    ///    thread; on the worker it was moved to, each machine runs the
    ///    observation loop of [`Session::run_all`] up to the round's
    ///    horizon;
    /// 4. merges the round's frames in `(machine, monitor)` order — the
    ///    order `run_all` produces;
    /// 5. shows each frame to every policy, then delivers it to the sink.
    ///
    /// With live dependency edges, steps 1–2 repeat in epoch-bounded
    /// passes that march *every* machine to `t*`: an unresolved edge caps
    /// its consumer at `host-watermark + delay`, which keeps cross-machine
    /// firing instants exact. Without them only the machines due at `t*`
    /// advance. Without migrations or cross-machine edges, a machine's
    /// frames are the ones a lone [`Session`] built from its scenario
    /// would take.
    ///
    /// # Rounds and windows
    ///
    /// Each round has a horizon `H`. It stays `t*` — exactly the round
    /// above — while the run has policies (any frame can trigger a
    /// decision), while any cross-machine edge is unresolved, or while any
    /// resume handoff is unpublished. Otherwise the round becomes a
    /// **window**: with `n` unfinished monitor slots on live machines and
    /// `i` the smallest of their intervals, `H = t* + (k − 1)·i` with
    /// `k = max(256 / n, 8)`. A small fleet shares a budget of 256 frames
    /// per window; a fleet of 32 or more monitors takes the floor of eight
    /// instants, so each machine steps through eight consecutive instants
    /// while its state is in cache. A window buffers at most
    /// `max(256, 8·n)` frames, proportional to the fleet as a round
    /// already is. Each due machine then runs its observation loop through
    /// each of its own instants up to `H` in one task, taking the monitors
    /// due at each in set order; the calling thread merges the machines'
    /// frames by time, ties to the lower machine, which is the
    /// `(time, machine, monitor)` order the rounds deliver. In a run that
    /// marches (it started with live edges), a window needs every
    /// observing machine due at the same instants, and it ends with every
    /// live machine — stopped ones included — marched through those
    /// instants to the last one observed, as the rounds would have left
    /// it; otherwise it stays a round.
    /// [`RunStats::rounds`] counts rounds plus windows.
    ///
    /// Decisions fired on a frame at `t*` are validated and injected as
    /// pending events at the **next scheduler-epoch boundary after `t*`**
    /// ([`Kernel::epoch_boundary_after`]) — strictly ahead of every
    /// machine's clock, since no machine is ever past `t*` between rounds.
    /// Everything is keyed to sim-time, so the merged stream, the decisions
    /// and their application instants are **byte-identical at any
    /// worker-thread count**; `threads` only changes wall-clock.
    ///
    /// # Dependency edges and decisions at one instant
    ///
    /// A dependency-fired event and a decision event landing at the same
    /// instant on one machine apply in the order they were scheduled.
    /// An edge is scheduled as soon as a pass sees its dependency's exit,
    /// and every exit at or before `t*` is seen before the round's frames
    /// are taken; a decision is scheduled after its round. So an edge whose
    /// dependency exited at or before the deciding frame's instant applies
    /// **before** the decision; one whose dependency exits later (only
    /// possible when `exit + delay` falls inside the single epoch between
    /// `t*` and the decision's boundary) applies after it.
    ///
    /// A decision is a kill on the source plus a spawn of the retained job
    /// spec ([`Session::job_spec`]) on the destination at the same instant,
    /// exactly like a scripted [`ClusterScenario::migrate_at`] — and, like
    /// it, mode-aware: a [`MigrationMode::Resume`] decision checkpoints the
    /// task at the kill instant and resumes it mid-program on the
    /// destination (step 2 publishes the checkpoint; the split advance
    /// changes nothing observable, since `advance_to` stops at every event
    /// instant anyway). When the refresh interval exceeds the scheduler
    /// epoch (the usual shape — seconds-scale refreshes over a 20 ms epoch)
    /// the boundary falls strictly between observation instants and the
    /// reactive stream has no double-visibility handover frame; if an
    /// observation lands exactly on the application instant, the handover
    /// frame appears just as in scripted runs —
    /// [`ClusterSession::handovers`] (every applied decision is appended to
    /// it) identifies those instants for post-hoc dedupe of aggregates.
    ///
    /// # Run-time validation
    ///
    /// Scripted schedules are fully validated at build time. A live
    /// decision's kill and spawn are checked against the live source and
    /// destination by the checker behind [`Session::schedule_at`], the
    /// same one a build's schedule walk uses, before either is scheduled.
    /// Infeasible requests surface as typed
    /// [`SessionError::InvalidDecision`]s: unknown machines, source ==
    /// destination, no task with the tag on the source, a tag that already
    /// exited or is already claimed by another decision, a destination
    /// that currently carries a live task with the tag, a restart whose
    /// spawn affinity allows no PU of the destination, a same-instant
    /// resume chain, or a resume-mode kill of a program that already ran to
    /// completion (nothing left to checkpoint). A tag whose spawn on the
    /// source is still pending at or before the application instant
    /// migrates that incarnation.
    ///
    /// # Failure contract
    ///
    /// A shard failure surfaces as [`SessionError::Shard`], a panic as
    /// [`SessionError::ShardPanicked`]; the first failure **by machine
    /// index** is returned, deterministic at any thread count. Healthy
    /// shards' sessions are handed back; a panicked shard's is withheld.
    ///
    /// A scripted run (no policies) **delivers, then errors**. The
    /// contract, locked by the multi-shard failure tests:
    ///
    /// * every healthy machine keeps running to completion and its frames
    ///   keep streaming into `sink` — including frames with times *after*
    ///   the failure instant (the sink sees the whole surviving fleet, then
    ///   the caller sees the error);
    /// * frames the failed machine produced *before* failing are still
    ///   merged at their proper `(time, machine)` position relative to
    ///   every other stream — never reordered around the failure;
    /// * only after every machine has finished does `run` return the
    ///   error; when several shards fail, the later-indexed errors are
    ///   dropped but their pre-failure frames are not.
    ///
    /// The sink is fully populated before the error returns, so a caller
    /// that wants the stream on error streams into a
    /// [`ClusterCollectSink`] and reads it back.
    ///
    /// A run with policies **halts at the round barrier** instead: on a
    /// shard error (or an infeasible decision) the current round's healthy
    /// frames are still delivered, then the run stops — continuing without
    /// the full fleet would feed the policies a partial view and silently
    /// change their decisions.
    ///
    /// [`Kernel::epoch_boundary_after`]: tiptop_kernel::kernel::Kernel::epoch_boundary_after
    pub fn run(
        &mut self,
        threads: usize,
        refreshes: usize,
        mut tools: impl FnMut(MachineRef<'_>) -> Vec<(Box<dyn Monitor + Send>, Option<Until>)>,
        policies: &mut [Box<dyn SchedulerPolicy>],
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<Vec<AppliedDecision>, SessionError> {
        let units = self.take_units(refreshes, &mut tools)?;
        self.run_rounds(units, threads, policies, sink)
    }

    // Kept only for the `perfbench` workloads, whose next change (with
    // the benchmark's in-process ledger) moves them to `run` and deletes
    // this forward.
    #[doc(hidden)]
    pub fn run_each(
        &mut self,
        threads: usize,
        max_refreshes: usize,
        mut monitor: impl FnMut(MachineRef<'_>) -> Box<dyn Monitor + Send>,
        mut until: impl FnMut(MachineRef<'_>) -> Until,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        let tools = |m: MachineRef<'_>| vec![(monitor(m), Some(until(m)))];
        self.run(threads, max_refreshes, tools, &mut [], sink)
            .map(|_| ())
    }

    // Kept only for the `perfbench` workloads, whose next change (with
    // the benchmark's in-process ledger) moves them to `run` and deletes
    // this forward.
    #[doc(hidden)]
    pub fn run_reactive(
        &mut self,
        threads: usize,
        refreshes: usize,
        mut monitors: impl FnMut(MachineRef<'_>) -> Vec<Box<dyn Monitor + Send>>,
        policies: &mut [Box<dyn SchedulerPolicy>],
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<Vec<AppliedDecision>, SessionError> {
        let tools = |m: MachineRef<'_>| monitors(m).into_iter().map(|t| (t, None)).collect();
        self.run(threads, refreshes, tools, policies, sink)
    }

    /// Move every machine's session and monitor set into a [`WorkUnit`].
    /// Every set is built and validated *before* any session leaves its
    /// slot, and a session lost to an earlier run's panic puts back every
    /// session taken before it, so an error here leaves the cluster
    /// untouched and re-runnable.
    fn take_units(
        &mut self,
        refreshes: usize,
        tools: &mut dyn FnMut(MachineRef<'_>) -> ToolSet,
    ) -> Result<Vec<WorkUnit>, SessionError> {
        let mut per_machine: Vec<Monitors> = Vec::with_capacity(self.shards.len());
        for (index, slot) in self.shards.iter().enumerate() {
            let set = MonitorSet::new(
                tools(MachineRef {
                    id: &slot.id,
                    index,
                }),
                refreshes,
            );
            validate_monitor_set(&slot.id, &set)?;
            per_machine.push(set);
        }
        let mut units: Vec<WorkUnit> = Vec::with_capacity(self.shards.len());
        for (index, set) in per_machine.into_iter().enumerate() {
            let slot = &mut self.shards[index];
            let Some(session) = slot.session.take() else {
                let machine = slot.id.clone();
                for unit in units {
                    self.shards[unit.index].session = Some(*unit.session);
                }
                return Err(SessionError::ShardPanicked {
                    machine,
                    message: "session was lost to a panic in an earlier run".into(),
                });
            };
            units.push(WorkUnit {
                index,
                id: Label::interned(&slot.id),
                session: Box::new(session),
                sources: set.monitors().map(|m| Label::interned(m.name())).collect(),
                monitors: set,
            });
        }
        Ok(units)
    }

    /// Run `units` on the round driver over a pool of `threads − 1` workers
    /// spawned for the whole run, then hand the sessions back and record
    /// the run's statistics and applied handovers.
    fn run_rounds(
        &mut self,
        units: Vec<WorkUnit>,
        threads: usize,
        policies: &mut [Box<dyn SchedulerPolicy>],
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<Vec<AppliedDecision>, SessionError> {
        let n = units.len();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            let workers = (1..threads.min(n).max(1))
                .map(|_| {
                    let (shares, inbox) = mpsc::channel();
                    let (outbox, stepped) = mpsc::channel();
                    joins.push(scope.spawn(move || serve(inbox, outbox)));
                    Worker { shares, stepped }
                })
                .collect();
            let pending: Vec<usize> = (0..self.deps.len())
                .filter(|&k| self.deps[k].ev.is_some())
                .collect();
            let mut rounds = Rounds {
                status: vec![Status::Live; n],
                units,
                pool: Pool { workers },
                march_all: !pending.is_empty(),
                pending,
                deps: &mut self.deps,
                handoffs: self.handoffs.clone(),
                halt: !policies.is_empty(),
                policies,
                sink,
                first_err: None,
                stats: RunStats::default(),
                injected: Vec::new(),
                applied: Vec::new(),
                handovers: Vec::new(),
            };
            let result = rounds.run();
            let Rounds {
                units,
                status,
                pool,
                stats,
                applied,
                mut handovers,
                ..
            } = rounds;
            // Closing the workers' channels ends their loops. A worker that
            // died was already reported by the phase that lost it, so a
            // failed join carries nothing new.
            drop(pool);
            for join in joins {
                let _ = join.join();
            }
            self.last_stats = stats;
            self.handovers.append(&mut handovers);
            for unit in units {
                if status[unit.index] != Status::Torn {
                    self.shards[unit.index].session = Some(*unit.session);
                }
            }
            result.map(|()| applied)
        })
    }
}

/// Reject monitor sets that cannot drive a machine in a
/// [`ClusterSession::run`]: zero-interval monitors
/// ([`MonitorSet::check`]) and an empty set (the machine would stay frozen
/// at its current sim-time, since machines only advance through their
/// observations). Both errors name the machine.
fn validate_monitor_set(machine: &str, set: &Monitors) -> Result<(), SessionError> {
    let named = |msg: &str| SessionError::InvalidScenario(format!("machine '{machine}': {msg}"));
    set.check().map_err(|e| match e {
        SessionError::InvalidScenario(msg) => named(&msg),
        other => other,
    })?;
    if set.monitors().next().is_none() {
        return Err(named(
            "empty monitor set — a machine only advances through its observations, \
             so it would stay frozen at its current sim-time; give every machine at \
             least one monitor",
        ));
    }
    Ok(())
}
