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
//! building it yields a [`ClusterSession`] whose `run*` methods drive every
//! machine concurrently. Because each shard owns its whole stack (machine,
//! kernel, monitor) and the merge orders frames by `(time, machine-index)`
//! with per-machine streams already time-ordered, **the merged stream is
//! byte-identical at any worker-thread count** — `threads: 1` and
//! `threads: 8` produce the same frames in the same order.
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
//! * [`ClusterSession::run_all`] — the fleet-scale version of
//!   [`Session::run_all`]: every machine drives its own *set* of monitors
//!   at distinct intervals (the §2.5 perturbation story on every node at
//!   once), frames labelled `(machine, monitor)` in the merged stream.
//! * [`ClusterWindowSink`] — bounded-memory consumption for long runs:
//!   tumbling windows of the merged stream are folded into per
//!   `(machine, monitor)` column aggregates, so a fleet observed for hours
//!   never buffers more than one window of frames.
//! * [`ClusterSession::run_reactive`] — the monitor→migration loop
//!   *closed*: [`SchedulerPolicy`]s observe the merged stream during the
//!   run and issue live migrations — restart or checkpoint/resume, per the
//!   decision's [`MigrationMode`] — validated at run time and applied at
//!   the next epoch boundary (see [`crate::reactive`]).
//! * **Cross-machine dependency edges** — a machine's scenario may key an
//!   event on a tag that completes on *another* machine
//!   ([`Trigger::AfterExit`], via [`Scenario::spawn_after`] and friends):
//!   a pipeline stage on node B starts when the extract job on node A
//!   exits. [`ClusterScenario::build`] lifts every dependency edge out of
//!   the machine scenarios, validates the fleet-wide DAG (typed
//!   [`DagError`]s for cycles, unknown or migrated-away dependencies),
//!   hands same-machine chains back to their [`Session`]s, and resolves
//!   the rest centrally — in scripted and reactive runs alike — with exact
//!   firing instants.
//!
//! [`Trigger::AfterExit`]: crate::scenario::Trigger::AfterExit
//! [`Scenario::spawn_after`]: crate::scenario::Scenario::spawn_after
//!
//! Two drivers run a cluster, chosen by the run's own input. Machines that
//! never wait on each other run on the free-running **lane pool**: each
//! worker steps its machines in `(time, machine)` order and ships columnar
//! batches over its own lane into a loser-tree merge. Runs with policies,
//! live cross-machine dependency edges or scripted resume handoffs run on
//! the **round driver**, which advances the fleet between barriers at each
//! observation instant (the steps of a round are documented on
//! [`ClusterSession::run_reactive`]). Both keep the merged stream
//! byte-identical at any thread count.
//!
//! Failure is contained per shard: a [`SessionError`] inside one machine
//! surfaces as [`SessionError::Shard`], a panic as
//! [`SessionError::ShardPanicked`]; the rest of the fleet keeps running and
//! their frames still reach the sink (the exact contract is documented on
//! [`ClusterSession::run_each`]; reactive runs halt at the round barrier
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
//! let frames = cluster
//!     .run_collect(2, 3, |_m| {
//!         Box::new(Tiptop::new(
//!             TiptopOptions::default().delay(SimDuration::from_secs(1)),
//!             ScreenConfig::default_screen(),
//!         ))
//!     })
//!     .unwrap();
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

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tiptop_kernel::sched::SchedulerSelect;
use tiptop_kernel::task::TaskState;
use tiptop_machine::time::{SimDuration, SimTime};

use crate::batch::{FrameBatch, ShellPool};
use crate::monitor::Monitor;
use crate::reactive::{AppliedDecision, MigrationDecision, MigrationMode, SchedulerPolicy};
use crate::render::{Frame, Row};
use crate::scenario::validation;
use crate::scenario::{DagError, HandoffBoard, Scenario, Session, SessionError, WorkloadEvent};
use crate::symbols::{self, Label, SymId};

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

/// Streaming consumer of the merged cluster stream. Frames arrive in
/// `(time, machine_index)` order regardless of the worker-thread count;
/// same-instant frames of one machine keep their monitor order.
pub trait ClusterFrameSink {
    fn on_frame(&mut self, frame: ClusterFrame);

    /// Deliver frames `range` of a columnar batch — the lane pool's run
    /// delivery. The frames of the range are the next frames of the
    /// merged stream, in order. The default materializes each one through
    /// [`FrameBatch::take_frame`] and hands it to
    /// [`ClusterFrameSink::on_frame`], so every existing sink keeps its
    /// exact semantics; columnar-aware sinks ([`ClusterWindowSink`])
    /// override this to fold straight from the columns.
    fn on_batch(&mut self, batch: &mut FrameBatch, range: Range<usize>) {
        for i in range {
            self.on_frame(batch.take_frame(i));
        }
    }
}

/// Any closure can be a sink.
impl<F: FnMut(ClusterFrame)> ClusterFrameSink for F {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self(frame)
    }
}

/// The simplest sink: keep the whole merged stream. For runs long enough
/// that this buffer matters, use [`ClusterWindowSink`] instead.
#[derive(Debug, Default)]
pub struct ClusterCollectSink {
    frames: Vec<ClusterFrame>,
}

impl ClusterCollectSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn frames(&self) -> &[ClusterFrame] {
        &self.frames
    }

    pub fn into_frames(self) -> Vec<ClusterFrame> {
        self.frames
    }
}

impl ClusterFrameSink for ClusterCollectSink {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.frames.push(frame);
    }
}

/// Per-`(machine, monitor)` aggregates of one [`ClusterWindow`].
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Frames this source contributed to the window.
    pub frames: usize,
    /// Task rows across those frames that entered the aggregates.
    pub rows: usize,
    /// Rows *excluded* from the aggregates because they are the
    /// destination side of a registered migration handover (see
    /// [`ClusterWindowSink::dedupe_handovers`]); 0 unless deduping.
    pub handover_rows: usize,
    /// Per-column `(sum, samples)` over every finite row value, keyed by
    /// the column's interned id — the fold allocates nothing per row.
    sums: BTreeMap<SymId, (f64, usize)>,
}

impl WindowStats {
    /// Mean of a typed column (e.g. `"IPC"`, `"%CPU"`) over every row of
    /// every frame in the window; `None` if the column never appeared.
    pub fn mean(&self, column: &str) -> Option<f64> {
        let id = symbols::lookup(column)?;
        self.sums
            .get(&id)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
    }

    /// Column names observed in this window, alphabetically.
    pub fn columns(&self) -> impl Iterator<Item = Arc<str>> {
        let mut names: Vec<Arc<str>> = self.sums.keys().map(|id| symbols::resolve(*id)).collect();
        names.sort();
        names.into_iter()
    }
}

/// One tumbling window of the merged stream, folded to aggregates.
#[derive(Clone, Debug)]
pub struct ClusterWindow {
    /// 0-based window number.
    pub index: usize,
    /// Time of the first / last frame aggregated into the window.
    pub start: SimTime,
    pub end: SimTime,
    /// Total frames folded in (the window size, except for the final
    /// partial window).
    pub frames: usize,
    /// Aggregates keyed by `(machine, monitor-name)`.
    pub sources: BTreeMap<(String, String), WindowStats>,
}

/// Bounded-memory sink for long cluster runs: folds each frame into the
/// open window's per-source column aggregates *as it arrives* — no raw
/// frame is ever buffered — closing the window ([`ClusterWindow`]) every
/// `window` frames. Peak memory is `O(sources x columns)` of open-window
/// state plus `O(total / window)` small summaries — a fleet observed for
/// hours never holds its stream, unlike [`ClusterCollectSink`]. On the
/// lane pool it folds straight from the columnar batches
/// ([`ClusterFrameSink::on_batch`]), so the merged stream's rows are
/// aggregated without ever materializing a labelled frame.
///
/// Callers who need the raw frames spilled elsewhere (rendered to a file,
/// forwarded downstream) can chain a closure sink in front; this sink's
/// job is the bounded aggregate view.
///
/// # Migration handovers
///
/// At a migration's handover frame the job is visible on *both* machines —
/// its final row on the source and its first (zero-elapsed) row on the
/// destination — so a fleet-wide aggregate naively counts it twice at that
/// one instant. The raw stream deliberately keeps both rows (the handover
/// is the observable artifact); register the run's handovers with
/// [`ClusterWindowSink::dedupe_handovers`] and the *aggregates* count the
/// job once, attributing the instant to the source (where it actually ran)
/// and reporting the skipped destination rows in
/// [`WindowStats::handover_rows`].
#[derive(Debug)]
pub struct ClusterWindowSink {
    window: usize,
    peak: usize,
    windows: Vec<ClusterWindow>,
    /// Destination-side rows to exclude from aggregates, keyed by handover
    /// instant: interned `(destination machine, command)`. Entries are
    /// dropped as soon as the stream advances past their instant (frames
    /// arrive in nondecreasing time), so a long reactive run with many
    /// migrations never accumulates stale instants.
    dedupe: BTreeMap<SimTime, Vec<(SymId, SymId)>>,
    /// The window currently being folded, if any frame has arrived since
    /// the last close.
    open: Option<OpenWindow>,
}

/// Incremental state of the window being folded.
#[derive(Debug)]
struct OpenWindow {
    start: SimTime,
    end: SimTime,
    frames: usize,
    sources: BTreeMap<(SymId, SymId), WindowStats>,
}

impl ClusterWindowSink {
    /// `window` is the number of frames folded into each summary
    /// (must be ≥ 1).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one frame");
        ClusterWindowSink {
            window,
            peak: 0,
            windows: Vec::new(),
            dedupe: BTreeMap::new(),
            open: None,
        }
    }

    /// Register migration handovers so fleet-wide aggregates count each
    /// migrating job **once** at its handover instant: the destination-side
    /// row (the zero-elapsed first observation) is excluded from the
    /// column sums and counted in [`WindowStats::handover_rows`] instead.
    /// Feed it [`ClusterSession::handovers`] — for scripted migrations the
    /// records exist right after `build()`; a reactive run's records only
    /// exist after the run, so reactive consumers dedupe in post.
    ///
    /// Exclusion is keyed by `(instant, destination machine, command)`:
    /// keep commands unique per machine at a handover instant (the
    /// repository-wide tag == comm convention does this) or unrelated
    /// same-named rows on the destination would be skipped too. It also
    /// assumes the *source* machine observes at the handover instant —
    /// true whenever both machines' monitor intervals divide the scripted
    /// migration time (the common shared-interval fleet). If only the
    /// destination happens to observe then, there is no double-count and
    /// its row is still excluded, leaving the job unaggregated for that
    /// one instant.
    pub fn dedupe_handovers(mut self, handovers: impl IntoIterator<Item = HandoverRecord>) -> Self {
        for h in handovers {
            self.dedupe
                .entry(h.at)
                .or_default()
                .push((symbols::intern(&h.to), symbols::intern(&h.comm)));
        }
        self
    }

    /// The most frames ever folded into one open window (≤ the window
    /// size, by construction — the memory-bound guarantee, asserted in
    /// tests). No raw frame is buffered at all; this counts the frames
    /// the open aggregate currently summarizes.
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Handover-dedupe instants still registered (not yet passed by the
    /// stream) — bounded-memory proof hook for tests.
    pub fn pending_dedupe_instants(&self) -> usize {
        self.dedupe.len()
    }

    /// Windows folded so far (the still-buffered tail is not included
    /// until [`ClusterWindowSink::finish`]).
    pub fn windows(&self) -> &[ClusterWindow] {
        &self.windows
    }

    /// Flush the partial final window and return every summary.
    pub fn finish(mut self) -> Vec<ClusterWindow> {
        self.close_window();
        self.windows
    }

    /// Fold one frame's rows into the open window. `comms` carries the
    /// rows' interned commands when the caller already has them (the
    /// batched path); otherwise each command is looked up only if this
    /// instant has registered handovers.
    fn fold(
        &mut self,
        machine: SymId,
        source: SymId,
        time: SimTime,
        rows: &[Row],
        comms: Option<&[SymId]>,
    ) {
        // Drop dedupe instants the stream has moved past — frames arrive
        // in nondecreasing time, so an earlier instant can never match
        // again. This is what keeps a long reactive run's dedupe map from
        // growing without bound.
        while self
            .dedupe
            .first_key_value()
            .is_some_and(|(at, _)| *at < time)
        {
            self.dedupe.pop_first();
        }

        let ow = self.open.get_or_insert_with(|| OpenWindow {
            start: time,
            end: time,
            frames: 0,
            sources: BTreeMap::new(),
        });
        ow.end = time;
        ow.frames += 1;
        self.peak = self.peak.max(ow.frames);

        let dedupe = self.dedupe.get(&time);
        let stats = ow.sources.entry((machine, source)).or_default();
        stats.frames += 1;
        for (i, row) in rows.iter().enumerate() {
            let is_handover = dedupe.is_some_and(|d| {
                let comm = match comms {
                    Some(c) => Some(c[i]),
                    None => symbols::lookup(&row.comm),
                };
                comm.is_some_and(|c| d.iter().any(|&(to, dc)| to == machine && dc == c))
            });
            if is_handover {
                stats.handover_rows += 1;
                continue;
            }
            stats.rows += 1;
            for &(col, v) in &row.values {
                if v.is_finite() {
                    let (sum, n) = stats.sums.entry(col).or_insert((0.0, 0));
                    *sum += v;
                    *n += 1;
                }
            }
        }

        if self
            .open
            .as_ref()
            .is_some_and(|ow| ow.frames >= self.window)
        {
            self.close_window();
        }
    }

    /// Close the open window, resolving its interned source keys to the
    /// public `(machine, monitor)` strings — once per window, not per row.
    fn close_window(&mut self) {
        let Some(ow) = self.open.take() else { return };
        let sources = ow
            .sources
            .into_iter()
            .map(|((m, s), stats)| {
                (
                    (
                        symbols::resolve(m).to_string(),
                        symbols::resolve(s).to_string(),
                    ),
                    stats,
                )
            })
            .collect();
        self.windows.push(ClusterWindow {
            index: self.windows.len(),
            start: ow.start,
            end: ow.end,
            frames: ow.frames,
            sources,
        });
    }
}

impl ClusterFrameSink for ClusterWindowSink {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.fold(
            frame.machine.sym(),
            frame.source.sym(),
            frame.frame.time,
            &frame.frame.rows,
            None,
        );
    }

    /// The columnar fast path: aggregate straight from the batch's rows —
    /// no labelled frame is materialized, no row is moved or cloned.
    fn on_batch(&mut self, batch: &mut FrameBatch, range: Range<usize>) {
        for i in range {
            let (machine, source) = batch.labels(i);
            self.fold(
                machine,
                source,
                batch.time(i),
                batch.rows_of(i),
                Some(batch.comms_of(i)),
            );
        }
    }
}

/// One migration's handover, as the merged stream can observe it: at `at`
/// the job (command `comm`, scenario tag `tag`) exits on `from` and starts
/// on `to` — the same sim-time on both machines. Scripted migrations
/// ([`ClusterScenario::migrate_at`]) record theirs at build time, reactive
/// runs ([`ClusterSession::run_reactive`]) append as decisions apply; read
/// them back with [`ClusterSession::handovers`], e.g. to feed
/// [`ClusterWindowSink::dedupe_handovers`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandoverRecord {
    pub at: SimTime,
    pub tag: String,
    /// The job's command name — what frame rows show.
    pub comm: String,
    pub from: String,
    pub to: String,
    /// Restart-from-zero or checkpoint/resume.
    pub mode: MigrationMode,
}

/// A cross-machine workload event: the grid scheduler moves a tagged job
/// between machines at an exact instant (see
/// [`ClusterScenario::migrate_at`]).
#[derive(Debug)]
struct Migration {
    at: SimTime,
    tag: String,
    from: String,
    to: String,
    mode: MigrationMode,
}

/// Declarative description of a multi-machine experiment: one [`Scenario`]
/// per machine — each with its own machine config, seed, users, and timed
/// workload events — plus *cross-machine* events ([`migrate_at`]) that span
/// two machines and are validated against both at build time.
///
/// [`migrate_at`]: ClusterScenario::migrate_at
#[derive(Debug, Default)]
pub struct ClusterScenario {
    machines: Vec<(String, Scenario)>,
    migrations: Vec<Migration>,
    scheduler: Option<SchedulerSelect>,
}

impl ClusterScenario {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one machine. `id` labels its frames in the merged stream and
    /// must be unique; declaration order fixes the merge tie-breaker.
    pub fn machine(mut self, id: impl Into<String>, scenario: Scenario) -> Self {
        self.machines.push((id.into(), scenario));
        self
    }

    /// Fleet-wide in-kernel planner: every machine that did not pick its
    /// own [`Scenario::scheduler`] boots with this one. Applies to machines
    /// declared before *or* after the call.
    pub fn scheduler(mut self, scheduler: SchedulerSelect) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Move the job tagged `tag` from machine `from` to machine `to` at an
    /// absolute instant — the §fig10 grid-scheduler story, where a workload
    /// *moves* mid-run instead of merely co-running. Restart semantics; see
    /// [`ClusterScenario::migrate_at_mode`].
    ///
    /// The migration desugars into a kill of `tag` on `from` and a spawn of
    /// the *same job spec* (fresh on the new machine, as a scheduler
    /// re-submission restarts the binary) on `to`, both at exactly `at`:
    /// the source's exit record and the destination's start time carry the
    /// same sim-time. In the merged stream a refresh landing on `at` is the
    /// *handover frame* — the source still shows the job's final row (it
    /// ran right up to the kill instant; the kernel reaps the zombie at the
    /// next epoch) while the destination already shows its first row; from
    /// the next refresh the job lives only on the destination.
    ///
    /// Validated at build time across machines: both ids must exist and
    /// differ, `tag` must live on `from` at `at` (spawned before, not yet
    /// killed), and `to` must not carry a live task with the tag at `at`.
    /// A tag resolves to a `(machine, incarnation)` pair — each hop spawns
    /// a fresh incarnation on its destination — so migrations chain freely:
    /// onward hops (`A→B→C`) and round trips (`A→B→A`) both validate, and a
    /// machine a job already ran on can receive it again.
    pub fn migrate_at(
        self,
        at: SimTime,
        tag: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        self.migrate_at_mode(at, tag, from, to, MigrationMode::Restart)
    }

    /// [`ClusterScenario::migrate_at`] with an explicit [`MigrationMode`].
    ///
    /// In [`MigrationMode::Resume`] the kill becomes a
    /// [`WorkloadEvent::CheckpointKill`] — the source captures the task's
    /// program cursor, accumulated counters, nice and pin state at the kill
    /// instant and publishes the checkpoint on the cluster's
    /// [`HandoffBoard`] — and the spawn becomes a
    /// [`WorkloadEvent::ResumeSpawn`] that takes the checkpoint and
    /// continues the task mid-program: the resumed incarnation's exit
    /// record reports the *whole job's* totals, conserving the retired
    /// instruction count across any chain of hops.
    ///
    /// Two resume-mode hops of one tag cannot share an instant (the second
    /// would consume a checkpoint published at the same sim-time — give
    /// each hop its own instant), and same-instant resume hops must not
    /// form a machine cycle (each side would wait on the other's
    /// checkpoint); both are rejected at build time.
    pub fn migrate_at_mode(
        mut self,
        at: SimTime,
        tag: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
        mode: MigrationMode,
    ) -> Self {
        self.migrations.push(Migration {
            at,
            tag: tag.into(),
            from: from.into(),
            to: to.into(),
            mode,
        });
        self
    }

    /// Sugar for [`ClusterScenario::migrate_at_mode`] with
    /// [`MigrationMode::Resume`]: checkpoint `tag` on `from` at `at` and
    /// resume it mid-program on `to` at the same instant.
    pub fn resume_at(
        self,
        at: SimTime,
        tag: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        self.migrate_at_mode(at, tag, from, to, MigrationMode::Resume)
    }

    /// Validate every per-machine scenario *and* every cross-machine
    /// migration, then build the live [`ClusterSession`]. A scenario error
    /// is labelled with its machine; a migration error names the migration.
    pub fn build(mut self) -> Result<ClusterSession, SessionError> {
        if self.machines.is_empty() {
            return Err(SessionError::InvalidScenario(
                "cluster has no machines".into(),
            ));
        }
        if let Some(scheduler) = &self.scheduler {
            for (_, scenario) in &mut self.machines {
                scenario.default_scheduler(scheduler);
            }
        }
        {
            let mut seen = std::collections::HashSet::new();
            for (id, _) in &self.machines {
                if !seen.insert(id.clone()) {
                    return Err(SessionError::InvalidScenario(format!(
                        "duplicate machine id '{id}'"
                    )));
                }
            }
        }
        // Warm the process-wide symbol table with every machine id, so the
        // shard workers share interned ids from their first frame on and
        // never race each other into the table's write path mid-run.
        for (id, _) in &self.machines {
            symbols::intern(id);
        }

        // Desugar migrations in chronological order (stable: same-instant
        // migrations keep declaration order, so chained moves compose),
        // validating each against the machines' evolving schedules. A tag
        // resolves to a (machine, incarnation) pair, so the walk asks the
        // incarnation-aware question — "is the tag live on the source at
        // `at`?" — rather than "did the source ever spawn it?": onward
        // chains and round trips both validate.
        self.migrations.sort_by_key(|m| m.at);
        let mut handovers: Vec<HandoverRecord> = Vec::with_capacity(self.migrations.len());
        let mut handoffs: Vec<Handoff> = Vec::new();
        let mut resume_hops: std::collections::HashSet<(String, SimTime)> =
            std::collections::HashSet::new();
        for m in &self.migrations {
            let label = format!(
                "migration of '{}' {}->{} at {:?}",
                m.tag, m.from, m.to, m.at
            );
            if m.from == m.to {
                return Err(SessionError::InvalidScenario(format!(
                    "{label}: source and destination are the same machine"
                )));
            }
            let index_of = |id: &str| self.machines.iter().position(|(mid, _)| mid == id);
            let (Some(fi), Some(ti)) = (index_of(&m.from), index_of(&m.to)) else {
                let missing = if index_of(&m.from).is_none() {
                    &m.from
                } else {
                    &m.to
                };
                return Err(SessionError::InvalidScenario(format!(
                    "{label}: unknown machine '{missing}'"
                )));
            };
            if !self.machines[fi].1.tag_live_at(&m.tag, m.at) {
                let spawns = self.machines[fi].1.spawn_events(&m.tag);
                let msg = match spawns.first() {
                    Some(&(spawned, _)) if spawned > m.at => {
                        format!("{label}: precedes the job's spawn at {spawned:?}")
                    }
                    Some(_) => {
                        let killed = self.machines[fi]
                            .1
                            .kill_events(&m.tag)
                            .into_iter()
                            .filter(|k| *k <= m.at)
                            .max()
                            .expect("spawned but not live implies an earlier kill");
                        format!("{label}: the job is already gone (killed at {killed:?})")
                    }
                    None => {
                        // The source never hosts the tag at all; point at
                        // whichever machine does (live at `at` if any,
                        // otherwise any machine that ever spawns it).
                        let home = self
                            .machines
                            .iter()
                            .find(|(_, sc)| sc.tag_live_at(&m.tag, m.at))
                            .or_else(|| {
                                self.machines
                                    .iter()
                                    .find(|(_, sc)| !sc.spawn_events(&m.tag).is_empty())
                            })
                            .map(|(id, _)| id.clone());
                        match home {
                            Some(home) => {
                                format!("{label}: '{}' lives on machine '{home}'", m.tag)
                            }
                            None => format!("{label}: no machine spawns '{}'", m.tag),
                        }
                    }
                };
                return Err(SessionError::InvalidScenario(msg));
            }
            if self.machines[ti].1.tag_live_at(&m.tag, m.at) {
                return Err(SessionError::InvalidScenario(format!(
                    "{label}: destination already carries a task tagged '{}'",
                    m.tag
                )));
            }
            if m.mode == MigrationMode::Resume && !resume_hops.insert((m.tag.clone(), m.at)) {
                return Err(SessionError::InvalidScenario(format!(
                    "{label}: another resume-mode hop of '{}' shares this instant; \
                     checkpoints are keyed by (tag, instant), so give each hop \
                     its own instant",
                    m.tag
                )));
            }
            let spec = self.machines[fi]
                .1
                .spawn_events(&m.tag)
                .into_iter()
                .rev()
                .find(|(s, _)| *s <= m.at)
                .map(|(_, spec)| spec.clone())
                .expect("a live tag has a spawn at or before the instant");
            handovers.push(HandoverRecord {
                at: m.at,
                tag: m.tag.clone(),
                comm: spec.comm.clone(),
                from: m.from.clone(),
                to: m.to.clone(),
                mode: m.mode,
            });
            match m.mode {
                MigrationMode::Restart => {
                    self.machines[fi]
                        .1
                        .schedule(m.at, WorkloadEvent::Kill { tag: m.tag.clone() });
                    self.machines[ti].1.schedule(
                        m.at,
                        WorkloadEvent::Spawn {
                            tag: m.tag.clone(),
                            spec,
                        },
                    );
                }
                MigrationMode::Resume => {
                    self.machines[fi]
                        .1
                        .schedule(m.at, WorkloadEvent::CheckpointKill { tag: m.tag.clone() });
                    self.machines[ti].1.schedule(
                        m.at,
                        WorkloadEvent::ResumeSpawn {
                            tag: m.tag.clone(),
                            spec,
                        },
                    );
                    handoffs.push(Handoff {
                        at: m.at,
                        src: fi,
                        dst: ti,
                        decided: false,
                    });
                }
            }
        }

        // Same-instant resume hops hand checkpoints across machines at one
        // sim-time; the round driver publishes them in topological order,
        // which only exists if those machine edges are acyclic per instant.
        {
            let mut by_instant: BTreeMap<SimTime, Vec<(&str, &str)>> = BTreeMap::new();
            for m in &self.migrations {
                if m.mode == MigrationMode::Resume {
                    by_instant
                        .entry(m.at)
                        .or_default()
                        .push((m.from.as_str(), m.to.as_str()));
                }
            }
            for (at, edges) in by_instant {
                if validation::spawn_edge_cycle(&edges).is_some() {
                    return Err(SessionError::InvalidScenario(format!(
                        "same-instant resume migrations at {at:?} form a machine cycle: \
                         each side would wait forever for the other's checkpoint; \
                         stagger the hops across instants"
                    )));
                }
            }
        }

        // ------------------------------------------------------------------
        // Dependency edges ([`Trigger::AfterExit`]). Lift every dependency-
        // triggered event out of the machine scenarios, validate the whole
        // fleet's DAG, then classify each edge: an edge whose dependency
        // chain is scripted entirely on its own machine goes straight back
        // (the [`Session`] resolves those natively); everything else —
        // cross-machine edges, and edges keyed on a tag that is itself
        // spawned by a cross-machine edge — stays in the cluster's registry
        // and is resolved centrally by the round driver (`run_units`
        // routes to it while any edge is live).
        let mut drained: Vec<(usize, String, SimDuration, WorkloadEvent)> = Vec::new();
        for (i, (_, scenario)) in self.machines.iter_mut().enumerate() {
            for (dep, delay, ev) in scenario.drain_deferred() {
                drained.push((i, dep, delay, ev));
            }
        }
        let mut deps: Vec<ClusterDep> = Vec::new();
        if !drained.is_empty() {
            // Where each dependency-spawned tag will live: its spawn is
            // injected on the machine that declared the edge. One spawn per
            // tag, and never also a scripted one — incarnations must not
            // overlap and a dependent tag's timeline is unknown at build
            // time.
            let mut deferred_spawn_host: BTreeMap<String, usize> = BTreeMap::new();
            for (i, _, _, ev) in &drained {
                if !ev.is_spawn() {
                    continue;
                }
                let tag = ev.tag();
                if self
                    .machines
                    .iter()
                    .any(|(_, sc)| !sc.spawn_events(tag).is_empty())
                {
                    return Err(SessionError::InvalidScenario(format!(
                        "duplicate spawn tag '{tag}': spawned both at a scripted instant \
                         and by a dependency edge (incarnations of one tag must not \
                         overlap)"
                    )));
                }
                if deferred_spawn_host.insert(tag.to_string(), *i).is_some() {
                    return Err(SessionError::InvalidScenario(format!(
                        "duplicate spawn tag '{tag}': two dependency-triggered spawns \
                         (incarnations of one tag must not overlap)"
                    )));
                }
            }
            // Scripted events must not target dependency-spawned tags.
            for tag in deferred_spawn_host.keys() {
                for (_, sc) in &self.machines {
                    if let Some(at) = sc.first_timed_event_on(tag) {
                        return Err(SessionError::InvalidDag(
                            DagError::TimedEventOnDependentTag {
                                tag: tag.clone(),
                                at,
                            },
                        ));
                    }
                }
            }
            // Cluster-wide Kahn over the spawn-after edges.
            {
                let edges: Vec<(&str, &str)> = drained
                    .iter()
                    .filter(|(_, _, _, ev)| ev.is_spawn())
                    .map(|(_, dep, _, ev)| (dep.as_str(), ev.tag()))
                    .collect();
                if let Some(tags) = validation::spawn_edge_cycle(&edges) {
                    return Err(SessionError::InvalidDag(DagError::Cycle { tags }));
                }
            }
            // Resolve each edge's dependency to the machine hosting its
            // *final* incarnation. Migrations were desugared into timed
            // spawns above, so a migrated tag resolves to its last
            // destination; its completion is that incarnation's exit.
            let mut resolved: Vec<ResolvedEdge> = Vec::new();
            for (i, dep, delay, ev) in drained {
                let host = match deferred_spawn_host.get(&dep) {
                    Some(h) => *h,
                    None => {
                        let mut best: Option<(SimTime, usize)> = None;
                        let mut tie = false;
                        for (j, (_, sc)) in self.machines.iter().enumerate() {
                            let Some(last) = sc.spawn_events(&dep).last().map(|(at, _)| *at) else {
                                continue;
                            };
                            match best {
                                Some((at, _)) if at == last => tie = true,
                                Some((at, _)) if at > last => {}
                                _ => {
                                    best = Some((last, j));
                                    tie = false;
                                }
                            }
                        }
                        match best {
                            None => {
                                return Err(SessionError::InvalidDag(DagError::UnknownDependency {
                                    event_tag: ev.tag().to_string(),
                                    dependency: dep,
                                }))
                            }
                            Some(_) if tie => {
                                return Err(SessionError::InvalidScenario(format!(
                                    "dependency '{dep}' is ambiguous: two machines spawn \
                                     its final incarnation at the same instant"
                                )))
                            }
                            Some((_, j)) => j,
                        }
                    }
                };
                // A dependency whose final incarnation is checkpoint-killed
                // (migrated away and never returned) never completes.
                if self.machines[host].1.ends_checkpoint_killed(&dep) {
                    return Err(SessionError::InvalidDag(DagError::DependencyOnKilled {
                        dependency: dep,
                    }));
                }
                // A non-spawn event applies on the machine that declared it;
                // its target must live there.
                if !ev.is_spawn() {
                    let target = ev.tag();
                    let on_consumer = !self.machines[i].1.spawn_events(target).is_empty()
                        || deferred_spawn_host.get(target) == Some(&i);
                    if !on_consumer {
                        return Err(SessionError::Shard {
                            machine: self.machines[i].0.clone(),
                            error: Box::new(SessionError::InvalidScenario(format!(
                                "event against unknown tag '{target}'"
                            ))),
                        });
                    }
                }
                let min_incarnations = if deferred_spawn_host.contains_key(&dep) {
                    1
                } else {
                    self.machines[host].1.spawn_events(&dep).len().max(1)
                };
                resolved.push(ResolvedEdge {
                    consumer: i,
                    dep,
                    delay,
                    ev,
                    host,
                    min_incarnations,
                });
            }
            // Edges whose whole dependency chain is scripted on their own
            // machine go back to the Session (fixpoint: an edge counts once
            // the edge spawning its dependency went back too).
            let mut native: Vec<bool> = resolved
                .iter()
                .map(|e| {
                    e.host == e.consumer
                        && !self.machines[e.consumer].1.spawn_events(&e.dep).is_empty()
                })
                .collect();
            {
                let spawn_edge_of: BTreeMap<&str, usize> = resolved
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.ev.is_spawn())
                    .map(|(k, e)| (e.ev.tag(), k))
                    .collect();
                loop {
                    let mut changed = false;
                    for k in 0..resolved.len() {
                        if native[k] || resolved[k].host != resolved[k].consumer {
                            continue;
                        }
                        if let Some(&se) = spawn_edge_of.get(resolved[k].dep.as_str()) {
                            if native[se] && !native[k] {
                                native[k] = true;
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
            for (k, e) in resolved.into_iter().enumerate() {
                if native[k] {
                    self.machines[e.consumer].1.defer(e.dep, e.delay, e.ev);
                } else {
                    deps.push(ClusterDep {
                        consumer: e.consumer,
                        dep: e.dep,
                        host: e.host,
                        min_incarnations: e.min_incarnations,
                        delay: e.delay,
                        ev: Some(e.ev),
                    });
                }
            }
        }

        // The checkpoint transport shared by every shard's session:
        // resume-mode migrations publish and take through it.
        let board = HandoffBoard::new();
        let mut shards = Vec::with_capacity(self.machines.len());
        for (id, scenario) in self.machines {
            let mut session = scenario.build().map_err(|e| SessionError::Shard {
                machine: id.clone(),
                error: Box::new(e),
            })?;
            session.attach_handoff(board.clone());
            shards.push(ShardSlot {
                id,
                session: Some(session),
            });
        }
        Ok(ClusterSession {
            shards,
            handovers,
            handoffs,
            deps,
            last_stats: RunStats::default(),
        })
    }
}

/// One drained dependency edge with its dependency's host resolved — the
/// intermediate form between build-time validation and classification.
struct ResolvedEdge {
    consumer: usize,
    dep: String,
    delay: SimDuration,
    ev: WorkloadEvent,
    host: usize,
    min_incarnations: usize,
}

/// One cross-machine dependency edge held by the cluster: `ev` fires on
/// machine `consumer`, `delay` after the completion of `dep`'s final
/// incarnation (`min_incarnations` spawns) on machine `host`. Resolved by
/// the round driver; `ev` is taken when the edge fires, and an edge
/// whose host or consumer shard fails is dropped so the rest of the fleet
/// keeps running.
#[derive(Debug)]
struct ClusterDep {
    consumer: usize,
    dep: String,
    host: usize,
    min_incarnations: usize,
    delay: SimDuration,
    ev: Option<WorkloadEvent>,
}

/// Statistics of the most recent `run*` (see
/// [`ClusterSession::last_run_stats`]), whichever driver ran it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Frames delivered to the sink.
    pub frames: usize,
    /// Merge deliveries: lane messages carrying frames on the lane pool,
    /// rounds that produced frames on the round driver.
    pub batches: usize,
    /// Most frames held at once before delivery: the lane merge's buffers
    /// waiting on slower lanes, or the round driver's largest round.
    pub peak_buffered_frames: usize,
    /// Estimated heap bytes behind that peak. Tracked by the lane pool; the
    /// round driver reports 0 (it never measures its buffers).
    pub peak_buffered_bytes: usize,
}

struct ShardSlot {
    id: String,
    /// `None` only while a run borrows it, or after a panic tore the shard
    /// mid-epoch (the torn session is never handed back).
    session: Option<Session>,
}

/// A live cluster: every machine's [`Session`], runnable on a worker pool.
pub struct ClusterSession {
    shards: Vec<ShardSlot>,
    /// Every migration handover of this cluster, in application order:
    /// scripted ones from build time, reactive ones appended as their
    /// decisions apply.
    handovers: Vec<HandoverRecord>,
    /// The scripted resume handoffs, in instant order. Non-empty lists
    /// route every run through the round driver.
    handoffs: Vec<Handoff>,
    /// Cross-machine dependency edges, in declaration order. Live edges
    /// route every run through the round driver.
    deps: Vec<ClusterDep>,
    /// Statistics of the most recent run.
    last_stats: RunStats,
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

/// The error of [`ClusterSession::run_collect`]: the failure *plus* every
/// frame the merge delivered — per the deliver-then-error contract a
/// two-hour fleet run is not lost to one bad shard.
#[derive(Debug)]
pub struct ClusterRunError {
    pub error: SessionError,
    /// The merged stream as streamed up to pool drain, in `(time,
    /// machine)` order — the healthy machines' full runs and the failed
    /// machines' pre-failure frames.
    pub partial: Vec<ClusterFrame>,
}

impl fmt::Display for ClusterRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} merged frames preserved)",
            self.error,
            self.partial.len()
        )
    }
}

impl std::error::Error for ClusterRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

type Until = Box<dyn FnMut(&Frame) -> bool + Send>;
/// The monitor set one machine runs: each tool paired with its stop rule.
type ToolSet = Vec<(Box<dyn Monitor + Send>, Until)>;

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
    /// time, plus — after a [`ClusterSession::run_reactive`] — the
    /// handovers of every applied live decision. Feed these to
    /// [`ClusterWindowSink::dedupe_handovers`] so fleet-wide aggregates
    /// count a migrating job once at its handover instant.
    pub fn handovers(&self) -> &[HandoverRecord] {
        &self.handovers
    }

    /// Statistics of the most recent `run*` — scripted or reactive, on
    /// either driver: frames delivered, merge deliveries, and the peak
    /// buffering — the scaling bench's memory-frontier numbers.
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

    /// Drive every machine for up to `max_refreshes` frames of its own
    /// monitor, stopping a machine early when its `until` predicate says so
    /// (the stopping frame is still delivered). Work is sharded over
    /// `threads` workers (clamped to `1..=machines`); frames stream into
    /// `sink` merged by `(time, machine_index)` — deterministically, at any
    /// thread count.
    ///
    /// # Two drivers
    ///
    /// The run's own input picks the driver. A run whose machines are
    /// independent goes to the free-running lane pool: each worker steps its
    /// machines in `(time, machine)` order and ships columnar batches over
    /// its own lane into a loser-tree merge. A cluster with live
    /// cross-machine dependency edges or scripted resume handoffs couples
    /// its machines, so its runs go to the round driver (see
    /// [`ClusterSession::run_reactive`]), which advances the fleet between
    /// barriers. Both produce the same `(time, machine)` stream at any
    /// thread count.
    ///
    /// # Failure contract: deliver-then-error
    ///
    /// A shard failure does **not** tear down the run. The contract, locked
    /// by the multi-shard failure tests:
    ///
    /// * every healthy machine keeps running to completion and its frames
    ///   keep streaming into `sink` — including frames with times *after*
    ///   the failure instant (the sink sees the whole surviving fleet, then
    ///   the caller sees the error);
    /// * frames the failed machine produced *before* failing are still
    ///   merged at their proper `(time, machine)` position relative to
    ///   every other stream — never reordered around the failure;
    /// * only after every machine has finished does `run_each` return the first
    ///   failure **by machine index** (deterministic at any thread count);
    ///   when several shards fail, the later-indexed errors are dropped but
    ///   their pre-failure frames are not.
    ///
    /// Callers who need the stream on error should stream into their own
    /// sink (it is fully populated before the error returns) or use
    /// [`ClusterSession::run_collect`], whose error carries the partial
    /// merged stream.
    pub fn run_each(
        &mut self,
        threads: usize,
        max_refreshes: usize,
        mut monitor: impl FnMut(MachineRef<'_>) -> Box<dyn Monitor + Send>,
        mut until: impl FnMut(MachineRef<'_>) -> Until,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        self.run_units(
            threads,
            max_refreshes,
            |mref| vec![(monitor(mref), until(mref))],
            sink,
        )
    }

    /// Drive every machine's own *set* of monitors — [`Session::run_all`]
    /// lifted to the fleet. Each machine's `monitors(mref)` are primed
    /// together and observed on their own intervals until every one has
    /// produced `refreshes` frames. An **empty monitor set is rejected**
    /// with a typed [`SessionError::InvalidScenario`] before anything runs:
    /// a machine only advances through its observations, so an unobserved
    /// machine would silently stay frozen at its current sim-time (its
    /// events — including migrations landing on it — never applying)
    /// rather than "run unobserved". The error leaves every shard intact
    /// and the cluster re-runnable. Frames are labelled
    /// `(machine, monitor-name)` in the
    /// merged stream; same-instant frames of one machine observe (and
    /// merge) in set order, same-instant frames of different machines in
    /// machine order — so the merged stream stays byte-identical at any
    /// worker-thread count. The drivers and the failure contract are those
    /// of [`ClusterSession::run_each`].
    pub fn run_all(
        &mut self,
        threads: usize,
        refreshes: usize,
        mut monitors: impl FnMut(MachineRef<'_>) -> Vec<Box<dyn Monitor + Send>>,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        self.run_units(threads, refreshes, |mref| never_stop(monitors(mref)), sink)
    }

    /// Move every machine's session and monitor set into a [`WorkUnit`].
    /// Every set is built and validated *before* any session leaves its
    /// slot, so an error here leaves the cluster untouched and re-runnable.
    fn take_units(
        &mut self,
        tools: &mut dyn FnMut(MachineRef<'_>) -> ToolSet,
    ) -> Result<Vec<WorkUnit>, SessionError> {
        for slot in &self.shards {
            if slot.session.is_none() {
                return Err(SessionError::ShardPanicked {
                    machine: slot.id.clone(),
                    message: "session was lost to a panic in an earlier run".into(),
                });
            }
        }
        let mut per_machine: Vec<ToolSet> = Vec::with_capacity(self.shards.len());
        for (index, slot) in self.shards.iter().enumerate() {
            let set = tools(MachineRef {
                id: &slot.id,
                index,
            });
            validate_monitor_set(
                &slot.id,
                set.iter().map(|(m, _)| m.as_ref() as &dyn Monitor),
            )?;
            per_machine.push(set);
        }
        let units = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(per_machine)
            .map(|((index, slot), set)| {
                let label = Label::new(&slot.id);
                let sym = label.sym();
                WorkUnit {
                    index,
                    id: slot.id.clone(),
                    label,
                    sym,
                    session: slot.session.take().expect("checked above"),
                    slots: set
                        .into_iter()
                        .map(|(monitor, until)| {
                            let source = Label::new(monitor.name());
                            let source_sym = source.sym();
                            MonitorSlot {
                                monitor,
                                until,
                                source,
                                source_sym,
                                next_at: SimTime::ZERO,
                                taken: 0,
                                done: false,
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        Ok(units)
    }

    /// The shared entry behind [`run_each`](ClusterSession::run_each) and
    /// [`run_all`](ClusterSession::run_all): the round driver when the
    /// cluster couples its machines (live dependency edges or scripted
    /// resume handoffs), the lane pool otherwise.
    fn run_units(
        &mut self,
        threads: usize,
        max_refreshes: usize,
        mut tools: impl FnMut(MachineRef<'_>) -> ToolSet,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        let units = self.take_units(&mut tools)?;
        if !self.handoffs.is_empty() || self.deps.iter().any(|d| d.ev.is_some()) {
            return self
                .run_rounds(units, threads, max_refreshes, &mut [], sink)
                .map(|_| ());
        }
        let n = units.len();
        let threads = threads.clamp(1, n);
        let mut parts: Vec<Vec<WorkUnit>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, u) in units.into_iter().enumerate() {
            parts[i % threads].push(u);
        }

        // One single-producer lane per worker instead of a shared channel:
        // workers never contend on one sender, and the merge thread drains
        // whole lanes per wake-up instead of paying one park/unpark per
        // message.
        let hub = LaneHub::new(threads);
        // Spent batch shells cycle back to the workers through this pool,
        // so a steady-state run reuses its buffers round after round
        // instead of allocating fresh ones. Bounded: each worker only keeps
        // a couple of shells in flight, so idle shells beyond that are
        // dropped rather than hoarded for the rest of the run.
        let pool = Arc::new(ShellPool::new(2 * threads + 4));
        // Workers interleave their machines into one ordered stream each,
        // so the merge needs one queue per *worker*.
        let mut merger = BatchMerger::new(threads, pool.clone());
        let mut first_err: Option<(usize, SessionError)> = None;
        let mut returned: Vec<(usize, Option<Session>)> = Vec::with_capacity(n);

        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(queue, part)| {
                    let tx = hub.sender(queue);
                    let cfg = WorkerCfg {
                        queue,
                        pool: pool.clone(),
                    };
                    scope.spawn(move || run_worker(part, max_refreshes, tx, cfg))
                })
                .collect();

            let mut inbox: Vec<Msg> = Vec::new();
            while hub.recv_all(&mut inbox) {
                for msg in inbox.drain(..) {
                    match msg {
                        Msg::Batch(b) => merger.push(b, sink),
                        Msg::Done { queue } => merger.close(queue, sink),
                        Msg::Failed {
                            machine_index,
                            error,
                        } => {
                            if first_err.as_ref().is_none_or(|(i, _)| machine_index < *i) {
                                first_err = Some((machine_index, error));
                            }
                        }
                    }
                }
            }

            for h in handles {
                // Workers never unwind (shard panics are caught inside);
                // a join error here would be a bug in the pool itself.
                returned.extend(h.join().expect("worker thread panicked"));
            }
        });

        self.last_stats = merger.stats();
        for (index, session) in returned {
            self.shards[index].session = session;
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// [`ClusterSession::run_each`] without early stopping: every machine
    /// produces exactly `refreshes` frames.
    pub fn run(
        &mut self,
        threads: usize,
        refreshes: usize,
        monitor: impl FnMut(MachineRef<'_>) -> Box<dyn Monitor + Send>,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        self.run_each(threads, refreshes, monitor, |_| Box::new(|_| false), sink)
    }

    /// [`ClusterSession::run`] into a [`ClusterCollectSink`], returning the
    /// merged stream. On failure the error carries every frame merged
    /// before the run finished ([`ClusterRunError::partial`]) — the
    /// deliver-then-error contract means a long run's healthy shards are
    /// preserved, not discarded.
    pub fn run_collect(
        &mut self,
        threads: usize,
        refreshes: usize,
        monitor: impl FnMut(MachineRef<'_>) -> Box<dyn Monitor + Send>,
    ) -> Result<Vec<ClusterFrame>, ClusterRunError> {
        let mut sink = ClusterCollectSink::new();
        match self.run(threads, refreshes, monitor, &mut sink) {
            Ok(()) => Ok(sink.into_frames()),
            Err(error) => Err(ClusterRunError {
                error,
                partial: sink.into_frames(),
            }),
        }
    }

    /// Drive the fleet like [`ClusterSession::run_all`] — per-machine
    /// monitor sets, `refreshes` frames each, frames merged by
    /// `(time, machine)` into `sink` — while [`SchedulerPolicy`]s watch the
    /// merged stream **live** and issue migrations, closing the paper's
    /// monitor→decision loop. Returns the decisions that were applied.
    ///
    /// # The round driver
    ///
    /// Runtime decisions break the free-running worker model: a shard that
    /// has raced ahead of the merge frontier could already be *past* the
    /// instant a decision must land on. `run_reactive` therefore runs on
    /// the **round driver**, the same one behind every scripted run of a
    /// cluster with cross-machine dependency edges or resume handoffs. Each
    /// round takes the globally earliest pending observation instant `t*`
    /// and, in order:
    ///
    /// 1. resolves cross-machine dependency edges to fixpoint: an edge
    ///    whose dependency's final incarnation has exited injects its event
    ///    on the consumer at `max(exit + delay, consumer-now)`;
    /// 2. advances every resume-handoff source to its handoff instant
    ///    before any consumer crosses it (publish first; same-instant
    ///    chains in topological order), so a checkpoint is always on the
    ///    board before its destination takes it;
    /// 3. advances the machines due at `t*` concurrently on the worker
    ///    pool, each taking its observations on its own worker;
    /// 4. merges the round's frames in `(machine, monitor)` order — the
    ///    order `run_all` produces;
    /// 5. shows each frame to every policy, then delivers it to the sink.
    ///
    /// With live dependency edges, steps 1–2 repeat in epoch-bounded
    /// passes that march *every* machine to `t*`: an unresolved edge caps
    /// its consumer at `host-watermark + delay`, which keeps cross-machine
    /// firing instants exact. Without them only the machines due at `t*`
    /// advance.
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
    /// Cross-machine dependency edges work here exactly as in scripted
    /// runs. A dependency-fired event and a decision event landing at the
    /// same instant on one machine apply in the order they were scheduled.
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
    /// Scripted schedules are fully validated at build time; a live
    /// decision gets the run-time half, with infeasible requests surfacing
    /// as typed [`SessionError::InvalidDecision`]s: unknown machines,
    /// source == destination, no task with the tag on the source, a tag
    /// that already exited, a destination that currently carries a live
    /// task with the tag, or a resume-mode kill of a program that already
    /// ran to completion (nothing left to checkpoint).
    ///
    /// # Failure contract
    ///
    /// Unlike [`ClusterSession::run_each`]'s deliver-then-error, a run with
    /// policies **halts at the round barrier**: on a shard error (or an
    /// infeasible decision) the current round's healthy frames are still
    /// delivered, then the run stops — continuing without the full fleet
    /// would feed the policies a partial view and silently change their
    /// decisions. The first error by machine index is returned; healthy
    /// shards' sessions are handed back (a panicked shard's is withheld,
    /// as everywhere else). With an empty policy slice nothing can decide,
    /// and the run is a scripted [`ClusterSession::run_all`] with its
    /// deliver-then-error contract.
    ///
    /// [`Kernel::epoch_boundary_after`]: tiptop_kernel::kernel::Kernel::epoch_boundary_after
    pub fn run_reactive(
        &mut self,
        threads: usize,
        refreshes: usize,
        mut monitors: impl FnMut(MachineRef<'_>) -> Vec<Box<dyn Monitor + Send>>,
        policies: &mut [Box<dyn SchedulerPolicy>],
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<Vec<AppliedDecision>, SessionError> {
        let units = self.take_units(&mut |mref| never_stop(monitors(mref)))?;
        self.run_rounds(units, threads, refreshes, policies, sink)
    }

    /// Run `units` on the round driver, then hand the sessions back and
    /// record the run's statistics and applied handovers.
    fn run_rounds(
        &mut self,
        units: Vec<WorkUnit>,
        threads: usize,
        max_refreshes: usize,
        policies: &mut [Box<dyn SchedulerPolicy>],
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<Vec<AppliedDecision>, SessionError> {
        let n = units.len();
        let mut rounds = Rounds {
            status: vec![Status::Live; n],
            units,
            march_all: self.deps.iter().any(|d| d.ev.is_some()),
            deps: &mut self.deps,
            handoffs: self.handoffs.clone(),
            halt: !policies.is_empty(),
            policies,
            sink,
            threads,
            max_refreshes,
            first_err: None,
            stats: RunStats::default(),
            injected: Vec::new(),
            applied: Vec::new(),
            handovers: Vec::new(),
        };
        let result = rounds.run();
        self.last_stats = rounds.stats;
        self.handovers.append(&mut rounds.handovers);
        let applied = std::mem::take(&mut rounds.applied);
        for (unit, status) in rounds.units.into_iter().zip(rounds.status) {
            if status != Status::Torn {
                self.shards[unit.index].session = Some(unit.session);
            }
        }
        result.map(|()| applied)
    }
}

/// Pair every monitor with a stop rule that never fires.
fn never_stop(monitors: Vec<Box<dyn Monitor + Send>>) -> ToolSet {
    monitors
        .into_iter()
        .map(|m| {
            let until: Until = Box::new(|_| false);
            (m, until)
        })
        .collect()
}

/// Frames per [`FrameBatch`] before a worker flushes it to the merge. Big
/// enough to amortize the channel send and wake-up, small enough that the
/// merge's run-delivery latency (and its buffering of other queues) stays
/// a round or two.
const BATCH_CAP: usize = 32;

/// Per-worker transport configuration of one pool run.
struct WorkerCfg {
    /// This worker's merge queue.
    queue: usize,
    /// Spent-shell recycling pool, shared with the merge.
    pool: Arc<ShellPool>,
}

/// One monitor of one machine: its own interval clock, stop predicate and
/// observation count.
struct MonitorSlot {
    monitor: Box<dyn Monitor + Send>,
    until: Until,
    /// The monitor's name as a shared label / interned id, captured once —
    /// the hot loop never calls `name()` again.
    source: Label,
    source_sym: SymId,
    next_at: SimTime,
    taken: usize,
    done: bool,
}

struct WorkUnit {
    index: usize,
    id: String,
    /// The machine id as a shared label / interned id, captured once.
    label: Label,
    sym: SymId,
    session: Session,
    slots: Vec<MonitorSlot>,
}

/// The worker→merge fan-in: one single-producer lane per worker instead of
/// one shared [`std::sync::mpsc`] channel. A producer appends to its own
/// lane under an uncontended mutex, so workers never serialize on a shared
/// sender; the merge thread drains *every* lane per wake-up, so a busy run
/// pays one park/unpark per drained burst instead of one per message.
///
/// The sleep protocol is an eventcount: the consumer publishes `sleeping`
/// (SeqCst) *before* re-checking the lanes under the signal lock, and a
/// producer that pushed a message loads `sleeping` (SeqCst) after its push.
/// Either the producer's load observes the store — and it takes the signal
/// lock to notify, serializing with the consumer's wait — or the load ran
/// before the store in the total order, in which case the push it follows
/// is visible to the consumer's re-check. A missed wake-up is impossible.
///
/// Per-lane FIFO is all the merge needs (each merge queue is fed by exactly
/// one worker); cross-lane interleaving is as unordered as the shared
/// channel was, and the deterministic merge never depended on it.
struct LaneHub {
    lanes: Vec<Mutex<LaneState>>,
    /// True while the consumer is committing to sleep; producers that see
    /// it take the signal lock and notify.
    sleeping: AtomicBool,
    signal: Mutex<()>,
    wakeup: Condvar,
}

struct LaneState {
    buf: Vec<Msg>,
    /// Set when the lane's producer is gone (normal return or panic).
    closed: bool,
}

/// What one full sweep over the lanes yielded.
enum LanePoll {
    /// At least one message was moved into the inbox.
    Got,
    /// Nothing buffered, but producers remain.
    Empty,
    /// Every lane is closed and drained: the stream is over.
    Finished,
}

impl LaneHub {
    fn new(lanes: usize) -> Arc<Self> {
        Arc::new(LaneHub {
            lanes: (0..lanes)
                .map(|_| {
                    Mutex::new(LaneState {
                        buf: Vec::new(),
                        closed: false,
                    })
                })
                .collect(),
            sleeping: AtomicBool::new(false),
            signal: Mutex::new(()),
            wakeup: Condvar::new(),
        })
    }

    /// The single producer handle of lane `lane`. Dropping it (including
    /// by a panicking worker thread) closes the lane, like an mpsc sender
    /// disconnect.
    fn sender(self: &Arc<Self>, lane: usize) -> LaneTx {
        LaneTx {
            hub: self.clone(),
            lane,
        }
    }

    /// Wake the consumer if it is parked (or committing to park).
    fn wake(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            let _guard = self.signal.lock().expect("lane signal poisoned");
            self.wakeup.notify_one();
        }
    }

    /// Sweep every lane once, appending drained messages to `inbox`.
    fn poll(&self, inbox: &mut Vec<Msg>) -> LanePoll {
        let mut got = false;
        let mut open = false;
        for lane in &self.lanes {
            let mut state = lane.lock().expect("lane poisoned");
            if !state.buf.is_empty() {
                inbox.append(&mut state.buf);
                got = true;
            }
            if !state.closed {
                open = true;
            }
        }
        if got {
            LanePoll::Got
        } else if open {
            LanePoll::Empty
        } else {
            LanePoll::Finished
        }
    }

    /// Drain all lanes into `inbox`, blocking until at least one message
    /// arrives. Returns `false` once every lane is closed and drained.
    fn recv_all(&self, inbox: &mut Vec<Msg>) -> bool {
        loop {
            match self.poll(inbox) {
                LanePoll::Got => return true,
                LanePoll::Finished => return false,
                LanePoll::Empty => {}
            }
            let guard = self.signal.lock().expect("lane signal poisoned");
            self.sleeping.store(true, Ordering::SeqCst);
            // Re-check after publishing `sleeping`: a producer that pushed
            // before observing it is caught here, not slept through.
            let verdict = self.poll(inbox);
            match verdict {
                LanePoll::Got | LanePoll::Finished => {
                    self.sleeping.store(false, Ordering::SeqCst);
                    return matches!(verdict, LanePoll::Got);
                }
                LanePoll::Empty => {
                    // Spurious wakes loop back through the outer poll.
                    let _guard = self.wakeup.wait(guard).expect("lane signal poisoned");
                    self.sleeping.store(false, Ordering::SeqCst);
                }
            }
        }
    }
}

/// The producing end of one [`LaneHub`] lane. Not `Clone` — a lane has
/// exactly one producer, which is what keeps per-queue message order free.
struct LaneTx {
    hub: Arc<LaneHub>,
    lane: usize,
}

impl LaneTx {
    fn send(&self, msg: Msg) {
        {
            let mut state = self.hub.lanes[self.lane].lock().expect("lane poisoned");
            state.buf.push(msg);
        }
        self.hub.wake();
    }
}

impl Drop for LaneTx {
    fn drop(&mut self) {
        {
            let mut state = self.hub.lanes[self.lane].lock().expect("lane poisoned");
            state.closed = true;
        }
        self.hub.wake();
    }
}

enum Msg {
    /// A batch of consecutive frames from one worker's queue.
    Batch(FrameBatch),
    /// The queue has no more messages.
    Done { queue: usize },
    /// A machine failed; its queue still gets a `Done` when it closes.
    Failed {
        machine_index: usize,
        error: SessionError,
    },
}

/// One batched-transport merge queue: batches in arrival order, with a
/// cursor into the head batch marking how far it has been delivered.
struct BatchQueue {
    buf: VecDeque<FrameBatch>,
    /// Next undelivered frame of the head batch.
    cursor: usize,
    /// Still producing: its head bounds what may still arrive.
    open: bool,
}

impl Default for BatchQueue {
    fn default() -> Self {
        BatchQueue {
            buf: VecDeque::new(),
            cursor: 0,
            open: true,
        }
    }
}

/// A loser (tournament) tree over the merge queues' head keys — the
/// k-way merge's select-min structure. `tree[0]` names the winning leaf;
/// each internal node `1..k` stores the leaf that *lost* the match played
/// there. Replacing one leaf's key replays only the matches on that leaf's
/// root path — `O(log k)` with no allocation and, unlike a binary heap, no
/// pop/push pair per delivery: the winner is simply re-seeded in place.
/// The runner-up (the bound for run delivery) also lives on the winner's
/// root path, so reading it is `O(log k)` too, against the heap's
/// pop-peek-push dance.
struct LoserTree {
    k: usize,
    /// `tree[0]`: the overall winner; `tree[1..k]`: the loser per match.
    tree: Vec<usize>,
    /// Head key per leaf; `None` means exhausted (+∞).
    keys: Vec<Option<(SimTime, usize)>>,
}

impl LoserTree {
    fn new(k: usize) -> Self {
        let k = k.max(1);
        let mut t = LoserTree {
            k,
            tree: vec![0; k],
            keys: vec![None; k],
        };
        t.rebuild();
        t
    }

    /// Does leaf `a` beat leaf `b`? Exhausted leaves lose to live ones;
    /// the leaf index breaks exact ties deterministically (merge keys are
    /// unique across queues, so live ties only occur between `None`s).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.keys[a], &self.keys[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Bottom-up full rebuild: play every match, storing losers.
    fn rebuild(&mut self) {
        let k = self.k;
        if k == 1 {
            self.tree[0] = 0;
            return;
        }
        // Leaf `i` sits at external node `k + i`; internal node `n` plays
        // the winners of `2n` and `2n + 1`.
        let mut winner_at = vec![0usize; 2 * k];
        for i in 0..k {
            winner_at[k + i] = i;
        }
        for node in (1..k).rev() {
            let (a, b) = (winner_at[2 * node], winner_at[2 * node + 1]);
            let (winner, loser) = if self.beats(a, b) { (a, b) } else { (b, a) };
            winner_at[node] = winner;
            self.tree[node] = loser;
        }
        self.tree[0] = winner_at[1];
    }

    /// Replace leaf `leaf`'s key. For the reigning winner this replays
    /// only its root path: having won every match on the way up, the
    /// stored losers there are exactly its would-be opponents, so the
    /// local matches reconstruct the tournament — the classic `O(log k)`
    /// k-way-merge step, and this merge's hot path (the winner advances
    /// after every delivered run). For any *other* leaf that invariant
    /// does not hold (its own path stores the leaf itself at the match it
    /// lost, and its true opponent lives further up), so the bracket is
    /// re-seeded instead — the rare path, taken only when an empty queue
    /// receives a batch, and still just `O(k)` over the worker count.
    fn set(&mut self, leaf: usize, key: Option<(SimTime, usize)>) {
        let was_winner = self.tree[0] == leaf;
        self.keys[leaf] = key;
        if self.k == 1 {
            return;
        }
        if !was_winner {
            self.rebuild();
            return;
        }
        let mut winner = leaf;
        let mut node = (self.k + leaf) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if self.beats(loser, winner) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The leaf holding the minimum key, or `None` once every leaf is
    /// exhausted.
    fn winner(&self) -> Option<usize> {
        let w = self.tree[0];
        self.keys[w].map(|_| w)
    }

    /// The minimum key among every *other* leaf — the second-best key.
    /// The runner-up lost a match directly against the winner, so it is
    /// one of the losers stored on the winner's root path.
    fn runner_up(&self) -> Option<(SimTime, usize)> {
        if self.k == 1 {
            return None;
        }
        let w = self.tree[0];
        let mut best: Option<(SimTime, usize)> = None;
        let mut node = (self.k + w) / 2;
        while node >= 1 {
            if let Some(key) = self.keys[self.tree[node]] {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            node /= 2;
        }
        best
    }
}

/// The k-way merge over columnar batches — one queue per *worker*. Valid
/// because a worker always steps its earliest-keyed machine next, so each
/// worker's concatenated stream is `(time, machine_index)`-ordered; and
/// since machines are partitioned across workers, no key can appear in two
/// queues. That turns a per-frame heap pop into **run delivery**: the
/// head queue delivers every consecutive frame below the other queues'
/// minimum key with one `on_batch` call, so merge cost per frame drops
/// from `O(log n)` plus a channel message to amortized `O(1)`. The
/// frontier is a [`LoserTree`] over the queues' head keys, so advancing
/// the winning queue replays one root path in place of a heap pop/push.
///
/// Spent batch shells are cleared and pushed back into the shared pool for
/// the workers to refill.
struct BatchMerger {
    queues: Vec<BatchQueue>,
    /// Tournament over each queue's head `(time, machine_index)` key;
    /// exhausted queues hold `None`.
    frontier: LoserTree,
    /// Queues open with nothing undelivered — while any exist, the merge
    /// must wait on them.
    blocked: usize,
    pool: Arc<ShellPool>,
    delivered: usize,
    messages: usize,
    buffered_frames: usize,
    peak_frames: usize,
    buffered_bytes: usize,
    peak_bytes: usize,
}

impl BatchMerger {
    fn new(n: usize, pool: Arc<ShellPool>) -> Self {
        BatchMerger {
            queues: (0..n).map(|_| BatchQueue::default()).collect(),
            frontier: LoserTree::new(n),
            blocked: n,
            pool,
            delivered: 0,
            messages: 0,
            buffered_frames: 0,
            peak_frames: 0,
            buffered_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn stats(&self) -> RunStats {
        RunStats {
            frames: self.delivered,
            batches: self.messages,
            peak_buffered_frames: self.peak_frames,
            peak_buffered_bytes: self.peak_bytes,
        }
    }

    fn push(&mut self, batch: FrameBatch, sink: &mut dyn ClusterFrameSink) {
        self.messages += 1;
        if batch.is_empty() {
            self.pool.put(batch);
            return;
        }
        let queue = batch.queue();
        let q = &mut self.queues[queue];
        if q.buf.is_empty() {
            let key = batch.first_key().expect("non-empty");
            self.frontier.set(queue, Some(key));
            // Per-queue messages are ordered (one worker owns the queue),
            // so a batch never arrives after Done.
            if q.open {
                self.blocked -= 1;
            }
        }
        self.buffered_frames += batch.len();
        self.buffered_bytes += batch.approx_bytes();
        self.peak_frames = self.peak_frames.max(self.buffered_frames);
        self.peak_bytes = self.peak_bytes.max(self.buffered_bytes);
        q.buf.push_back(batch);
        self.drain(sink);
    }

    fn close(&mut self, queue: usize, sink: &mut dyn ClusterFrameSink) {
        let q = &mut self.queues[queue];
        if q.open {
            q.open = false;
            if q.buf.is_empty() {
                self.blocked -= 1;
            }
        }
        self.drain(sink);
    }

    fn drain(&mut self, sink: &mut dyn ClusterFrameSink) {
        while self.blocked == 0 {
            let Some(qi) = self.frontier.winner() else {
                return;
            };
            // Keys are unique across queues (machines are partitioned), so
            // every consecutive head-batch frame strictly below the next
            // queue's minimum is deliverable in one run.
            let limit = self.frontier.runner_up();
            let q = &mut self.queues[qi];
            let batch = q.buf.front_mut().expect("frontier tracks non-empty queues");
            let start = q.cursor;
            let end = match limit {
                None => batch.len(),
                Some(lim) => {
                    let mut end = start;
                    while end < batch.len() && (batch.time(end), batch.machine_index(end)) < lim {
                        end += 1;
                    }
                    end
                }
            };
            debug_assert!(end > start, "the winning head key is the global minimum");
            sink.on_batch(batch, start..end);
            self.delivered += end - start;
            self.buffered_frames -= end - start;
            if end == batch.len() {
                let spent = q.buf.pop_front().expect("head batch exists");
                self.buffered_bytes = self.buffered_bytes.saturating_sub(spent.approx_bytes());
                self.pool.put(spent);
                q.cursor = 0;
            } else {
                q.cursor = end;
            }
            match q.buf.front() {
                Some(head) => {
                    let key = (head.time(q.cursor), head.machine_index(q.cursor));
                    self.frontier.set(qi, Some(key));
                }
                None => {
                    self.frontier.set(qi, None);
                    if q.open {
                        self.blocked += 1;
                    }
                }
            }
        }
    }
}

/// One worker of the lane pool: owns a set of machines and always advances
/// the (machine, monitor) whose next observation is earliest (ties by
/// machine index, then monitor order), so the global merge frontier keeps
/// moving and the merger buffers as little as possible.
///
/// Step selection runs off a persistent min-heap over every live slot's
/// (next_at, machine index, monitor order) key: O(log n) per step instead
/// of an O(n) rescan of every owned slot, which is what dominated the
/// 1000-machine point. Entries go stale only when their unit leaves
/// `active` (teardown or failure) or their slot finishes; `slot_of` maps a
/// popped machine index back to its `active` position, with usize::MAX
/// marking a retired unit.
fn run_worker(
    units: Vec<WorkUnit>,
    max_refreshes: usize,
    tx: LaneTx,
    cfg: WorkerCfg,
) -> Vec<(usize, Option<Session>)> {
    let mut finished: Vec<(usize, Option<Session>)> = Vec::new();
    let mut active: Vec<WorkUnit> = Vec::new();
    // The batch being filled. Always bound to this worker's queue; flushed
    // when full and at the end of the run.
    let mut batch = cfg.pool.take(cfg.queue);

    for mut unit in units {
        if max_refreshes == 0 || unit.slots.is_empty() {
            finished.push((unit.index, Some(unit.session)));
            continue;
        }
        let primed = guard(&unit.id, || {
            for slot in &mut unit.slots {
                slot.monitor.prime(unit.session.kernel_mut());
            }
            Ok(())
        });
        match primed {
            Ok(()) => {
                let now = unit.session.now();
                for slot in &mut unit.slots {
                    slot.next_at = now + slot.monitor.interval();
                }
                active.push(unit);
            }
            Err(e) => {
                tx.send(Msg::Failed {
                    machine_index: unit.index,
                    error: e,
                });
                finished.push((unit.index, None));
            }
        }
    }

    let mut agenda: BinaryHeap<Reverse<(SimTime, usize, usize)>> = BinaryHeap::new();
    let max_index = active.iter().map(|u| u.index + 1).max().unwrap_or(0);
    let mut slot_of = vec![usize::MAX; max_index];
    for (p, u) in active.iter().enumerate() {
        slot_of[u.index] = p;
        for (sp, s) in u.slots.iter().enumerate() {
            agenda.push(Reverse((s.next_at, u.index, sp)));
        }
    }

    while let Some(Reverse((at, index, spos))) = agenda.pop() {
        let pos = slot_of[index];
        if pos == usize::MAX {
            // The unit already retired; skip its leftovers.
            continue;
        }
        let unit = &mut active[pos];
        if unit.slots[spos].done || unit.slots[spos].next_at != at {
            continue;
        }
        let step = {
            let session = &mut unit.session;
            let slot = &mut unit.slots[spos];
            guard(&unit.id, || {
                session.advance_to(slot.next_at)?;
                let frame = slot.monitor.observe(session.kernel_mut());
                let stop = (slot.until)(&frame);
                Ok((frame, stop))
            })
        };
        match step {
            Ok((frame, stop)) => {
                let slot = &mut unit.slots[spos];
                slot.taken += 1;
                // Move the frame's rows into the columnar batch — no label
                // allocation, no per-frame send.
                batch.push(unit.sym, unit.index, slot.source_sym, slot.taken - 1, frame);
                if batch.len() >= BATCH_CAP {
                    flush_batch(&mut batch, &tx, &cfg);
                }
                if stop || slot.taken >= max_refreshes {
                    slot.done = true;
                } else {
                    slot.next_at += slot.monitor.interval();
                    agenda.push(Reverse((slot.next_at, unit.index, spos)));
                }
                if unit.slots.iter().all(|s| s.done) {
                    let mut done = active.swap_remove(pos);
                    retire_slot(&mut slot_of, done.index, pos, &active);
                    // A teardown panic tears the shard like an observe
                    // panic would: surface it and withhold the session.
                    let torn_down = guard(&done.id, || {
                        for slot in &mut done.slots {
                            slot.monitor.teardown(done.session.kernel_mut());
                        }
                        Ok(())
                    });
                    match torn_down {
                        Ok(()) => finished.push((done.index, Some(done.session))),
                        Err(error) => {
                            tx.send(Msg::Failed {
                                machine_index: done.index,
                                error,
                            });
                            finished.push((done.index, None));
                        }
                    }
                }
            }
            Err(e) => {
                let failed = active.swap_remove(pos);
                retire_slot(&mut slot_of, failed.index, pos, &active);
                // A panic may have torn the shard mid-epoch; only a clean
                // SessionError hands the session back.
                let torn = matches!(e, SessionError::ShardPanicked { .. });
                let error = match e {
                    e @ SessionError::ShardPanicked { .. } => e,
                    other => SessionError::Shard {
                        machine: failed.id.clone(),
                        error: Box::new(other),
                    },
                };
                tx.send(Msg::Failed {
                    machine_index: failed.index,
                    error,
                });
                finished.push((failed.index, (!torn).then_some(failed.session)));
            }
        }
    }
    // Last frames out, then close this worker's queue.
    flush_batch(&mut batch, &tx, &cfg);
    tx.send(Msg::Done { queue: cfg.queue });
    finished
}

/// One resume-mode checkpoint handoff: `src` publishes the checkpoint at
/// `at` and `dst` takes it at the same instant.
#[derive(Clone, Copy, Debug)]
struct Handoff {
    at: SimTime,
    src: usize,
    dst: usize,
    /// A live decision's handoff: a failed publish is the decision's
    /// fault, so its typed [`SessionError::InvalidDecision`] surfaces
    /// unwrapped.
    decided: bool,
}

/// One live decision's injected event pair, for the end-of-run flush and
/// the error-path rollback.
struct InjectedDecision {
    at: SimTime,
    tag: String,
    /// Source / destination machine indices.
    src: usize,
    dst: usize,
}

/// Lifecycle of one machine on the round driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Nothing to observe: never primed, never advanced, handed back
    /// untouched.
    Idle,
    Live,
    /// Failed with a typed error: it no longer advances or observes, and
    /// its session is handed back.
    Failed,
    /// A panic tore the shard mid-epoch: its session is never handed back.
    Torn,
}

/// The round-barrier driver behind [`ClusterSession::run_reactive`] and
/// every scripted run of a cluster whose machines are coupled by live
/// dependency edges or resume handoffs. The five steps of a round are
/// documented on `run_reactive`; a scripted run is a run with no policies.
struct Rounds<'a> {
    /// Every machine, in index order.
    units: Vec<WorkUnit>,
    /// Per machine index.
    status: Vec<Status>,
    deps: &'a mut [ClusterDep],
    /// Resume handoffs not yet published: the scripted ones, plus live
    /// resume decisions as they apply.
    handoffs: Vec<Handoff>,
    policies: &'a mut [Box<dyn SchedulerPolicy>],
    sink: &'a mut dyn ClusterFrameSink,
    threads: usize,
    max_refreshes: usize,
    /// The run started with live dependency edges: every live machine
    /// marches to each round's instant in passes capped by the edges.
    /// Otherwise only the machines due at the instant advance.
    march_all: bool,
    /// Halt at the first failing barrier (runs with policies) instead of
    /// delivering the whole surviving fleet, then erroring.
    halt: bool,
    /// The failure to report; the lowest machine index wins.
    first_err: Option<(usize, SessionError)>,
    stats: RunStats,
    injected: Vec<InjectedDecision>,
    applied: Vec<AppliedDecision>,
    /// Handovers of the applied decisions.
    handovers: Vec<HandoverRecord>,
}

impl Rounds<'_> {
    /// Run the rounds, then tear every primed machine's monitors down — on
    /// the error path too, since healthy sessions are handed back and must
    /// not keep leaked counter fds attached.
    fn run(&mut self) -> Result<(), SessionError> {
        let mut result = self.rounds();
        for i in 0..self.units.len() {
            if !matches!(self.status[i], Status::Live | Status::Failed) {
                continue;
            }
            let unit = &mut self.units[i];
            let torn_down = guard(&unit.id, || {
                for slot in &mut unit.slots {
                    slot.monitor.teardown(unit.session.kernel_mut());
                }
                Ok(())
            });
            // A teardown panic tears the shard like an observe panic
            // would, but never masks the rounds' own error.
            if let Err(e) = torn_down {
                self.status[i] = Status::Torn;
                self.record(i, e);
            }
        }
        if result.is_ok() {
            if let Some((_, e)) = self.first_err.take() {
                result = Err(e);
            }
        }
        if result.is_err() {
            self.rollback();
        }
        self.prune_handovers();
        result
    }

    /// Prime, run a round per pending observation instant, then land the
    /// decision events scheduled past the final observation.
    fn rounds(&mut self) -> Result<(), SessionError> {
        // Priming advances no time, so it runs serially. A machine with
        // nothing to observe sits the run out untouched.
        for i in 0..self.units.len() {
            let unit = &mut self.units[i];
            if self.max_refreshes == 0 || unit.slots.is_empty() {
                self.status[i] = Status::Idle;
                continue;
            }
            let primed = guard(&unit.id, || {
                for slot in &mut unit.slots {
                    slot.monitor.prime(unit.session.kernel_mut());
                }
                Ok(())
            });
            match primed {
                Ok(()) => {
                    let now = unit.session.now();
                    for slot in &mut unit.slots {
                        slot.next_at = now + slot.monitor.interval();
                    }
                }
                Err(e) => self.fail(i, e, false),
            }
        }
        self.check()?;
        loop {
            // The globally earliest pending observation instant.
            let t_star = self
                .live()
                .flat_map(|u| u.slots.iter().filter(|s| !s.done).map(|s| s.next_at))
                .min();
            let Some(t_star) = t_star else { break };
            self.march(t_star)?;
            self.observe(t_star)?;
        }
        self.flush()
    }

    fn live(&self) -> impl Iterator<Item = &WorkUnit> {
        self.units
            .iter()
            .zip(&self.status)
            .filter(|(_, s)| **s == Status::Live)
            .map(|(u, _)| u)
    }

    /// Steps 1 and 2: resolve dependency edges and publish resume
    /// checkpoints up to `t_star`. With live edges every live machine
    /// marches to `t_star` in passes; without them only the machines due
    /// at `t_star` advance, in [`Rounds::observe`].
    fn march(&mut self, t_star: SimTime) -> Result<(), SessionError> {
        if !self.march_all {
            self.publish(t_star, None);
            return self.check();
        }
        loop {
            self.resolve_deps();
            self.check()?;
            if self.live().all(|u| u.session.now() >= t_star) {
                return Ok(());
            }
            let mut targets = self.pass_targets(t_star);
            let published = self.publish(t_star, Some(&mut targets));
            self.check()?;
            let work: Vec<(&mut WorkUnit, SimTime)> = self
                .units
                .iter_mut()
                .zip(&self.status)
                .zip(targets)
                .filter_map(|((u, s), t)| {
                    let t = t.filter(|t| *s == Status::Live && *t > u.session.now())?;
                    Some((u, t))
                })
                .collect();
            if work.is_empty() {
                if published {
                    continue;
                }
                // Unreachable given the epoch floor and build-time
                // rejection of same-instant resume cycles; defensive.
                drop(work);
                let stuck: Vec<String> = self
                    .live()
                    .filter(|u| u.session.now() < t_star)
                    .map(|u| u.id.clone())
                    .collect();
                return Err(SessionError::InvalidScenario(format!(
                    "cross-machine dependency stall at {t_star:?}: machines {stuck:?} \
                     cannot advance (mutually gated handoffs)"
                )));
            }
            let results = on_workers(self.threads, work, |(u, t)| {
                let session = &mut u.session;
                (u.index, guard(&u.id, || session.advance_to(t)))
            });
            for (i, r) in results {
                if let Err(e) = r {
                    self.fail(i, e, false);
                }
            }
            self.check()?;
        }
    }

    /// Resolve dependency completions to fixpoint: an injected event can
    /// apply immediately (its instant may be the consumer's now) and end a
    /// task another edge keys on. An edge whose host or consumer is out of
    /// the run can never fire and is dropped, so the rest of the fleet
    /// runs free.
    fn resolve_deps(&mut self) {
        loop {
            let mut any = false;
            for k in 0..self.deps.len() {
                let d = &mut self.deps[k];
                if d.ev.is_none() {
                    continue;
                }
                let (host, consumer) = (d.host, d.consumer);
                if self.status[host] != Status::Live {
                    d.ev = None;
                    continue;
                }
                let Some(exit) = self.units[host]
                    .session
                    .completion_of(&d.dep, d.min_incarnations)
                else {
                    continue;
                };
                let Some(ev) = d.ev.take() else { continue };
                if self.status[consumer] != Status::Live {
                    continue;
                }
                let fire = exit + d.delay;
                let unit = &mut self.units[consumer];
                let fire = fire.max(unit.session.now());
                let session = &mut unit.session;
                if let Err(e) = guard(&unit.id, || session.schedule_at(fire, ev)) {
                    self.fail(consumer, e, false);
                }
                any = true;
            }
            if !any {
                break;
            }
        }
    }

    /// One marching pass's targets, from pass-start watermarks. An
    /// unresolved edge caps its consumer at `host-watermark + delay`:
    /// completions at or before the watermark resolved already, so the
    /// edge cannot fire at or before that cap — advancing to it is safe
    /// and keeps the eventual injection exact. The epoch floor keeps
    /// mutually-gated machines moving.
    fn pass_targets(&self, t_star: SimTime) -> Vec<Option<SimTime>> {
        let w: Vec<Option<SimTime>> = self
            .units
            .iter()
            .zip(&self.status)
            .map(|(u, s)| (*s == Status::Live).then(|| u.session.now()))
            .collect();
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let now = w[i].filter(|now| *now < t_star)?;
                let mut cap = t_star;
                for d in self
                    .deps
                    .iter()
                    .filter(|d| d.ev.is_some() && d.consumer == i)
                {
                    if let Some(wh) = w[d.host] {
                        cap = cap.min(wh + d.delay);
                    }
                }
                let target = cap
                    .max(u.session.kernel().epoch_boundary_after(now))
                    .min(t_star);
                (target > now).then_some(target)
            })
            .collect()
    }

    /// Step 2, publish first: advance each resume-handoff source to its
    /// handoff instant before any consumer crosses it. A source first
    /// waits for every handoff into it at or before its own instant, so
    /// same-instant chains publish in topological order. `advance_to`
    /// stops at every event instant anyway, so the split advance changes
    /// nothing observable.
    ///
    /// In a marching pass (`targets`), a source publishes only once its
    /// pass target reaches the instant, and a consumer whose target would
    /// cross a still-unpublished handoff holds for the pass. Returns
    /// whether any source moved.
    fn publish(&mut self, t_star: SimTime, targets: Option<&mut [Option<SimTime>]>) -> bool {
        let mut moved = false;
        loop {
            // A handoff is settled once its source reached the instant (the
            // checkpoint is on the board) or failed (the consumer's
            // ResumeSpawn then fails with a typed error).
            let (units, status) = (&self.units, &self.status);
            self.handoffs
                .retain(|h| status[h.src] == Status::Live && units[h.src].session.now() < h.at);
            let ready = self.handoffs.iter().copied().find(|h| {
                h.at <= t_star
                    && targets
                        .as_deref()
                        .is_none_or(|t| t[h.src].is_some_and(|t| t >= h.at))
                    && !self.handoffs.iter().any(|g| g.dst == h.src && g.at <= h.at)
            });
            let Some(h) = ready else { break };
            let unit = &mut self.units[h.src];
            let session = &mut unit.session;
            if let Err(e) = guard(&unit.id, || session.advance_to(h.at)) {
                self.fail(h.src, e, h.decided);
            }
            moved = true;
        }
        if let Some(targets) = targets {
            for h in &self.handoffs {
                if targets[h.dst].is_some_and(|t| t >= h.at) {
                    targets[h.dst] = None;
                }
            }
        }
        moved
    }

    /// Steps 3–5: advance the machines due at `t_star` concurrently, each
    /// taking its due observations on its own worker; merge the round in
    /// `(machine, monitor)` order — exactly the `(time, machine)` merge,
    /// since every frame shares `t_star`; show each frame to every policy
    /// and deliver it; then apply the round's decisions.
    fn observe(&mut self, t_star: SimTime) -> Result<(), SessionError> {
        let max_refreshes = self.max_refreshes;
        let due: Vec<&mut WorkUnit> = self
            .units
            .iter_mut()
            .zip(&self.status)
            .filter(|(u, s)| {
                **s == Status::Live && u.slots.iter().any(|sl| !sl.done && sl.next_at == t_star)
            })
            .map(|(u, _)| u)
            .collect();
        // Taking observations is cheap next to advancing: when the march
        // already brought every due machine to `t_star`, a worker would
        // cost more to start than it saves.
        let threads = if due.iter().all(|u| u.session.now() >= t_star) {
            1
        } else {
            self.threads
        };
        let mut round = on_workers(threads, due, |u| observe_due(u, t_star, max_refreshes));
        round.sort_by_key(|(index, _, _)| *index);

        let mut decisions: Vec<(String, MigrationDecision)> = Vec::new();
        let mut delivered = 0usize;
        for (index, frames, r) in round {
            for frame in frames {
                for p in self.policies.iter_mut() {
                    for d in p.observe(&frame) {
                        decisions.push((p.name().to_string(), d));
                    }
                }
                self.sink.on_frame(frame);
                delivered += 1;
            }
            if let Err(e) = r {
                self.fail(index, e, false);
            }
        }
        if delivered > 0 {
            self.stats.frames += delivered;
            self.stats.batches += 1;
            self.stats.peak_buffered_frames = self.stats.peak_buffered_frames.max(delivered);
        }
        self.check()?;
        for (policy, decision) in decisions {
            self.apply_decision(policy, decision, t_star)?;
        }
        Ok(())
    }

    /// A decision fired on the final round scheduled its kill/spawn past
    /// the last observation; land those events so every reported
    /// [`AppliedDecision`] (and handover record) really happened. Two
    /// phases, both keyed to sim-time (no frames are produced, so
    /// determinism is unaffected): first land every injection's events in
    /// injection order — the source reaches the handoff instant before its
    /// destination, so a resume checkpoint is always published before the
    /// ResumeSpawn takes it, and no machine moves *past* an instant while
    /// later handoffs are still pending — then advance every involved
    /// machine one epoch past its latest instant, reaping the source's
    /// zombie into its exit record.
    fn flush(&mut self) -> Result<(), SessionError> {
        for phase in 0..2 {
            for k in 0..self.injected.len() {
                let (at, src, dst) = {
                    let inj = &self.injected[k];
                    (inj.at, inj.src, inj.dst)
                };
                for index in [src, dst] {
                    let unit = &mut self.units[index];
                    let target = if phase == 0 {
                        at
                    } else {
                        unit.session.kernel().epoch_boundary_after(at)
                    };
                    if unit.session.now() >= target {
                        continue;
                    }
                    let session = &mut unit.session;
                    if let Err(e) = guard(&unit.id, || session.advance_to(target)) {
                        // A resume-mode kill that found its program already
                        // completed is the decision's fault, not the
                        // shard's.
                        self.fail(index, e, true);
                        return self.check();
                    }
                }
            }
        }
        Ok(())
    }

    /// Take machine `i` out of the run: a panic tears it; any other error
    /// is labelled with the machine, except a live decision's own typed
    /// [`SessionError::InvalidDecision`] (`decided`), which surfaces as is.
    fn fail(&mut self, i: usize, e: SessionError, decided: bool) {
        let torn = matches!(e, SessionError::ShardPanicked { .. });
        self.status[i] = if torn { Status::Torn } else { Status::Failed };
        let error = match e {
            e @ SessionError::ShardPanicked { .. } => e,
            e @ SessionError::InvalidDecision(_) if decided => e,
            other => SessionError::Shard {
                machine: self.units[i].id.clone(),
                error: Box::new(other),
            },
        };
        self.record(i, error);
    }

    fn record(&mut self, i: usize, error: SessionError) {
        if self.first_err.as_ref().is_none_or(|(j, _)| i < *j) {
            self.first_err = Some((i, error));
        }
    }

    /// The barrier check: a halting run stops at the first barrier that saw
    /// a failure; a deliver-then-error run keeps going.
    fn check(&mut self) -> Result<(), SessionError> {
        match self.first_err.take() {
            Some((_, e)) if self.halt => Err(e),
            kept => {
                self.first_err = kept;
                Ok(())
            }
        }
    }

    /// Validate one live decision against the live sessions (the run-time
    /// half of migration validation) and inject its kill + spawn at the
    /// next epoch boundary after the deciding frame.
    fn apply_decision(
        &mut self,
        policy: String,
        d: MigrationDecision,
        decided_at: SimTime,
    ) -> Result<(), SessionError> {
        let label = format!(
            "{policy}: migrate '{}' {}->{} decided at {decided_at:?}",
            d.tag, d.from, d.to
        );
        let infeasible = |msg: String| SessionError::InvalidDecision(format!("{label}: {msg}"));
        if d.from == d.to {
            return Err(infeasible(
                "source and destination are the same machine".into(),
            ));
        }
        let position = |id: &str| self.units.iter().position(|u| u.id == id);
        let (Some(fi), Some(ti)) = (position(&d.from), position(&d.to)) else {
            let missing = if position(&d.from).is_none() {
                &d.from
            } else {
                &d.to
            };
            return Err(infeasible(format!("unknown machine '{missing}'")));
        };
        let src = &self.units[fi].session;
        let Some(pid) = src.pid(&d.tag) else {
            return Err(infeasible(format!(
                "no task tagged '{}' on '{}'",
                d.tag, d.from
            )));
        };
        if !src.kernel().is_alive(pid) {
            return Err(infeasible(format!("'{}' already exited", d.tag)));
        }
        // Checked *before* touching the destination, so a rejected duplicate
        // claim (two same-round decisions fighting over one job) leaves no
        // stray spawn behind.
        if let Some(kill_at) = src.pending_kill(&d.tag) {
            return Err(infeasible(format!(
                "'{}' is already claimed by another decision (kill pending at {kill_at:?})",
                d.tag
            )));
        }
        let Some(spec) = src.job_spec(&d.tag).cloned() else {
            return Err(infeasible(format!(
                "'{}' retains no job spec on '{}'",
                d.tag, d.from
            )));
        };
        // Between rounds no machine's clock is past the deciding frame, so the
        // next epoch boundary after it is strictly ahead of both sessions.
        let at = src.kernel().epoch_boundary_after(decided_at);
        // A resume decision whose destination is itself the source of
        // another resume handoff at the same instant would chain two
        // handoffs through one machine at one sim-time. Publishing orders
        // such chains only while they stay acyclic, which one more live
        // edge can break, so same-instant resume chains are rejected.
        if d.mode == MigrationMode::Resume
            && self.handoffs.iter().any(|h| h.at == at && h.src == ti)
        {
            return Err(infeasible(format!(
                "machine '{}' is already the source of a resume handoff applying at \
                 {at:?}; same-instant resume chains are not supported",
                d.to
            )));
        }
        let comm = spec.comm.clone();
        // Re-label the sessions' own InvalidDecision messages with the
        // decision context before surfacing them.
        let relabel = |e: SessionError| match e {
            SessionError::InvalidDecision(msg) => {
                SessionError::InvalidDecision(format!("{label}: {msg}"))
            }
            other => other,
        };
        let (spawn_ev, kill_ev) = match d.mode {
            MigrationMode::Restart => (
                WorkloadEvent::Spawn {
                    tag: d.tag.clone(),
                    spec,
                },
                WorkloadEvent::Kill { tag: d.tag.clone() },
            ),
            MigrationMode::Resume => (
                WorkloadEvent::ResumeSpawn {
                    tag: d.tag.clone(),
                    spec,
                },
                WorkloadEvent::CheckpointKill { tag: d.tag.clone() },
            ),
        };
        self.units[ti]
            .session
            .schedule_at(at, spawn_ev)
            .map_err(relabel)?;
        self.units[fi]
            .session
            .schedule_at(at, kill_ev)
            .map_err(relabel)?;
        if d.mode == MigrationMode::Resume {
            self.handoffs.push(Handoff {
                at,
                src: fi,
                dst: ti,
                decided: true,
            });
        }
        self.injected.push(InjectedDecision {
            at,
            tag: d.tag.clone(),
            src: fi,
            dst: ti,
        });
        self.applied.push(AppliedDecision {
            policy,
            tag: d.tag.clone(),
            from: d.from.clone(),
            to: d.to.clone(),
            decided_at,
            applied_at: at,
            mode: d.mode,
        });
        self.handovers.push(HandoverRecord {
            at,
            tag: d.tag,
            comm,
            from: d.from,
            to: d.to,
            mode: d.mode,
        });
        Ok(())
    }

    /// The run halted before some decisions' kill/spawn could apply. Keep
    /// the fleet consistent: a decision that applied on *neither* side is
    /// rolled back (both events cancelled), one that applied on one side
    /// is *completed* on the other — the lagging machine is advanced past
    /// the instant, producing no frames — so after any run every decision
    /// either fully happened (and is recorded in `handovers()`) or never
    /// did; a handed-back cluster can never perform a silent, unrecorded
    /// migration on a later run.
    fn rollback(&mut self) {
        let (units, status) = (&mut self.units, &mut self.status);
        for inj in &self.injected {
            let src_applied = units[inj.src].session.now() >= inj.at;
            let dst_applied = units[inj.dst].session.now() >= inj.at;
            match (src_applied, dst_applied) {
                (false, false) => {
                    units[inj.src].session.cancel_scheduled(inj.at, &inj.tag);
                    units[inj.dst].session.cancel_scheduled(inj.at, &inj.tag);
                }
                (true, true) => {}
                _ => {
                    // Advance both sides one epoch past the instant: the
                    // lagging side applies its event, the other side reaps
                    // its zombie into the exit record.
                    for index in [inj.src, inj.dst] {
                        if status[index] == Status::Torn {
                            continue;
                        }
                        let unit = &mut units[index];
                        let target = unit.session.kernel().epoch_boundary_after(inj.at);
                        if unit.session.now() >= target {
                            continue;
                        }
                        let session = &mut unit.session;
                        let r = guard(&unit.id, || session.advance_to(target));
                        if matches!(r, Err(SessionError::ShardPanicked { .. })) {
                            status[index] = Status::Torn;
                        }
                        // A clean completion failure (e.g. the kill racing
                        // a natural exit) is swallowed: the original error
                        // stands, and the ground-truth prune keeps only
                        // records of migrations that really happened.
                    }
                }
            }
            // If the source's kill mis-fired — the job retired its last
            // instruction inside the decision-to-boundary window and the
            // kill hit a tombstone — the decision did not happen: revert
            // the destination (cancel a still-pending spawn, kill an
            // already-started clone) so the handed-back fleet carries no
            // unrecorded restarted copy of a job that finished on its own.
            let src = &units[inj.src].session;
            let killed_at_boundary = src.pid(&inj.tag).is_some_and(|pid| {
                let k = src.kernel();
                match k.exit_record(pid) {
                    Some(rec) => rec.end_time == inj.at,
                    None => {
                        src.now() < inj.at
                            || k.stat(pid).is_some_and(|st| st.state == TaskState::Zombie)
                    }
                }
            });
            if !killed_at_boundary {
                let dst = &mut units[inj.dst].session;
                dst.cancel_scheduled(inj.at, &inj.tag);
                if let Some(pid) = dst.pid(&inj.tag) {
                    if dst.kernel().is_alive(pid) {
                        let _ = dst.kernel_mut().kill(pid);
                    }
                }
            }
        }
    }

    /// [`ClusterSession::handovers`] promises *applied* migrations. A run
    /// that errors mid-flight may have scheduled decisions whose kill/spawn
    /// never executed (or only half did); keep a record only when the
    /// destination resolved the spawned tag AND the source's task ended at
    /// exactly the handover instant (an earlier end time means the job
    /// exited on its own and the migration's kill mis-fired). On success
    /// the final flush guarantees both, so this prunes nothing.
    fn prune_handovers(&mut self) {
        let units = &self.units;
        self.handovers.retain(|h| {
            let unit = |id: &str| units.iter().find(|u| u.id == *id);
            let spawned = unit(&h.to).is_some_and(|u| u.session.pid(&h.tag).is_some());
            let killed = unit(&h.from).is_some_and(|u| {
                u.session.pid(&h.tag).is_some_and(|pid| {
                    match u.session.kernel().exit_record(pid) {
                        Some(rec) => rec.end_time == h.at,
                        // Applied but not yet reaped: the clock stopped on
                        // the application instant itself.
                        None => {
                            u.session.now() >= h.at
                                && u.session
                                    .kernel()
                                    .stat(pid)
                                    .is_some_and(|st| st.state == TaskState::Zombie)
                        }
                    }
                })
            });
            spawned && killed
        });
    }
}

/// Advance one due machine to the round instant and take each of its
/// observations due then, in monitor order, panics contained. Returns the
/// machine index, the frames taken, and the failure that stopped it, if
/// any (frames taken before a failure are still delivered).
fn observe_due(
    u: &mut WorkUnit,
    t_star: SimTime,
    max_refreshes: usize,
) -> (usize, Vec<ClusterFrame>, Result<(), SessionError>) {
    let mut frames = Vec::new();
    let r = guard(&u.id, || {
        u.session.advance_to(t_star)?;
        for slot in u
            .slots
            .iter_mut()
            .filter(|s| !s.done && s.next_at == t_star)
        {
            let frame = slot.monitor.observe(u.session.kernel_mut());
            let stop = (slot.until)(&frame);
            slot.taken += 1;
            frames.push(ClusterFrame {
                machine: u.label.clone(),
                machine_index: u.index,
                source: slot.source.clone(),
                seq: slot.taken - 1,
                frame,
            });
            if stop || slot.taken >= max_refreshes {
                slot.done = true;
            } else {
                slot.next_at += slot.monitor.interval();
            }
        }
        Ok(())
    });
    (u.index, frames, r)
}

/// Run `f` on every item across up to `threads` workers: the calling
/// thread takes the first share and scoped threads the rest, so a phase
/// with one mover (or one thread) spawns nothing. Results come back grouped
/// by worker; callers needing machine order sort them.
fn on_workers<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let mut parts: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        parts[k % workers].push(item);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter();
        let mine = parts.next().unwrap_or_default();
        let handles: Vec<_> = parts
            .map(|part| scope.spawn(move || part.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = mine.into_iter().map(f).collect();
        for h in handles {
            // `f` contains shard panics itself; a join error here would be
            // a bug in the driver.
            out.extend(h.join().expect("round worker panicked"));
        }
        out
    })
}

/// Book-keeping for the heap-selection path after `active.swap_remove(pos)`:
/// void the retired unit's map entry and re-point the unit that moved into
/// `pos` (the former tail, if any).
fn retire_slot(slot_of: &mut [usize], removed_index: usize, pos: usize, active: &[WorkUnit]) {
    slot_of[removed_index] = usize::MAX;
    if let Some(moved) = active.get(pos) {
        slot_of[moved.index] = pos;
    }
}

/// Send the filled batch to the merge, leaving a fresh (usually recycled)
/// shell in its place. No-op on an empty batch.
fn flush_batch(batch: &mut FrameBatch, tx: &LaneTx, cfg: &WorkerCfg) {
    if batch.is_empty() {
        return;
    }
    let full = std::mem::replace(batch, cfg.pool.take(cfg.queue));
    tx.send(Msg::Batch(full));
}

/// Reject monitor sets that cannot drive a machine — shared by
/// [`ClusterSession::run_all`]/[`ClusterSession::run_each`] and
/// [`ClusterSession::run_reactive`]: an empty set (the machine would stay
/// frozen at its current sim-time, since machines only advance through
/// their observations) and zero-interval monitors (which would never let
/// time advance).
fn validate_monitor_set<'a>(
    machine: &str,
    monitors: impl Iterator<Item = &'a (dyn Monitor + 'a)>,
) -> Result<(), SessionError> {
    let mut any = false;
    for m in monitors {
        any = true;
        if m.interval().is_zero() {
            return Err(SessionError::InvalidScenario(format!(
                "machine '{machine}': monitor '{}' has a zero refresh interval",
                m.name()
            )));
        }
    }
    if !any {
        return Err(SessionError::InvalidScenario(format!(
            "machine '{machine}': empty monitor set — a machine only advances through \
             its observations, so it would stay frozen at its current sim-time; \
             give every machine at least one monitor"
        )));
    }
    Ok(())
}

/// Run `f`, converting an unwind into a typed [`SessionError::ShardPanicked`]
/// so one shard's panic never poisons the pool.
fn guard<T>(machine: &str, f: impl FnOnce() -> Result<T, SessionError>) -> Result<T, SessionError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(SessionError::ShardPanicked {
            machine: machine.to_string(),
            message: panic_message(payload),
        }),
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Compile-time proof that a whole shard (session + stack below it) can
/// move to a worker thread.
#[allow(dead_code)]
fn assert_shard_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Session>();
}

#[cfg(test)]
mod loser_tree_tests {
    use super::LoserTree;
    use tiptop_machine::time::SimTime;

    fn key(t: u64, mi: usize) -> Option<(SimTime, usize)> {
        Some((SimTime(t), mi))
    }

    /// The reference answer: a linear scan for the minimum live key.
    fn naive_winner(keys: &[Option<(SimTime, usize)>]) -> Option<usize> {
        keys.iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (k, i)))
            .min()
            .map(|(_, i)| i)
    }

    fn naive_runner_up(
        keys: &[Option<(SimTime, usize)>],
        winner: usize,
    ) -> Option<(SimTime, usize)> {
        keys.iter()
            .enumerate()
            .filter(|(i, _)| *i != winner)
            .filter_map(|(_, k)| *k)
            .min()
    }

    fn check(t: &LoserTree, keys: &[Option<(SimTime, usize)>]) {
        assert_eq!(t.winner(), naive_winner(keys));
        if let Some(w) = t.winner() {
            assert_eq!(t.runner_up(), naive_runner_up(keys, w));
        }
    }

    #[test]
    fn non_winner_update_does_not_clobber_the_champion() {
        // The regression that motivated re-seeding on non-winner updates:
        // leaf 0 holds the minimum, leaf 1 (exhausted, stored as the loser
        // of its own match) receives a *larger* key. A naive root-path
        // replay meets only itself on the way up and overwrites tree[0].
        let mut t = LoserTree::new(2);
        t.set(0, key(5, 0));
        t.set(1, key(7, 1));
        let keys = [key(5, 0), key(7, 1)];
        check(&t, &keys);
        assert_eq!(t.winner(), Some(0));
    }

    #[test]
    fn tracks_min_through_mixed_updates() {
        // Odd width, winner advances, queues empty out and refill — every
        // state checked against a linear scan.
        for k in 1..=9usize {
            let mut t = LoserTree::new(k);
            let mut keys: Vec<Option<(SimTime, usize)>> = vec![None; k];
            // Deterministic pseudo-random walk (LCG); no rand dependency.
            let mut state: u64 = 0x2545_f491_4f6c_dd1d;
            let mut step = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for round in 0..200 {
                let r = step();
                let leaf = (r as usize) % k;
                // Merge keys are unique across queues: embed the leaf in
                // the machine-index tie-breaker like the real merge does.
                let next = if r % 5 == 0 {
                    None
                } else {
                    key(1 + round as u64 * 10 + (r % 7), leaf)
                };
                keys[leaf] = next;
                t.set(leaf, next);
                check(&t, &keys);
                // Advance the winner (the hot path) every other round.
                if round % 2 == 1 {
                    if let Some(w) = t.winner() {
                        let bumped = key(1000 + round as u64 * 3, w);
                        keys[w] = bumped;
                        t.set(w, bumped);
                        check(&t, &keys);
                    }
                }
            }
        }
    }

    #[test]
    fn exhausting_every_leaf_empties_the_tree() {
        let mut t = LoserTree::new(4);
        for i in 0..4 {
            t.set(i, key(10 + i as u64, i));
        }
        for _ in 0..4 {
            let w = t.winner().expect("live leaves remain");
            t.set(w, None);
        }
        assert_eq!(t.winner(), None);
        assert_eq!(t.runner_up(), None);
    }
}
