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
//! round's frames in machine order, and lets policies decide
//! (the steps of a round are documented on
//! [`ClusterSession::run_reactive`]). Scripted runs are runs with no
//! policies. A barrier is paid only where the run needs one: once no
//! policy, unresolved edge or unpublished handoff can act between two
//! instants, a round becomes a **window** — each machine takes all of its
//! observations up to a horizon in one task, at least eight instants of
//! them, buffering at most `max(256, 8 × monitors)` frames, and the window
//! is merged by `(time, machine)`. The merged stream is the same either
//! way, and byte-identical at any thread count.
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
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

use tiptop_kernel::sched::SchedulerSelect;
use tiptop_kernel::task::{SpawnSpec, TaskState};
use tiptop_machine::time::{SimDuration, SimTime};

use crate::batch::FrameBatch;
use crate::monitor::Monitor;
use crate::reactive::{AppliedDecision, MigrationDecision, MigrationMode, SchedulerPolicy};
use crate::render::{Frame, Row};
use crate::scenario::validation;
use crate::scenario::{HandoffBoard, MonitorSet, Scenario, Session, SessionError, WorkloadEvent};
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

    /// Deliver frames `range` of a columnar batch: the next frames of the
    /// merged stream, in order. The cluster driver delivers frame by frame
    /// and never calls this; it is for sinks that forward batches. The
    /// default materializes each frame through [`FrameBatch::take_frame`]
    /// and hands it to [`ClusterFrameSink::on_frame`].
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
    /// Per-column `(id, sum, samples)` over every finite row value, keyed
    /// by the column's interned id in first-seen order. A screen has a
    /// handful of columns, so lookups scan linearly, like [`Row::values`]:
    /// no map node per column per source per window. Boxed at its exact
    /// length: a long run retains one of these per source per window.
    sums: Box<[(SymId, f64, usize)]>,
}

impl WindowStats {
    /// Mean of a typed column (e.g. `"IPC"`, `"%CPU"`) over every row of
    /// every frame in the window; `None` if the column never appeared.
    pub fn mean(&self, column: &str) -> Option<f64> {
        let id = symbols::lookup(column)?;
        self.sums
            .iter()
            .find(|(c, _, n)| *c == id && *n > 0)
            .map(|(_, sum, n)| sum / *n as f64)
    }

    /// Column names observed in this window, alphabetically.
    pub fn columns(&self) -> impl Iterator<Item = Arc<str>> {
        let mut names: Vec<Arc<str>> = self
            .sums
            .iter()
            .map(|(id, _, _)| symbols::resolve(*id))
            .collect();
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
    /// Aggregates keyed by `(machine, monitor-name)`. The labels are
    /// shared with the stream's frames, and order by their text.
    pub sources: BTreeMap<(Label, Label), WindowStats>,
}

/// Bounded-memory sink for long cluster runs: folds each frame into the
/// open window's per-source column aggregates *as it arrives* — no raw
/// frame is ever buffered — closing the window ([`ClusterWindow`]) every
/// `window` frames. The open-window state is `O(sources x columns)` and
/// reused from window to window. Each closed window retains one
/// [`WindowStats`] per source that contributed to it, so the summaries
/// are `O(total / window)` when a few sources fill each window, but
/// `O(frames)` when a window's frames come from distinct sources — as on a
/// 1,000-machine fleet with 256-frame windows. A retained source-window
/// of the default screen holds its map entry, whose key shares the
/// stream's two labels, and five column sums at exact size. A fleet
/// observed for hours never holds its stream, unlike
/// [`ClusterCollectSink`], but it does hold its summaries.
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
    /// instant: `(interned destination machine, command)`. Entries are
    /// dropped as soon as the stream advances past their instant (frames
    /// arrive in nondecreasing time), so a long reactive run with many
    /// migrations never accumulates stale instants.
    dedupe: BTreeMap<SimTime, Vec<(SymId, String)>>,
    /// The window currently being folded (no frame yet if `frames` is 0).
    open: OpenWindow,
}

/// Incremental state of the window being folded, reused across windows.
#[derive(Debug, Default)]
struct OpenWindow {
    start: SimTime,
    end: SimTime,
    frames: usize,
    /// Every source seen so far, in first-seen order, with its labels
    /// (the sink's name cache) and its open aggregates.
    sources: Vec<OpenSource>,
    /// `(machine, monitor)` ids to their index in `sources`, ascending by
    /// ids: a frame finds its source by binary search, and only a source
    /// never seen before inserts.
    slots: Vec<((SymId, SymId), usize)>,
    /// Indices of the sources folded into this window, in first-fold
    /// order.
    active: Vec<usize>,
}

/// One `(machine, monitor)` source of the stream and its aggregates in
/// the open window.
#[derive(Debug)]
struct OpenSource {
    names: (Label, Label),
    active: bool,
    frames: usize,
    rows: usize,
    handover_rows: usize,
    sums: Vec<(SymId, f64, usize)>,
}

impl OpenWindow {
    /// The open aggregates of the `(machine, monitor)` source, joining it
    /// to this window.
    fn source(&mut self, machine: &Label, monitor: &Label) -> &mut OpenSource {
        let key = (machine.sym(), monitor.sym());
        let i = match self.slots.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(at) => self.slots[at].1,
            Err(at) => {
                self.sources.push(OpenSource {
                    names: (machine.clone(), monitor.clone()),
                    active: false,
                    frames: 0,
                    rows: 0,
                    handover_rows: 0,
                    sums: Vec::new(),
                });
                self.slots.insert(at, (key, self.sources.len() - 1));
                self.sources.len() - 1
            }
        };
        let src = &mut self.sources[i];
        if !src.active {
            src.active = true;
            self.active.push(i);
        }
        src
    }
}

impl OpenSource {
    /// Add one finite sample of column `col`.
    fn add(&mut self, col: SymId, v: f64) {
        match self.sums.iter_mut().find(|(c, _, _)| *c == col) {
            Some((_, sum, n)) => {
                *sum += v;
                *n += 1;
            }
            None => self.sums.push((col, v, 1)),
        }
    }

    /// This window's aggregates, leaving the source empty (its buffer
    /// kept) for the next window.
    fn close(&mut self) -> WindowStats {
        let stats = WindowStats {
            frames: self.frames,
            rows: self.rows,
            handover_rows: self.handover_rows,
            sums: self.sums.as_slice().into(),
        };
        self.active = false;
        self.frames = 0;
        self.rows = 0;
        self.handover_rows = 0;
        self.sums.clear();
        stats
    }
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
            open: OpenWindow::default(),
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
                .push((symbols::intern(&h.to), h.comm));
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

    /// Fold one frame's rows into the open window. A row's command is
    /// compared only if this instant has registered handovers.
    fn fold(&mut self, machine: &Label, source: &Label, time: SimTime, rows: &[Row]) {
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

        let ow = &mut self.open;
        if ow.frames == 0 {
            ow.start = time;
        }
        ow.end = time;
        ow.frames += 1;
        self.peak = self.peak.max(ow.frames);
        let full = ow.frames >= self.window;

        let dedupe = self.dedupe.get(&time);
        let stats = ow.source(machine, source);
        let machine = machine.sym();
        stats.frames += 1;
        for row in rows {
            let is_handover =
                dedupe.is_some_and(|d| d.iter().any(|(to, c)| *to == machine && row.comm == *c));
            if is_handover {
                stats.handover_rows += 1;
                continue;
            }
            stats.rows += 1;
            for &(col, v) in &row.values {
                if v.is_finite() {
                    stats.add(col, v);
                }
            }
        }

        if full {
            self.close_window();
        }
    }

    /// Close the open window: each of its sources' labels are shared from
    /// the sink's cache, and its aggregates are copied out at exact size.
    fn close_window(&mut self) {
        let ow = &mut self.open;
        if ow.frames == 0 {
            return;
        }
        let sources = ow
            .active
            .drain(..)
            .map(|i| {
                let src = &mut ow.sources[i];
                (src.names.clone(), src.close())
            })
            .collect();
        self.windows.push(ClusterWindow {
            index: self.windows.len(),
            start: ow.start,
            end: ow.end,
            frames: ow.frames,
            sources,
        });
        ow.frames = 0;
    }
}

impl ClusterFrameSink for ClusterWindowSink {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.fold(
            &frame.machine,
            &frame.source,
            frame.frame.time,
            &frame.frame.rows,
        );
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

/// What one migration lands as: by mode, the kill on the source and the
/// spawn on the destination; a resume's checkpoint handoff; and the
/// handover the merged stream shows.
struct Landing {
    kill: WorkloadEvent,
    spawn: WorkloadEvent,
    handoff: Option<Handoff>,
    handover: HandoverRecord,
}

impl Migration {
    /// Desugar the migration of `spec` from machine index `src` to `dst`.
    /// `decided` marks a live decision's handoff (see [`Handoff`]).
    fn land(&self, src: usize, dst: usize, spec: SpawnSpec, decided: bool) -> Landing {
        let tag = self.tag.clone();
        let handover = HandoverRecord {
            at: self.at,
            tag: tag.clone(),
            comm: spec.comm.to_string(),
            from: self.from.clone(),
            to: self.to.clone(),
            mode: self.mode,
        };
        let (kill, spawn, handoff) = match self.mode {
            MigrationMode::Restart => (
                WorkloadEvent::Kill { tag: tag.clone() },
                WorkloadEvent::Spawn { tag, spec },
                None,
            ),
            MigrationMode::Resume => (
                WorkloadEvent::CheckpointKill { tag: tag.clone() },
                WorkloadEvent::ResumeSpawn { tag, spec },
                Some(Handoff {
                    at: self.at,
                    src,
                    dst,
                    decided,
                }),
            ),
        };
        Landing {
            kill,
            spawn,
            handoff,
            handover,
        }
    }
}

/// The machine indices of a migration's endpoints, by `index_of`; or why
/// there are none, to be labelled with the migration.
fn endpoints(
    from: &str,
    to: &str,
    index_of: impl Fn(&str) -> Option<usize>,
) -> Result<(usize, usize), String> {
    if from == to {
        return Err("source and destination are the same machine".into());
    }
    let index = |id: &str| index_of(id).ok_or_else(|| format!("unknown machine '{id}'"));
    Ok((index(from)?, index(to)?))
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
            let index_of = |id: &str| self.machines.iter().position(|(mid, _)| mid == id);
            let (fi, ti) = endpoints(&m.from, &m.to, index_of)
                .map_err(|msg| SessionError::InvalidScenario(format!("{label}: {msg}")))?;
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
            let landing = m.land(fi, ti, spec, false);
            self.machines[fi].1.schedule(m.at, landing.kill);
            self.machines[ti].1.schedule(m.at, landing.spawn);
            handoffs.extend(landing.handoff);
            handovers.push(landing.handover);
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
        // Dependency edges ([`Trigger::AfterExit`]). The validator behind
        // `Scenario::build` checks every machine's edges against the whole
        // fleet's schedules (migrations are desugared above, so a migrated
        // dependency resolves to its last destination) and names the
        // machine hosting each dependency's final incarnation. Each edge is
        // then classified: an edge whose dependency chain is scripted
        // entirely on its own machine goes back to its [`Session`], which
        // resolves it natively; everything else — cross-machine edges, and
        // edges keyed on a tag that is itself spawned by a cross-machine
        // edge — stays in the cluster's registry and is resolved centrally
        // by the round driver.
        let hosts = {
            let schedules: Vec<_> = self.machines.iter().map(|(_, sc)| sc.events()).collect();
            validation::validate_dag(&schedules, |i, error| SessionError::Shard {
                machine: self.machines[i].0.clone(),
                error: Box::new(error),
            })?
        };
        let mut edges: Vec<(usize, String, SimDuration, WorkloadEvent)> = Vec::new();
        for (i, (_, scenario)) in self.machines.iter_mut().enumerate() {
            for (dep, delay, ev) in scenario.drain_deferred() {
                edges.push((i, dep, delay, ev));
            }
        }
        // Native to a fixpoint: an edge keyed on a dependency-spawned tag
        // counts once the edge spawning its dependency went back too.
        let mut native = vec![false; edges.len()];
        loop {
            let mut changed = false;
            for (k, h) in hosts.iter().enumerate() {
                if !native[k] && h.host == edges[k].0 && h.dep_edge.is_none_or(|se| native[se]) {
                    native[k] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut deps: Vec<ClusterDep> = Vec::new();
        for (((consumer, dep, delay, ev), h), native) in edges.into_iter().zip(hosts).zip(native) {
            if native {
                self.machines[consumer].1.defer(dep, delay, ev);
            } else {
                deps.push(ClusterDep {
                    consumer,
                    dep,
                    host: h.host,
                    min_incarnations: h.min_incarnations,
                    delay,
                    ev: Some(ev),
                });
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
/// [`ClusterSession::last_run_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Frames delivered to the sink.
    pub frames: usize,
    /// Driver steps: rounds plus windows (see
    /// [`ClusterSession::run_reactive`]). Each one is a barrier.
    pub rounds: usize,
    /// Merge deliveries: rounds and windows that produced frames.
    pub batches: usize,
    /// Most frames held at once before delivery: the largest round or
    /// window. A window holds at most `max(256, 8 × open monitors)`
    /// frames.
    pub peak_buffered_frames: usize,
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
    /// The scripted resume handoffs, in instant order.
    handoffs: Vec<Handoff>,
    /// Cross-machine dependency edges, in declaration order. While any is
    /// live, every machine marches to each round's instant.
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
type ToolSet = Vec<(Box<dyn Monitor + Send>, Option<Until>)>;
/// One machine's monitors with their clocks, as a run drives them.
type Monitors = MonitorSet<Box<dyn Monitor + Send>, Until>;

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

    /// Statistics of the most recent `run*`, scripted or reactive: frames
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

    /// Drive every machine for up to `max_refreshes` frames of its own
    /// monitor, stopping a machine early when its `until` predicate says so
    /// (the stopping frame is still delivered). Work is sharded over
    /// `threads` workers (clamped to `1..=machines`); frames stream into
    /// `sink` merged by `(time, machine_index)` — deterministically, at any
    /// thread count.
    ///
    /// # The driver
    ///
    /// Every run goes to the round driver (see
    /// [`ClusterSession::run_reactive`]), here with no policies: each round
    /// advances the machines due at the globally earliest observation
    /// instant on a pool of `threads − 1` workers, spawned once for the
    /// run, plus the calling thread, and delivers the round's frames in
    /// machine order. Cross-machine dependency edges and scripted resume
    /// handoffs are resolved at those barriers. Once every edge has fired
    /// and every handoff is published, nothing couples the machines
    /// between two instants, so each round becomes a **window**: every
    /// machine runs the observation loop of [`Session::run_until`] up to
    /// the window's horizon in one task, and the window is merged by
    /// `(time, machine)` — the same stream, with a barrier per window
    /// instead of per instant. Without migrations or cross-machine edges,
    /// a machine's frames are the ones a lone [`Session`] built from its
    /// scenario would take.
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
            |mref| vec![(monitor(mref), Some(until(mref)))],
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
    /// worker-thread count. The driver and the failure contract are those
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

    /// The shared entry behind [`run_each`](ClusterSession::run_each) and
    /// [`run_all`](ClusterSession::run_all): the round driver with no
    /// policies, so a shard failure is delivered-then-errored.
    fn run_units(
        &mut self,
        threads: usize,
        max_refreshes: usize,
        mut tools: impl FnMut(MachineRef<'_>) -> ToolSet,
        sink: &mut dyn ClusterFrameSink,
    ) -> Result<(), SessionError> {
        let units = self.take_units(max_refreshes, &mut tools)?;
        self.run_rounds(units, threads, &mut [], sink).map(|_| ())
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
    /// 3. advances the machines due at `t*` concurrently on the run's
    ///    worker pool (spawned once per run); on the worker it was moved
    ///    to, each machine runs the observation loop of
    ///    [`Session::run_all`] up to the round's horizon;
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
        let units = self.take_units(refreshes, &mut |mref| never_stop(monitors(mref)))?;
        self.run_rounds(units, threads, policies, sink)
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

/// Pair every monitor with no stop rule.
fn never_stop(monitors: Vec<Box<dyn Monitor + Send>>) -> ToolSet {
    monitors.into_iter().map(|m| (m, None)).collect()
}

struct WorkUnit {
    index: usize,
    /// The machine id as a shared label, captured once.
    id: Label,
    /// Boxed, so a phase that moves the machine to a worker and back
    /// moves a pointer, not the whole session.
    session: Box<Session>,
    monitors: Monitors,
    /// Each monitor's name as a shared label, captured once — the hot loop
    /// never calls `name()` again.
    sources: Vec<Label>,
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

/// The round-barrier driver behind every cluster run: scripted runs are
/// runs with no policies. The five steps of a round, and when a round
/// becomes a window, are documented on [`ClusterSession::run_reactive`].
struct Rounds<'a> {
    /// Every machine, in index order. A phase moves its machines to the
    /// pool and puts them back before the next one starts.
    units: Vec<WorkUnit>,
    /// Per machine index.
    status: Vec<Status>,
    pool: Pool,
    deps: &'a mut [ClusterDep],
    /// Indices of the edges in `deps` still holding their event, in
    /// declaration order: same-instant injections apply in that order.
    pending: Vec<usize>,
    /// Resume handoffs not yet published: the scripted ones, plus live
    /// resume decisions as they apply.
    handoffs: Vec<Handoff>,
    policies: &'a mut [Box<dyn SchedulerPolicy>],
    sink: &'a mut dyn ClusterFrameSink,
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
        for k in 0..self.units.len() {
            let unit = &mut self.units[k];
            let i = unit.index;
            if !matches!(self.status[i], Status::Live | Status::Failed) {
                continue;
            }
            let torn_down = guard(&unit.id, || {
                unit.monitors.teardown(&mut unit.session);
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
        // A dead worker takes its machines with it: the fleet can no longer
        // be indexed by machine, and can never run again, so there is
        // nothing left to keep consistent.
        if result.is_err() && self.units.len() == self.status.len() {
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
            if unit.monitors.next_due().is_none() {
                self.status[i] = Status::Idle;
                continue;
            }
            if let Err(e) = guard(&unit.id, || unit.monitors.prime(&mut unit.session)) {
                self.fail(i, e, false);
            }
        }
        self.check()?;
        loop {
            // The globally earliest pending observation instant.
            let t_star = self.live().filter_map(|u| u.monitors.next_due()).min();
            let Some(t_star) = t_star else { break };
            let window = self.window(t_star);
            // A window is only opened once no edge or handoff is left for
            // the march to resolve.
            if window.horizon == t_star {
                self.march(t_star)?;
            }
            self.observe(t_star, window)?;
        }
        self.flush()
    }

    /// The round at `t_star`, or a window past it once no policy, edge or
    /// handoff can act between two instants (the rule is documented on
    /// [`ClusterSession::run_reactive`]).
    fn window(&self, t_star: SimTime) -> Window {
        let round = Window {
            horizon: t_star,
            grid: Vec::new(),
        };
        // A policy may decide on any frame, and an unresolved edge or an
        // unpublished handoff may act between two instants. A published
        // handoff leaves the list at the next round's march.
        if !self.policies.is_empty() || !self.pending.is_empty() || !self.handoffs.is_empty() {
            return round;
        }
        let open = || self.live().flat_map(|u| u.monitors.open());
        let Some(interval) = open().map(|(_, i, _)| i).min() else {
            return round;
        };
        let k = (WINDOW_FRAMES / open().count()).max(MIN_WINDOW_INSTANTS);
        let horizon = t_star + interval * (k as u64 - 1);
        if !self.march_all {
            return Window {
                horizon,
                grid: Vec::new(),
            };
        }
        // A marching run splits every live machine's advance at every
        // fleet instant. A window keeps those splits only while every
        // machine still observing is due at the same instants: then no
        // machine's stop or failure removes an instant the others would
        // have been marched through.
        let mut grids = self
            .live()
            .filter(|u| u.monitors.next_due().is_some())
            .map(|u| instants(u, horizon));
        let grid = grids.next().unwrap_or_default();
        if grids.all(|g| g == grid) {
            Window { horizon, grid }
        } else {
            round
        }
    }

    fn live(&self) -> impl Iterator<Item = &WorkUnit> {
        self.units
            .iter()
            .zip(&self.status)
            .filter(|(_, s)| **s == Status::Live)
            .map(|(u, _)| u)
    }

    /// Move every live machine `to` gives an instant to the pool, step
    /// each there as `phase` says, and put them back. Returns the outcomes
    /// in machine order. Only a dead worker fails the phase itself.
    fn step_on_pool(
        &mut self,
        spread: bool,
        phase: Phase,
        to: impl Fn(&WorkUnit) -> Option<SimTime>,
    ) -> Result<Vec<Outcome>, SessionError> {
        let mut tasks = Vec::new();
        let units = std::mem::replace(&mut self.units, Vec::with_capacity(self.status.len()));
        for unit in units {
            match to(&unit).filter(|_| self.status[unit.index] == Status::Live) {
                Some(to) => tasks.push(Task { unit, to }),
                None => self.units.push(unit),
            }
        }
        let mut stepped = Vec::with_capacity(tasks.len());
        let result = self.pool.run(tasks, &phase, spread, &mut stepped);
        let mut outcomes = Vec::with_capacity(stepped.len());
        for (unit, outcome) in stepped {
            self.units.push(unit);
            outcomes.push(outcome);
        }
        self.units.sort_by_key(|u| u.index);
        outcomes.sort_by_key(|o| o.index);
        result.map(|()| outcomes)
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
            let moved = self.step_on_pool(true, Phase::March(Arc::from([])), |u| {
                targets[u.index].filter(|t| *t > u.session.now())
            })?;
            if moved.is_empty() {
                if published {
                    continue;
                }
                // Unreachable given the epoch floor and build-time
                // rejection of same-instant resume cycles; defensive.
                let stuck: Vec<String> = self
                    .live()
                    .filter(|u| u.session.now() < t_star)
                    .map(|u| u.id.to_string())
                    .collect();
                return Err(SessionError::InvalidScenario(format!(
                    "cross-machine dependency stall at {t_star:?}: machines {stuck:?} \
                     cannot advance (mutually gated handoffs)"
                )));
            }
            for o in moved {
                if let Err(e) = o.result {
                    self.fail(o.index, e, false);
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
            let mut kept = 0;
            for j in 0..self.pending.len() {
                let k = self.pending[j];
                let d = &mut self.deps[k];
                let (host, consumer) = (d.host, d.consumer);
                if self.status[host] != Status::Live {
                    d.ev = None;
                    continue;
                }
                let Some(exit) = self.units[host]
                    .session
                    .completion_of(&d.dep, d.min_incarnations)
                else {
                    self.pending[kept] = k;
                    kept += 1;
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
            self.pending.truncate(kept);
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
        let mut cap = vec![t_star; w.len()];
        for &k in &self.pending {
            let d = &self.deps[k];
            if let Some(wh) = w[d.host] {
                cap[d.consumer] = cap[d.consumer].min(wh + d.delay);
            }
        }
        self.units
            .iter()
            .zip(cap)
            .enumerate()
            .map(|(i, (u, cap))| {
                let now = w[i].filter(|now| *now < t_star)?;
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

    /// Steps 3–5: advance the machines due by the window's horizon
    /// concurrently, each taking its due observations on its own worker;
    /// merge them by `(time, machine, monitor)` ([`Rounds::deliver_merged`]);
    /// show each frame to every policy and deliver it; then apply the
    /// round's decisions.
    fn observe(&mut self, t_star: SimTime, window: Window) -> Result<(), SessionError> {
        let Window { horizon, grid } = window;
        let due = |u: &WorkUnit| u.monitors.next_due().is_some_and(|at| at <= horizon);
        // Taking observations is cheap next to advancing: when the march
        // already brought every due machine to `t_star`, handing them to
        // the workers would cost more than it saves.
        let spread = self.live().any(|u| due(u) && u.session.now() < horizon);
        let stepped = self.step_on_pool(spread, Phase::Observe, |u| due(u).then_some(horizon))?;
        self.stats.rounds += 1;

        let mut decisions: Vec<(String, MigrationDecision)> = Vec::new();
        let mut delivered = 0usize;
        let mut streams = Vec::new();
        let mut failed = Vec::new();
        let mut last = t_star;
        for o in stepped {
            last = last.max(o.reached);
            if let Err(e) = o.result {
                failed.push((o.index, e));
            }
            delivered += o.frames.len();
            // A round's frames all share `t_star`, so machine order is
            // already the merge.
            if horizon == t_star {
                for frame in o.frames {
                    self.deliver(frame, &mut decisions);
                }
            } else {
                streams.push(o.frames);
            }
        }
        self.deliver_merged(streams, &mut decisions);
        for (index, e) in failed {
            self.fail(index, e, false);
        }
        if delivered > 0 {
            self.stats.frames += delivered;
            self.stats.batches += 1;
            self.stats.peak_buffered_frames = self.stats.peak_buffered_frames.max(delivered);
        }
        if !grid.is_empty() {
            self.catch_up(grid, last)?;
        }
        self.check()?;
        for (policy, decision) in decisions {
            self.apply_decision(policy, decision, t_star)?;
        }
        Ok(())
    }

    /// Deliver a window's frames by `(time, machine, monitor)`. Each
    /// outcome's frames are already in time-then-slot order, and the
    /// outcomes come in machine order, so a heap of their heads keyed by
    /// `(time, outcome)` yields the earliest frame each time, ties to the
    /// lower machine: every frame moves once, and no merged vector is
    /// built.
    fn deliver_merged(
        &mut self,
        outcomes: Vec<Vec<ClusterFrame>>,
        decisions: &mut Vec<(String, MigrationDecision)>,
    ) {
        let mut streams: Vec<_> = outcomes.into_iter().map(Vec::into_iter).collect();
        let head =
            |s: &std::vec::IntoIter<ClusterFrame>| s.as_slice().first().map(|f| f.frame.time);
        let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = streams
            .iter()
            .enumerate()
            .filter_map(|(k, s)| Some(Reverse((head(s)?, k))))
            .collect();
        while let Some(mut top) = heads.peek_mut() {
            let k = top.0 .1;
            let frame = streams[k]
                .next()
                .expect("a heap entry per non-empty stream");
            match head(&streams[k]) {
                Some(next) => top.0 .0 = next,
                None => {
                    PeekMut::pop(top);
                }
            }
            self.deliver(frame, decisions);
        }
    }

    /// Show `frame` to every policy, collecting its decisions, and deliver
    /// it.
    fn deliver(&mut self, frame: ClusterFrame, decisions: &mut Vec<(String, MigrationDecision)>) {
        for p in self.policies.iter_mut() {
            for d in p.observe(&frame) {
                decisions.push((p.name().to_string(), d));
            }
        }
        self.sink.on_frame(frame);
    }

    /// End a marching window where the rounds would have: march every
    /// live machine behind `last` — one stopped by its `until`, or one
    /// with nothing left to observe — through each instant of the
    /// window's `grid` up to `last`, the last instant observed.
    fn catch_up(&mut self, grid: Vec<SimTime>, last: SimTime) -> Result<(), SessionError> {
        let behind = |u: &WorkUnit| (u.session.now() < last).then_some(last);
        if !self.live().any(|u| behind(u).is_some()) {
            return Ok(());
        }
        for o in self.step_on_pool(true, Phase::March(grid.into()), behind)? {
            if let Err(e) = o.result {
                self.fail(o.index, e, false);
            }
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
                machine: self.units[i].id.to_string(),
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
        let position = |id: &str| self.units.iter().position(|u| u.id == id);
        let (fi, ti) = endpoints(&d.from, &d.to, position).map_err(infeasible)?;
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
        // Re-label the sessions' own InvalidDecision messages with the
        // decision context before surfacing them.
        let relabel = |e: SessionError| match e {
            SessionError::InvalidDecision(msg) => {
                SessionError::InvalidDecision(format!("{label}: {msg}"))
            }
            other => other,
        };
        let m = Migration {
            at,
            tag: d.tag,
            from: d.from,
            to: d.to,
            mode: d.mode,
        };
        let landing = m.land(fi, ti, spec, true);
        self.units[ti]
            .session
            .schedule_at(at, landing.spawn)
            .map_err(relabel)?;
        self.units[fi]
            .session
            .schedule_at(at, landing.kill)
            .map_err(relabel)?;
        self.handoffs.extend(landing.handoff);
        self.injected.push(InjectedDecision {
            at,
            tag: m.tag.clone(),
            src: fi,
            dst: ti,
        });
        self.applied.push(AppliedDecision {
            policy,
            tag: m.tag,
            from: m.from,
            to: m.to,
            decided_at,
            applied_at: at,
            mode: m.mode,
        });
        self.handovers.push(landing.handover);
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
            // A source short of the instant whose task has no exit record
            // yet never reached its kill: nothing misfired.
            let src = &units[inj.src].session;
            let cancelled = src.now() < inj.at
                && src
                    .pid(&inj.tag)
                    .is_some_and(|pid| src.kernel().exit_record(pid).is_none());
            if !cancelled && !killed_at(src, &inj.tag, inj.at) {
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
            spawned && unit(&h.from).is_some_and(|u| killed_at(&u.session, &h.tag, h.at))
        });
    }
}

/// Did `tag`'s current task on `session` end exactly at `at`, as a
/// migration's kill ends it? Its exit record ends then; or, applied but not
/// yet reaped, it is a zombie and the clock stopped at or past `at`.
fn killed_at(session: &Session, tag: &str, at: SimTime) -> bool {
    session.pid(tag).is_some_and(|pid| {
        let k = session.kernel();
        match k.exit_record(pid) {
            Some(rec) => rec.end_time == at,
            None => {
                session.now() >= at && k.stat(pid).is_some_and(|st| st.state == TaskState::Zombie)
            }
        }
    })
}

/// Frames a window spreads over the fleet's open monitors: a fleet of
/// fewer than `WINDOW_FRAMES / MIN_WINDOW_INSTANTS` monitors takes
/// `WINDOW_FRAMES / n` instants per window (see
/// [`ClusterSession::run_reactive`]).
const WINDOW_FRAMES: usize = 256;

/// Fewest instants a window takes, so a large fleet still steps each
/// machine through several observations while its state is in cache. A
/// window buffers at most `max(WINDOW_FRAMES, MIN_WINDOW_INSTANTS × n)`
/// frames for `n` open monitors.
const MIN_WINDOW_INSTANTS: usize = 8;

/// One driver step: its horizon, `t*` for a round, and — for a marching
/// window — the instants every observing machine is due at up to it.
struct Window {
    horizon: SimTime,
    grid: Vec<SimTime>,
}

/// Machine `u`'s observation instants up to `horizon`, in order.
fn instants(u: &WorkUnit, horizon: SimTime) -> Vec<SimTime> {
    let mut at: Vec<SimTime> = u
        .monitors
        .open()
        .flat_map(|(next, interval, left)| {
            (0..left)
                .map(move |j| next + interval * j as u64)
                .take_while(|t| *t <= horizon)
        })
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

/// How many observations machine `u`'s monitors are due to take up to
/// `horizon`: exact, unless a stop rule ends a monitor sooner.
fn observations(u: &WorkUnit, horizon: SimTime) -> usize {
    u.monitors
        .open()
        .filter(|(next, _, _)| *next <= horizon)
        .map(|(next, interval, left)| {
            let more = horizon.since(next).as_nanos() / interval.as_nanos();
            left.min(more as usize + 1)
        })
        .sum()
}

/// One machine handed to the pool for one parallel phase, with the
/// instant to step it to.
struct Task {
    unit: WorkUnit,
    to: SimTime,
}

/// What a parallel phase does with each machine.
#[derive(Clone)]
enum Phase {
    /// Advance to the task's instant, stopping at each listed instant on
    /// the way: a marching pass (no stops) or a window's catch-up.
    March(Arc<[SimTime]>),
    /// Take every observation due by the task's instant, advancing to each
    /// one in turn: one instant for a round, several for a window.
    Observe,
}

/// What one [`Task`] did: the frames its machine took (observation phases
/// only), the last instant it stepped towards, and the failure that
/// stopped it, if any. Frames taken before a failure are still delivered.
struct Outcome {
    index: usize,
    frames: Vec<ClusterFrame>,
    reached: SimTime,
    result: Result<(), SessionError>,
}

/// One worker's share of a parallel phase.
struct Share {
    tasks: Vec<Task>,
    phase: Phase,
}

/// The calling thread's end of one pool worker: shares go out, stepped
/// machines come back.
struct Worker {
    shares: mpsc::Sender<Share>,
    stepped: mpsc::Receiver<Vec<(WorkUnit, Outcome)>>,
}

/// The run's worker pool: `threads − 1` workers spawned once per run by
/// [`ClusterSession::run_rounds`]. Each parallel phase moves its machines
/// to the workers by value and gets them back; the calling thread steps
/// the first share itself, so with one thread — or one machine to move —
/// nothing crosses a thread.
struct Pool {
    workers: Vec<Worker>,
}

impl Pool {
    /// Step every task, and append each machine with its [`Outcome`] to
    /// `out`, grouped by share. Task `k` goes to share `k mod shares`, so
    /// machines declared side by side land on different threads. With
    /// `spread` false the calling thread steps them all. A dead worker is
    /// reported as a [`SessionError::ShardPanicked`] of the first machine
    /// of its share; a share it never received is stepped here, one it
    /// held is lost, and every other machine still comes back.
    fn run(
        &self,
        tasks: Vec<Task>,
        phase: &Phase,
        spread: bool,
        out: &mut Vec<(WorkUnit, Outcome)>,
    ) -> Result<(), SessionError> {
        let shares = if spread {
            (self.workers.len() + 1).min(tasks.len()).max(1)
        } else {
            1
        };
        let mut parts: Vec<Vec<Task>> = (0..shares)
            .map(|_| Vec::with_capacity(tasks.len().div_ceil(shares)))
            .collect();
        for (k, task) in tasks.into_iter().enumerate() {
            parts[k % shares].push(task);
        }
        let mut parts = parts.into_iter();
        let mut mine = parts.next().unwrap_or_default();
        let mut dead: Option<String> = None;
        let mut sent: Vec<(&Worker, String)> = Vec::with_capacity(shares - 1);
        for (worker, part) in self.workers.iter().zip(parts) {
            let first = part
                .first()
                .map(|t| t.unit.id.to_string())
                .unwrap_or_default();
            match worker.shares.send(Share {
                tasks: part,
                phase: phase.clone(),
            }) {
                Ok(()) => sent.push((worker, first)),
                Err(mpsc::SendError(share)) => {
                    dead.get_or_insert(first);
                    mine.extend(share.tasks);
                }
            }
        }
        out.extend(mine.into_iter().map(|t| step(t, phase)));
        for (worker, first) in sent {
            match worker.stepped.recv() {
                Ok(stepped) => out.extend(stepped),
                Err(mpsc::RecvError) => {
                    dead.get_or_insert(first);
                }
            }
        }
        match dead {
            None => Ok(()),
            Some(machine) => Err(SessionError::ShardPanicked {
                machine,
                message: "its cluster worker thread died".into(),
            }),
        }
    }
}

/// A pool worker: step every share it is sent and send the machines back,
/// until the pool closes its channel at the end of the run.
fn serve(shares: mpsc::Receiver<Share>, stepped: mpsc::Sender<Vec<(WorkUnit, Outcome)>>) {
    for share in shares {
        let done = share
            .tasks
            .into_iter()
            .map(|t| step(t, &share.phase))
            .collect();
        if stepped.send(done).is_err() {
            return;
        }
    }
}

/// Step one machine to its task's instant as `phase` says, panics
/// contained. Observing, it runs the machine's [`MonitorSet`] loop up to
/// the task's instant.
fn step(task: Task, phase: &Phase) -> (WorkUnit, Outcome) {
    let Task { mut unit, to } = task;
    let u = &mut unit;
    let mut frames = match phase {
        Phase::March(_) => Vec::new(),
        Phase::Observe => Vec::with_capacity(observations(u, to)),
    };
    let mut reached = to;
    let result = guard(&u.id, || match phase {
        Phase::March(stops) => {
            for &at in stops.iter().filter(|at| **at < to) {
                if u.session.now() < at {
                    u.session.advance_to(at)?;
                }
            }
            u.session.advance_to(to)
        }
        Phase::Observe => {
            let (id, index, sources) = (&u.id, u.index, &u.sources);
            let emit = |slot: usize, seq, _: &_, frame| {
                frames.push(ClusterFrame {
                    machine: id.clone(),
                    machine_index: index,
                    source: sources[slot].clone(),
                    seq,
                    frame,
                })
            };
            reached = u.monitors.observe_through(&mut u.session, to, emit)?;
            Ok(())
        }
    });
    // A failed observation stopped at the instant it was stepping to: the
    // earliest one its monitors are still due at.
    if result.is_err() && matches!(phase, Phase::Observe) {
        reached = unit.monitors.next_due().unwrap_or(to);
    }
    let index = unit.index;
    (
        unit,
        Outcome {
            index,
            frames,
            reached,
            result,
        },
    )
}

/// Reject monitor sets that cannot drive a machine — shared by
/// [`ClusterSession::run_all`]/[`ClusterSession::run_each`] and
/// [`ClusterSession::run_reactive`]: zero-interval monitors
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
