//! The live [`Session`]: the kernel plus the not-yet-due workload events —
//! timed events in a sorted queue, dependency-triggered events in a
//! deferred list resolved when their dependency's exit lands.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::DerefMut;
use std::sync::Arc;

use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::task::{Pid, SpawnSpec};
use tiptop_machine::time::{SimDuration, SimTime};

use crate::monitor::{FrameSink, Monitor};
use crate::render::Frame;

use super::errors::SessionError;
use super::events::{DeferredEvent, HandoffBoard, WorkloadEvent};
use super::validation::{self, TagFacts};

/// A live experiment: the kernel plus the not-yet-due workload events. The
/// session owns the clock — all time advancement goes through it so events
/// land at their exact instants.
pub struct Session {
    kernel: Kernel,
    /// Sorted by time (stable); front is next due.
    pending: VecDeque<(SimTime, WorkloadEvent)>,
    /// Dependency-triggered events, waiting for their dep's completion; in
    /// declaration order (which is also their resolution order).
    deferred: Vec<DeferredEvent>,
    /// Every incarnation a tag resolved to on this machine, in spawn order;
    /// the last entry is the current one. A tag gets a new incarnation each
    /// time it is (re-)spawned here — a job migrated away and back is the
    /// same tag, a fresh pid.
    pids: BTreeMap<String, Vec<Pid>>,
    /// Every tag's job spec (scripted and runtime-scheduled spawns alike),
    /// kept so a live migration can clone the job onto another machine.
    specs: BTreeMap<String, SpawnSpec>,
    /// Kill instants per tag: a scripted/live SIGKILL ends the tag at an
    /// exact known instant before the kernel has even reaped the zombie, so
    /// dependency edges resolve without waiting for the reap. Cleared when
    /// the tag respawns.
    kill_instants: BTreeMap<String, SimTime>,
    /// Pids ended by a checkpoint-kill: migrated away, *not* completed —
    /// their exit records must never fire dependency edges here.
    checkpoint_killed: BTreeSet<Pid>,
    /// Checkpoint transport shared with the other sessions of a cluster;
    /// `None` outside cluster runs (resume events then fail cleanly).
    handoff: Option<Arc<HandoffBoard>>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("now", &self.kernel.now())
            .field("tasks", &self.kernel.num_alive())
            .field("pending_events", &self.pending.len())
            .field("deferred_events", &self.deferred.len())
            .field("tags", &self.pids)
            .finish()
    }
}

impl Session {
    /// Assemble a session from its validated parts (the tail of
    /// [`Scenario::build`](super::Scenario::build) — the builder lives in a
    /// sibling module).
    pub(crate) fn from_parts(
        kernel: Kernel,
        pending: VecDeque<(SimTime, WorkloadEvent)>,
        deferred: Vec<DeferredEvent>,
        specs: BTreeMap<String, SpawnSpec>,
    ) -> Self {
        Session {
            kernel,
            pending,
            deferred,
            pids: BTreeMap::new(),
            specs,
            kill_instants: BTreeMap::new(),
            checkpoint_killed: BTreeSet::new(),
            handoff: None,
        }
    }

    /// The pid of the tag's *current* (latest) incarnation on this machine
    /// (`None` until its first spawn time).
    pub fn pid(&self, tag: &str) -> Option<Pid> {
        self.pids.get(tag).and_then(|v| v.last()).copied()
    }

    /// Every pid the tag has resolved to on this machine, in spawn order —
    /// one entry per incarnation. A job that migrated away and came back
    /// has two entries here.
    pub fn incarnations(&self, tag: &str) -> &[Pid] {
        self.pids.get(tag).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Attach the cluster's shared checkpoint transport (resume-mode
    /// migrations publish/take through it).
    pub(crate) fn attach_handoff(&mut self, board: Arc<HandoffBoard>) {
        self.handoff = Some(board);
    }

    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Escape hatch for direct syscalls mid-experiment. Advancing the
    /// kernel directly skips scheduled events — use [`Session::advance`].
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Dissolve the session into its kernel (pending events are dropped).
    pub fn into_kernel(self) -> Kernel {
        self.kernel
    }

    /// Workload events not yet applied (timed and dependency-triggered).
    pub fn pending_events(&self) -> usize {
        self.pending.len() + self.deferred.len()
    }

    /// Dependency-triggered events still waiting for their dep's exit.
    pub fn deferred_events(&self) -> usize {
        self.deferred.len()
    }

    /// The job spec a tag was (or will be) spawned from — scripted spawns
    /// and runtime-scheduled ones alike. The reactive scheduling layer
    /// clones this onto a migration's destination machine.
    pub fn job_spec(&self, tag: &str) -> Option<&SpawnSpec> {
        self.specs.get(tag)
    }

    /// Time of the earliest not-yet-applied spawn (or resume-spawn) of
    /// `tag`, if any.
    fn pending_spawn(&self, tag: &str) -> Option<SimTime> {
        self.pending
            .iter()
            .find_map(|(at, ev)| (ev.is_spawn() && ev.tag() == tag).then_some(*at))
    }

    /// Time of the earliest not-yet-applied kill (plain or checkpointing)
    /// of `tag`, if any — so two live decisions cannot both claim the same
    /// job.
    fn pending_kill(&self, tag: &str) -> Option<SimTime> {
        self.pending
            .iter()
            .find_map(|(at, ev)| (ev.is_kill() && ev.tag() == tag).then_some(*at))
    }

    /// Remove every not-yet-applied event targeting `tag` at exactly `at`
    /// — the reactive layer rolls a decision's kill/spawn back when the
    /// run errors before they could apply, so a handed-back session never
    /// performs an unrecorded migration on a later run. A cancelled spawn
    /// frees its tag (and retained spec) again.
    pub(crate) fn cancel_scheduled(&mut self, at: SimTime, tag: &str) {
        let mut i = 0;
        while i < self.pending.len() {
            let (at_i, ev) = &self.pending[i];
            if *at_i == at && ev.tag() == tag {
                if ev.is_spawn() && !self.pids.contains_key(tag) {
                    self.specs.remove(tag);
                }
                self.pending.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// The instant the tag's *completion* — the exit of its final
    /// incarnation — became known, if it has. `min_incarnations` is how
    /// many incarnations the schedule creates for the tag; earlier
    /// incarnations' exits are migrations-in-progress, not completions. A
    /// checkpoint-killed final incarnation migrated away and never
    /// completes here.
    ///
    /// The returned instant is the exact exit time
    /// ([`ExitRecord::end_time`](tiptop_kernel::kernel::ExitRecord), or the
    /// kill instant for jobs ended by a plain SIGKILL). Natural exits only
    /// become observable when the kernel reaps the zombie at the end of an
    /// epoch, so callers clamp derived instants forward to *now*.
    pub(crate) fn completion_of(&self, tag: &str, min_incarnations: usize) -> Option<SimTime> {
        let pids = self.pids.get(tag)?;
        if pids.len() < min_incarnations {
            return None;
        }
        let last = *pids.last()?;
        if self.checkpoint_killed.contains(&last) {
            return None;
        }
        if let Some(at) = self.kill_instants.get(tag) {
            return Some(*at);
        }
        self.kernel.exit_record(last).map(|rec| rec.end_time)
    }

    /// Schedule a workload event **at run time** — the per-run event queue
    /// behind live scheduling decisions. Scripted schedules are fully
    /// validated by [`Scenario::build`](super::Scenario::build); an event
    /// injected mid-run gets the *run-time half* of that validation here
    /// (the same shared checker), with infeasible requests surfacing as
    /// typed [`SessionError::InvalidDecision`]s:
    ///
    /// * `at` must not lie in the past (an event at exactly the current
    ///   instant is applied before this returns);
    /// * a `Spawn` (or `ResumeSpawn`) starts a *new incarnation* of its
    ///   tag — allowed once the previous incarnation is dead (or has a kill
    ///   pending no later than `at`), rejected while it is live:
    ///   incarnation addressing never aliases two live tasks;
    /// * a `Kill`/`Renice`/`Pin` must target a tag whose current
    ///   incarnation is spawned (or has a pending spawn no later than `at`)
    ///   and has not already exited;
    /// * a `Kill` is rejected while another kill of the same tag is still
    ///   pending (two live decisions cannot both claim one job);
    /// * a `Spawn`'s affinity or a `Pin`'s mask must allow some PU of this
    ///   machine (a `ResumeSpawn` relaxes its pin instead).
    ///
    /// A task can still exit *between* scheduling and `at`; that surfaces
    /// as [`SessionError::Syscall`] when the event applies, exactly like a
    /// scripted kill racing a natural exit.
    pub fn schedule_at(&mut self, at: SimTime, ev: WorkloadEvent) -> Result<(), SessionError> {
        self.check_at(at, &ev)?;
        if let WorkloadEvent::Spawn { tag, spec } | WorkloadEvent::ResumeSpawn { tag, spec } = &ev {
            self.specs.insert(tag.clone(), spec.clone());
        }
        // Keep `pending` sorted by time, stable: an event lands after every
        // already-queued event of the same instant.
        let pos = self
            .pending
            .iter()
            .position(|(t, _)| *t > at)
            .unwrap_or(self.pending.len());
        self.pending.insert(pos, (at, ev));
        if at == self.kernel.now() {
            self.settle_now()?;
        }
        Ok(())
    }

    /// Would [`Session::schedule_at`] accept `ev` at `at`? Changes nothing:
    /// a live migration asks this of its source before it schedules on
    /// either machine.
    pub(crate) fn check_at(&self, at: SimTime, ev: &WorkloadEvent) -> Result<(), SessionError> {
        let now = self.kernel.now();
        if at < now {
            return Err(SessionError::InvalidDecision(format!(
                "event scheduled at {at:?} lies in the past (now {now:?})"
            )));
        }
        let tag = ev.tag();
        let facts = TagFacts {
            live: self.pid(tag).is_some_and(|pid| self.kernel.is_alive(pid)),
            pending_spawn: self.pending_spawn(tag).map(|s| (s, s <= at)),
            pending_kill: self.pending_kill(tag),
            ever_spawned: self.pids.contains_key(tag),
            dead_at: None,
        };
        let num_pus = self.kernel.config().machine.topology.num_pus();
        validation::check_event(&facts, ev, at)
            .and_then(|()| validation::check_affinity(ev, num_pus))
            .map_err(|i| i.decision_error(tag, at))
    }

    fn apply_due(&mut self) -> Result<(), SessionError> {
        while let Some((_, ev)) = self
            .pending
            .pop_front_if(|(at, _)| *at <= self.kernel.now())
        {
            self.apply(ev)?;
        }
        Ok(())
    }

    /// Move every deferred event whose dependency has completed into the
    /// timed queue. The dependent fires at `exit + delay`, clamped forward
    /// to *now* when the exit only became observable later (natural exits
    /// surface when the kernel reaps at an epoch end); resolved events
    /// insert after already-queued events of the same instant, so they
    /// order deterministically against same-instant timed events (timed
    /// first, then resolved events in declaration order). Returns whether
    /// anything resolved.
    fn resolve_deferred(&mut self) -> bool {
        let mut any = false;
        let mut i = 0;
        while i < self.deferred.len() {
            let d = &self.deferred[i];
            match self.completion_of(&d.dep, d.min_incarnations) {
                Some(exit) => {
                    let d = self.deferred.remove(i);
                    let due = (exit + d.delay).max(self.kernel.now());
                    let pos = self
                        .pending
                        .iter()
                        .position(|(t, _)| *t > due)
                        .unwrap_or(self.pending.len());
                    self.pending.insert(pos, (due, d.ev));
                    any = true;
                }
                None => i += 1,
            }
        }
        any
    }

    /// Apply everything due now and resolve any dependency edges whose dep
    /// has completed, repeating until neither makes progress (a kill
    /// applied now can complete a dependency whose zero-delay dependent is
    /// then due now too).
    pub(crate) fn settle_now(&mut self) -> Result<(), SessionError> {
        loop {
            self.apply_due()?;
            if !self.resolve_deferred() {
                return Ok(());
            }
        }
    }

    fn resolved(&self, tag: &str) -> Result<Pid, SessionError> {
        self.pid(tag).ok_or_else(|| {
            SessionError::InvalidScenario(format!(
                "event against '{tag}' applied before its spawn (declare the spawn first \
                 when scheduling same-instant events)"
            ))
        })
    }

    fn apply(&mut self, ev: WorkloadEvent) -> Result<(), SessionError> {
        match ev {
            WorkloadEvent::Spawn { tag, spec } => {
                let pid = self.kernel.spawn(spec);
                self.kill_instants.remove(&tag);
                self.pids.entry(tag).or_default().push(pid);
            }
            WorkloadEvent::CheckpointKill { tag } => {
                let pid = self.resolved(&tag)?;
                let now = self.kernel.now();
                let cp = self.kernel.checkpoint(pid).map_err(|_| {
                    // ESRCH from checkpoint() means the program already ran
                    // to completion — there is nothing to resume, which a
                    // resume-mode decision must surface as a typed error,
                    // never as a zero-length resumed clone.
                    SessionError::InvalidDecision(format!(
                        "resume-mode kill of '{tag}' (pid {}) at {now:?}: the program \
                         already ran to completion; nothing to checkpoint",
                        pid.0
                    ))
                })?;
                self.kernel
                    .kill(pid)
                    .map_err(|errno| SessionError::Syscall {
                        call: "kill",
                        pid,
                        errno,
                    })?;
                // Migrated away, not completed: this pid must never fire a
                // dependency edge.
                self.checkpoint_killed.insert(pid);
                match &self.handoff {
                    Some(board) => board.publish(&tag, now, cp),
                    None => {
                        return Err(SessionError::InvalidDecision(format!(
                            "checkpoint of '{tag}' has no handoff board to publish to \
                             (resume migrations only run inside a cluster)"
                        )))
                    }
                }
            }
            WorkloadEvent::ResumeSpawn { tag, spec: _ } => {
                let now = self.kernel.now();
                let cp = self
                    .handoff
                    .as_ref()
                    .and_then(|board| board.take(&tag, now))
                    .ok_or_else(|| {
                        SessionError::InvalidDecision(format!(
                            "no checkpoint published for '{tag}' at {now:?} (the source \
                             machine did not produce one, or the handoff was misordered)"
                        ))
                    })?;
                let pid = self.kernel.spawn_from_checkpoint(cp);
                self.kill_instants.remove(&tag);
                self.pids.entry(tag).or_default().push(pid);
            }
            WorkloadEvent::Kill { tag } => {
                let pid = self.resolved(&tag)?;
                self.kernel
                    .kill(pid)
                    .map_err(|errno| SessionError::Syscall {
                        call: "kill",
                        pid,
                        errno,
                    })?;
                // The kill instant is exact and known before the kernel
                // reaps the zombie — dependency edges resolve from it
                // without epoch-granularity slack.
                self.kill_instants.insert(tag, self.kernel.now());
            }
            WorkloadEvent::Renice { tag, nice } => {
                let pid = self.resolved(&tag)?;
                self.kernel
                    .renice(pid, nice)
                    .map_err(|errno| SessionError::Syscall {
                        call: "renice",
                        pid,
                        errno,
                    })?;
            }
            WorkloadEvent::Pin { tag, cpus } => {
                let pid = self.resolved(&tag)?;
                self.kernel
                    .set_affinity(pid, cpus)
                    .map_err(|errno| SessionError::Syscall {
                        call: "sched_setaffinity",
                        pid,
                        errno,
                    })?;
            }
        }
        Ok(())
    }

    /// Advance simulated time to an absolute instant, applying every
    /// scheduled event at its exact time along the way (events at `t`
    /// itself apply before this returns). No-op if `t` is in the past.
    ///
    /// While dependency edges are unresolved, time advances at most one
    /// scheduler-epoch boundary per hop — exits only become observable
    /// when the kernel reaps at an epoch end, and a dependent event must
    /// fire as soon as its dependency's exit can be known.
    pub fn advance_to(&mut self, t: SimTime) -> Result<(), SessionError> {
        loop {
            self.settle_now()?;
            let next_due = self
                .pending
                .front()
                .map(|(at, _)| *at)
                .filter(|at| *at <= t);
            if self.deferred.is_empty() {
                // Timed-only: hop straight to the next event instant.
                match next_due {
                    Some(at) => {
                        self.kernel.advance_until(at);
                        self.apply_due()?;
                    }
                    None => {
                        self.kernel.advance_until(t);
                        return Ok(());
                    }
                }
            } else {
                let step = next_due
                    .unwrap_or(t)
                    .min(self.kernel.epoch_boundary_after(self.kernel.now()))
                    .min(t);
                self.kernel.advance_until(step);
                if self.kernel.now() >= t {
                    self.settle_now()?;
                    return Ok(());
                }
            }
        }
    }

    /// Advance simulated time by a span (see [`Session::advance_to`]).
    pub fn advance(&mut self, dur: SimDuration) -> Result<(), SessionError> {
        self.advance_to(self.kernel.now() + dur)
    }

    /// Drive several monitors concurrently — the §2.5 interference shape.
    /// Every monitor is primed now, then observed on its own interval until
    /// it has produced `refreshes` frames; frames go to `sink` labelled
    /// with [`Monitor::name`]. Monitors due at the same instant observe in
    /// slice order.
    pub fn run_all(
        &mut self,
        monitors: &mut [&mut dyn Monitor],
        refreshes: usize,
        sink: &mut dyn FrameSink,
    ) -> Result<(), SessionError> {
        let never = None::<fn(&Frame) -> bool>;
        let mut set = MonitorSet::new(monitors.iter_mut().map(|m| (&mut **m, never)), refreshes);
        set.prime(self)?;
        set.observe_through(self, UNBOUNDED, |_, _, m, frame| {
            sink.on_frame(m.name(), frame)
        })?;
        Ok(())
    }

    /// Drive one monitor for `refreshes` intervals and collect its frames.
    ///
    /// Each iteration advances simulated time by the monitor's interval,
    /// then takes a frame — so frame *i* covers interval *i*. An initial
    /// priming refresh attaches counters at the current instant without
    /// recording a frame, like starting the real tool:
    ///
    /// ```
    /// use tiptop_core::prelude::*;
    /// use tiptop_kernel::prelude::*;
    /// use tiptop_machine::prelude::*;
    ///
    /// let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
    ///     .user(Uid(1), "u1")
    ///     .spawn(
    ///         "spin",
    ///         SpawnSpec::new("spin", Uid(1), Program::endless(ExecProfile::builder("spin").build())),
    ///     )
    ///     .build()
    ///     .unwrap();
    /// let mut tool = Tiptop::new(
    ///     TiptopOptions::default().delay(SimDuration::from_secs(1)),
    ///     ScreenConfig::default_screen(),
    /// );
    /// let frames = session.run(&mut tool, 3).unwrap();
    /// assert_eq!(frames.len(), 3);
    /// assert_eq!(frames[0].time.as_secs_f64(), 1.0, "frame 0 covers interval 0");
    /// assert_eq!(frames[2].time.as_secs_f64(), 3.0);
    /// ```
    pub fn run(
        &mut self,
        monitor: &mut dyn Monitor,
        refreshes: usize,
    ) -> Result<Vec<Frame>, SessionError> {
        self.run_until(monitor, refreshes, |_| false)
    }

    /// Like [`Session::run`] but stops early when `until` says so (given
    /// the latest frame). Returns the frames recorded so far.
    pub fn run_until(
        &mut self,
        monitor: &mut dyn Monitor,
        max_refreshes: usize,
        until: impl Fn(&Frame) -> bool,
    ) -> Result<Vec<Frame>, SessionError> {
        let mut set = MonitorSet::new([(monitor, Some(until))], max_refreshes);
        set.prime(self)?;
        let mut frames = Vec::new();
        set.observe_through(self, UNBOUNDED, |_, _, _, frame| frames.push(frame))?;
        Ok(frames)
    }

    /// Tear a monitor down (close its counter fds etc.) against this
    /// session's kernel.
    pub fn teardown(&mut self, monitor: &mut dyn Monitor) {
        monitor.teardown(&mut self.kernel);
    }
}

/// The horizon of a lone session's run: observe until every monitor is done.
const UNBOUNDED: SimTime = SimTime(u64::MAX);

/// One machine's observation loop: its monitors, each with its own clock
/// and optional stop rule, primed, observed and torn down against one
/// [`Session`]. [`Session::run_all`] and [`Session::run_until`] run it over
/// borrowed monitors with an unbounded horizon; a cluster shard runs it
/// over boxed monitors, up to each round's or window's horizon.
pub(crate) struct MonitorSet<M, U> {
    slots: Vec<Slot<M, U>>,
    /// Frames each monitor takes at most.
    refreshes: usize,
}

/// One monitor of a [`MonitorSet`] and its clock.
struct Slot<M, U> {
    monitor: M,
    /// Stops the monitor once it returns true; the stopping frame counts.
    until: Option<U>,
    next_at: SimTime,
    taken: usize,
    /// Stopped by `until`, or out of refreshes.
    done: bool,
}

impl<M, U> MonitorSet<M, U>
where
    M: DerefMut,
    M::Target: Monitor,
    U: FnMut(&Frame) -> bool,
{
    pub(crate) fn new(
        monitors: impl IntoIterator<Item = (M, Option<U>)>,
        refreshes: usize,
    ) -> Self {
        let slots = monitors
            .into_iter()
            .map(|(monitor, until)| Slot {
                monitor,
                until,
                next_at: SimTime::ZERO,
                taken: 0,
                done: refreshes == 0,
            })
            .collect();
        MonitorSet { slots, refreshes }
    }

    /// The monitors, in set order.
    pub(crate) fn monitors(&self) -> impl Iterator<Item = &M::Target> {
        self.slots.iter().map(|s| &*s.monitor)
    }

    /// Reject zero-interval monitors: they would never let time advance.
    pub(crate) fn check(&self) -> Result<(), SessionError> {
        match self.monitors().find(|m| m.interval().is_zero()) {
            Some(m) => Err(SessionError::InvalidScenario(format!(
                "monitor '{}' has a zero refresh interval",
                m.name()
            ))),
            None => Ok(()),
        }
    }

    /// Check the set, then prime every monitor at the session's current
    /// instant, in set order. Each first observes one interval later.
    pub(crate) fn prime(&mut self, session: &mut Session) -> Result<(), SessionError> {
        self.check()?;
        let now = session.now();
        for slot in &mut self.slots {
            slot.monitor.prime(&mut session.kernel);
            slot.next_at = now + slot.monitor.interval();
        }
        Ok(())
    }

    /// The earliest instant an unfinished monitor is due, if any.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter(|s| !s.done)
            .map(|s| s.next_at)
            .min()
    }

    /// Each unfinished monitor's next instant, interval and refreshes left.
    pub(crate) fn open(&self) -> impl Iterator<Item = (SimTime, SimDuration, usize)> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.done)
            .map(|s| (s.next_at, s.monitor.interval(), self.refreshes - s.taken))
    }

    /// Advance the session to each instant a monitor is due, up to
    /// `horizon`, applying the events on the way, and observe the monitors
    /// due there in set order. `emit` gets each frame with its monitor's
    /// set index and observation number (0-based). Returns the last
    /// instant observed.
    pub(crate) fn observe_through(
        &mut self,
        session: &mut Session,
        horizon: SimTime,
        mut emit: impl FnMut(usize, usize, &M::Target, Frame),
    ) -> Result<SimTime, SessionError> {
        let mut reached = session.now();
        while let Some(at) = self.next_due().filter(|at| *at <= horizon) {
            session.advance_to(at)?;
            reached = at;
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if slot.done || slot.next_at != at {
                    continue;
                }
                let frame = slot.monitor.observe(&mut session.kernel);
                let stop = slot.until.as_mut().is_some_and(|until| until(&frame));
                slot.taken += 1;
                slot.done = stop || slot.taken >= self.refreshes;
                slot.next_at = at + slot.monitor.interval();
                emit(i, slot.taken - 1, &slot.monitor, frame);
            }
        }
        Ok(reached)
    }

    /// Tear every monitor down (close its counter fds etc.).
    pub(crate) fn teardown(&mut self, session: &mut Session) {
        for slot in &mut self.slots {
            slot.monitor.teardown(&mut session.kernel);
        }
    }
}
