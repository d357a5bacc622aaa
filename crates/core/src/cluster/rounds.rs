//! The round driver behind every cluster run: rounds, windows, dependency
//! edges, resume handoffs and live decisions.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tiptop_kernel::task::TaskState;
use tiptop_machine::time::SimTime;

use super::pool::{guard, Outcome, Phase, Pool, Task};
use super::scenario::{endpoints, ClusterDep, Migration};
use super::session::Monitors;
#[cfg(doc)]
use super::ClusterSession;
use super::{ClusterFrame, ClusterFrameSink, HandoverRecord, RunStats};
use crate::reactive::{AppliedDecision, MigrationDecision, MigrationMode, SchedulerPolicy};
use crate::scenario::{Session, SessionError};
use crate::symbols::Label;

pub(super) struct WorkUnit {
    pub(super) index: usize,
    /// The machine id as a shared label, captured once.
    pub(super) id: Label,
    /// Boxed, so a phase that moves the machine to a worker and back
    /// moves a pointer, not the whole session.
    pub(super) session: Box<Session>,
    pub(super) monitors: Monitors,
    /// Each monitor's name as a shared label, captured once — the hot loop
    /// never calls `name()` again.
    pub(super) sources: Vec<Label>,
}

/// One resume-mode checkpoint handoff: `src` publishes the checkpoint at
/// `at` and `dst` takes it at the same instant.
#[derive(Clone, Copy, Debug)]
pub(super) struct Handoff {
    pub(super) at: SimTime,
    pub(super) src: usize,
    pub(super) dst: usize,
    /// A live decision's handoff: a failed publish is the decision's
    /// fault, so its typed [`SessionError::InvalidDecision`] surfaces
    /// unwrapped.
    pub(super) decided: bool,
}

/// One live decision's injected event pair, for the end-of-run flush and
/// the error-path rollback.
pub(super) struct InjectedDecision {
    at: SimTime,
    tag: String,
    /// Source / destination machine indices.
    src: usize,
    dst: usize,
}

/// Lifecycle of one machine on the round driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Status {
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
/// becomes a window, are documented on [`ClusterSession::run`].
pub(super) struct Rounds<'a> {
    /// Every machine, in index order. A phase moves its machines to the
    /// pool and puts them back before the next one starts.
    pub(super) units: Vec<WorkUnit>,
    /// Per machine index.
    pub(super) status: Vec<Status>,
    pub(super) pool: Pool,
    pub(super) deps: &'a mut [ClusterDep],
    /// Indices of the edges in `deps` still holding their event, in
    /// declaration order: same-instant injections apply in that order.
    pub(super) pending: Vec<usize>,
    /// Resume handoffs not yet published: the scripted ones, plus live
    /// resume decisions as they apply.
    pub(super) handoffs: Vec<Handoff>,
    pub(super) policies: &'a mut [Box<dyn SchedulerPolicy>],
    pub(super) sink: &'a mut dyn ClusterFrameSink,
    /// The run started with live dependency edges: every live machine
    /// marches to each round's instant in passes capped by the edges.
    /// Otherwise only the machines due at the instant advance.
    pub(super) march_all: bool,
    /// Halt at the first failing barrier (runs with policies) instead of
    /// delivering the whole surviving fleet, then erroring.
    pub(super) halt: bool,
    /// The failure to report; the lowest machine index wins.
    pub(super) first_err: Option<(usize, SessionError)>,
    pub(super) stats: RunStats,
    pub(super) injected: Vec<InjectedDecision>,
    pub(super) applied: Vec<AppliedDecision>,
    /// Handovers of the applied decisions.
    pub(super) handovers: Vec<HandoverRecord>,
}

impl Rounds<'_> {
    /// Run the rounds, then tear every primed machine's monitors down — on
    /// the error path too, since healthy sessions are handed back and must
    /// not keep leaked counter fds attached.
    pub(super) fn run(&mut self) -> Result<(), SessionError> {
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
    /// [`ClusterSession::run`]).
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
            streams.push(o.frames);
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
            let Some(frame) = streams[k].next() else {
                leave_heap(top);
                continue;
            };
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

    /// Check one live decision against the live sessions, through the
    /// [`Session::check_at`] that guards every run-time event, and inject
    /// its kill + spawn at the next epoch boundary after the deciding frame.
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
        // Re-label the sessions' own InvalidDecision messages with the
        // decision context before surfacing them.
        let relabel = |e: SessionError| match e {
            SessionError::InvalidDecision(msg) => infeasible(msg),
            other => other,
        };
        let position = |id: &str| self.units.iter().position(|u| u.id == id);
        let (fi, ti) = endpoints(&d.from, &d.to, position).map_err(infeasible)?;
        let src = &self.units[fi].session;
        // Between rounds no machine's clock is past the deciding frame, so the
        // next epoch boundary after it is strictly ahead of both sessions.
        let at = src.kernel().epoch_boundary_after(decided_at);
        let m = Migration {
            at,
            tag: d.tag,
            from: d.from,
            to: d.to,
            mode: d.mode,
        };
        // The source first, so a rejected duplicate claim (two same-round
        // decisions fighting over one job) leaves no stray spawn behind.
        src.check_at(at, &m.kill()).map_err(relabel)?;
        let Some(spec) = src.job_spec(&m.tag).cloned() else {
            return Err(infeasible(format!(
                "'{}' retains no job spec on '{}'",
                m.tag, m.from
            )));
        };
        // A resume decision whose destination is itself the source of
        // another resume handoff at the same instant would chain two
        // handoffs through one machine at one sim-time. Publishing orders
        // such chains only while they stay acyclic, which one more live
        // edge can break, so same-instant resume chains are rejected.
        if m.mode == MigrationMode::Resume
            && self.handoffs.iter().any(|h| h.at == at && h.src == ti)
        {
            return Err(infeasible(format!(
                "machine '{}' is already the source of a resume handoff applying at \
                 {at:?}; same-instant resume chains are not supported",
                m.to
            )));
        }
        // Scheduling checks the destination's spawn and inserts nothing if
        // it is infeasible; the source's kill was checked above.
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
/// [`ClusterSession::run`]).
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

/// Drop an exhausted stream's merge-heap entry. Never taken, since a
/// stream is in the heap only while it has a head; cold and out of line,
/// so the per-frame merge loop pays one untaken branch for it.
#[cold]
#[inline(never)]
fn leave_heap(top: PeekMut<'_, Reverse<(SimTime, usize)>>) {
    PeekMut::pop(top);
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
pub(super) fn observations(u: &WorkUnit, horizon: SimTime) -> usize {
    u.monitors
        .open()
        .filter(|(next, _, _)| *next <= horizon)
        .map(|(next, interval, left)| {
            let more = horizon.since(next).as_nanos() / interval.as_nanos();
            left.min(more as usize + 1)
        })
        .sum()
}
