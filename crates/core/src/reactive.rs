//! Reactive fleet scheduling: policies that watch the merged cluster
//! stream and issue migrations **live**.
//!
//! The paper's thesis is that live performance monitoring should *inform
//! decisions*. The scripted
//! [`ClusterScenario::migrate_at`](crate::cluster::ClusterScenario::migrate_at)
//! replays a grid scheduler's decision; this module lets the decision be
//! *made* during the run: a [`SchedulerPolicy`] observes every frame of the
//! merged stream (the same frames the sink sees) and returns
//! [`MigrationDecision`]s, which
//! [`ClusterSession::run`](crate::cluster::ClusterSession::run)
//! validates at run time and injects into the affected machines' event
//! queues at the next scheduler-epoch boundary after the deciding frame.
//! Decisions are keyed to sim-time, so a reactive run is byte-identical at
//! any worker-thread count.
//!
//! Every built-in detector is a [`Watch`] over a [`Statistic`]. The watch
//! owns what detectors share — target selection, the frame filter, and the
//! eviction of co-runners to a relief machine in [`MigrationMode::Restart`]
//! or [`MigrationMode::Resume`] (see
//! [`Kernel::checkpoint`](tiptop_kernel::kernel::Kernel::checkpoint)); the
//! statistic only decides, sample by sample, whether to fire:
//!
//! * [`IpcFloor`] — threshold detection: fire once the watched IPC, seen
//!   healthy first, stays below a floor for a sustained breach window.
//! * [`Cusum`] — one-sided CUSUM: calibrate a reference IPC over a warmup
//!   window, accumulate downward deviations beyond a drift allowance, and
//!   fire when the sum crosses a decision threshold.
//! * [`Population`] — after Prates et al.: the warmup samples form a
//!   reference *population* (μ, σ), and a confirmation run of samples below
//!   the band μ − kσ declares a change-point.
//!
//! Detectors answer *when* to migrate; **placement** answers *where to*.
//! The built-in detectors name a fixed relief machine, while
//! [`LeastLoaded`] tracks live per-machine load off the same merged stream
//! and [`Balanced`] composes the two — any detector's eviction decisions,
//! re-routed at fire time to the machine the fleet currently loads least.

use std::collections::{BTreeMap, HashSet};

use tiptop_machine::time::{SimDuration, SimTime};

use crate::cluster::ClusterFrame;
use crate::render::Row;
use crate::symbols::{self, Label, SymId};

/// How a migration moves a job's work to the destination machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MigrationMode {
    /// Kill on the source, re-spawn from the original spec on the
    /// destination: the job starts over from instruction zero (the only
    /// behaviour before the checkpoint/restore subsystem existed).
    #[default]
    Restart,
    /// Checkpoint at kill time and resume mid-program on the destination:
    /// the new incarnation continues from the captured program cursor with
    /// its accumulated counters and address-stream state intact.
    Resume,
}

impl MigrationMode {
    /// Lower-case label used in rendered decision/handover lines.
    pub fn label(self) -> &'static str {
        match self {
            MigrationMode::Restart => "restart",
            MigrationMode::Resume => "resume",
        }
    }
}

/// One live scheduling decision: move the job tagged `tag` from machine
/// `from` to machine `to`, restarting or resuming it per `mode`. The
/// run-time counterpart of
/// [`ClusterScenario::migrate_at`](crate::cluster::ClusterScenario::migrate_at);
/// the driver validates it against the live sessions (typed
/// [`SessionError::InvalidDecision`](crate::scenario::SessionError) on an
/// infeasible request) and applies it at the next epoch boundary.
///
/// By the convention every workload script in this repository follows, a
/// job's scenario *tag* equals its command name — which is what a policy
/// reads off a frame row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationDecision {
    pub tag: String,
    pub from: String,
    pub to: String,
    pub mode: MigrationMode,
}

/// A decision that was validated and injected during a reactive run:
/// what moved, who decided, and the two instants that matter — the merged
/// frame that triggered it and the epoch boundary where it applied.
#[derive(Clone, Debug)]
pub struct AppliedDecision {
    /// [`SchedulerPolicy::name`] of the deciding policy.
    pub policy: String,
    pub tag: String,
    pub from: String,
    pub to: String,
    pub mode: MigrationMode,
    /// Sim-time of the frame the policy fired on.
    pub decided_at: SimTime,
    /// The next epoch boundary after `decided_at`: where the kill lands on
    /// the source and the spawn on the destination (same instant on both).
    pub applied_at: SimTime,
}

/// A scheduler that closes the monitor→migration loop: it observes the
/// merged cluster stream frame by frame — in merge order, exactly as a
/// [`ClusterFrameSink`](crate::cluster::ClusterFrameSink) would — and
/// returns migration decisions.
///
/// Policies run on the driving thread between observation rounds, so they
/// need no `Send`; their state may be arbitrary, but `observe` must be a
/// deterministic function of the frames seen so far — that is what keeps
/// reactive runs byte-identical at any worker-thread count.
pub trait SchedulerPolicy {
    /// Short identifier, used to label applied decisions and errors.
    fn name(&self) -> &str;

    /// Observe one frame of the merged stream; return any migrations this
    /// frame triggers (usually none).
    fn observe(&mut self, frame: &ClusterFrame) -> Vec<MigrationDecision>;
}

/// What a detector measures: the one part of a [`Watch`] that differs
/// between detectors. A new detector is only its statistic.
///
/// `sample` sees the watched job's IPC series in stream order (only the
/// samples that pass the watch's frame filter and any
/// [`skip`](Watch::skip)) and returns `true` to fire on that sample's
/// frame. Like [`SchedulerPolicy::observe`], it must be deterministic.
///
/// ```
/// use tiptop_core::reactive::{SchedulerPolicy, Statistic, Watch};
/// use tiptop_core::{render::values_of, ClusterFrame, Frame, Row};
/// use tiptop_kernel::task::Pid;
/// use tiptop_machine::time::SimTime;
///
/// /// Fire on the first IPC below a fixed level.
/// struct FirstBelow(f64);
/// impl Statistic for FirstBelow {
///     fn sample(&mut self, _t: SimTime, ipc: f64) -> bool {
///         ipc < self.0
///     }
/// }
/// let mut detector = Watch::with("first-below", FirstBelow(1.0), "node", "victim", "spare");
///
/// let row = |pid, user, comm, ipc| Row::new(Pid(pid), user, comm, 0.0, vec![], values_of([("IPC", ipc)]));
/// let rows = vec![row(1, "alice", "victim", 0.6), row(2, "bob", "batch", 1.3)];
/// let frame = Frame { time: SimTime::from_secs(2), headers: Vec::new().into(), rows, unobservable: 0 };
/// let (machine, source) = ("node".into(), "tiptop".into());
/// let decisions = detector.observe(&ClusterFrame { machine, machine_index: 0, source, seq: 0, frame });
/// assert_eq!(decisions[0].tag, "batch"); // the other user's job moves to "spare"
/// ```
pub trait Statistic {
    /// Fold in the watched job's IPC sampled at `t`; `true` fires.
    fn sample(&mut self, t: SimTime, ipc: f64) -> bool;
}

/// A [`Statistic`] that calibrates on the watched job's own first samples,
/// so discarding a cold-start ramp with [`Watch::skip`] is meaningful.
pub trait Calibrating: Statistic {}

/// A custom eviction rule over a triggering frame's rows.
type EvictRule = Box<dyn FnMut(&Row) -> bool>;

/// A detector: one [`Statistic`] watching one job (`comm`) on one machine.
/// Only frames of that machine (and, with [`source`](Watch::source), of one
/// monitor) carrying the job's row with a finite IPC reach the statistic.
/// When it fires, the watch evicts the triggering frame's co-runners to the
/// relief machine `to`: by default every job of a different **non-root**
/// user than the victim (protect the interactive user, move the batch
/// arrivals; root rows are system plumbing, not anyone's job), or
/// whatever [`evicting`](Watch::evicting) selects. The
/// victim is never evicted, and each tag at most once.
pub struct Watch<S> {
    name: &'static str,
    machine: String,
    comm: String,
    /// The `IPC` column's id, interned once at construction.
    ipc: SymId,
    to: String,
    mode: MigrationMode,
    /// Only frames of this monitor are considered (`None`: any frame whose
    /// watched row carries a finite IPC).
    source: Option<String>,
    rule: Option<EvictRule>,
    moved: HashSet<Label>,
    /// Watched samples still to discard before the statistic sees any.
    skip: usize,
    stat: S,
}

impl<S: Statistic> Watch<S> {
    /// Watch `comm` on `machine` with `stat`, relieving onto `to`; `name`
    /// labels the decisions it fires.
    pub fn with(
        name: &'static str,
        stat: S,
        machine: impl Into<String>,
        comm: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        Watch {
            name,
            machine: machine.into(),
            comm: comm.into(),
            ipc: symbols::intern("IPC"),
            to: to.into(),
            mode: MigrationMode::Restart,
            source: None,
            rule: None,
            moved: HashSet::new(),
            skip: 0,
            stat,
        }
    }

    /// Restrict the watched frames to one monitor's (e.g. `"tiptop"` when
    /// a `top` runs alongside it on the same machine).
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Issue migrations in this mode (default [`MigrationMode::Restart`]).
    pub fn mode(mut self, mode: MigrationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Install a custom eviction rule over the triggering frame's rows
    /// (the watched victim itself is never evicted).
    pub fn evicting(mut self, rule: impl FnMut(&Row) -> bool + 'static) -> Self {
        self.rule = Some(Box::new(rule));
        self
    }

    /// Evict the triggering frame's co-runners matching the rule (default:
    /// jobs of a different non-root user than the victim), each tag at
    /// most once across the detector's lifetime.
    fn evict(&mut self, cf: &ClusterFrame, victim: &Row) -> Vec<MigrationDecision> {
        let mut out = Vec::new();
        for row in &cf.frame.rows {
            if row.pid == victim.pid {
                continue;
            }
            let hit = match &mut self.rule {
                Some(rule) => rule(row),
                None => row.user != victim.user && row.user != "root",
            };
            if hit && self.moved.insert(row.comm.clone()) {
                out.push(MigrationDecision {
                    tag: row.comm.to_string(),
                    from: self.machine.clone(),
                    to: self.to.clone(),
                    mode: self.mode,
                });
            }
        }
        out
    }
}

impl<S: Calibrating> Watch<S> {
    /// Ignore the first `n` watched samples entirely — the statistic never
    /// sees them. A monitor observing a freshly-spawned job reports a few
    /// ramping samples while caches and tiers warm; calibrating on them
    /// would depress the reference below the true healthy level and blind
    /// the detector to a later downward shift.
    pub fn skip(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }
}

impl<S: Statistic> SchedulerPolicy for Watch<S> {
    fn name(&self) -> &str {
        self.name
    }

    fn observe(&mut self, cf: &ClusterFrame) -> Vec<MigrationDecision> {
        if cf.machine != self.machine || self.source.as_ref().is_some_and(|s| *s != cf.source) {
            return Vec::new();
        }
        let Some(victim) = cf.frame.row_for_comm(&self.comm) else {
            return Vec::new();
        };
        let Some(ipc) = victim.value_by_sym(self.ipc).filter(|v| v.is_finite()) else {
            return Vec::new();
        };
        if self.skip > 0 {
            self.skip -= 1;
            return Vec::new();
        }
        if !self.stat.sample(cf.frame.time, ipc) {
            return Vec::new();
        }
        self.evict(cf, victim)
    }
}

/// A calibrating statistic's reference population: the first `warmup`
/// samples are collected, then frozen into their mean `μ` and population
/// standard deviation `σ` once, when the last one arrives.
enum Baseline {
    Learning { warmup: usize, samples: Vec<f64> },
    Calibrated { mean: f64, sd: f64 },
}

impl Baseline {
    fn new(warmup: usize) -> Self {
        Baseline::Learning {
            warmup,
            samples: Vec::new(),
        }
    }

    /// While learning, take `ipc` as a calibration sample and return
    /// `None`; once calibrated, return `(μ, σ)` and leave `ipc` to the
    /// caller.
    fn learn(&mut self, ipc: f64) -> Option<(f64, f64)> {
        let Baseline::Learning { warmup, samples } = self else {
            return self.reference();
        };
        samples.push(ipc);
        if samples.len() == *warmup {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
            *self = Baseline::Calibrated {
                mean,
                sd: var.sqrt(),
            };
        }
        None
    }

    fn reference(&self) -> Option<(f64, f64)> {
        match *self {
            Baseline::Learning { .. } => None,
            Baseline::Calibrated { mean, sd } => Some((mean, sd)),
        }
    }
}

/// [`IpcFloor`]'s statistic: a floor with a dwell.
pub struct FloorStat {
    threshold: f64,
    cooldown: SimDuration,
    armed: bool,
    breach_since: Option<SimTime>,
}

impl Statistic for FloorStat {
    fn sample(&mut self, t: SimTime, ipc: f64) -> bool {
        if ipc >= self.threshold {
            self.armed = true;
            self.breach_since = None;
            return false;
        }
        if !self.armed {
            return false;
        }
        let since = *self.breach_since.get_or_insert(t);
        if t - since < self.cooldown {
            return false;
        }
        // Fire and reset the breach clock, so a continued breach must
        // re-accumulate a full cooldown before firing again.
        self.breach_since = None;
        true
    }
}

/// Threshold detection on a monitored IPC series: watch one job (`comm`)
/// on one machine; once its IPC has been seen healthy (at or above
/// `threshold`) and then stays below the floor for a sustained breach of
/// at least `cooldown`, evict co-running jobs to the relief machine `to`.
///
/// * **Arming** — the policy only reacts to a *drop*: it must first see
///   the watched IPC at or above the floor (so a cold-start ramp below the
///   floor never fires it).
/// * **`cooldown`** — the breach must persist this long before the policy
///   pays a migration: a debounce against transient dips, and, because the
///   breach clock resets on firing, a refire throttle too. Zero means
///   "fire on the first breached frame".
pub type IpcFloor = Watch<FloorStat>;

impl IpcFloor {
    pub fn new(
        machine: impl Into<String>,
        comm: impl Into<String>,
        threshold: f64,
        cooldown: SimDuration,
        to: impl Into<String>,
    ) -> Self {
        let stat = FloorStat {
            threshold,
            cooldown,
            armed: false,
            breach_since: None,
        };
        Watch::with("ipc-floor", stat, machine, comm, to)
    }
}

/// [`Cusum`]'s statistic: a one-sided cumulative sum below the calibrated
/// mean.
pub struct CusumStat {
    baseline: Baseline,
    drift: f64,
    threshold: f64,
    s: f64,
}

impl Statistic for CusumStat {
    fn sample(&mut self, _t: SimTime, ipc: f64) -> bool {
        let Some((reference, _)) = self.baseline.learn(ipc) else {
            return false;
        };
        self.s = (self.s + (reference - ipc - self.drift)).max(0.0);
        if self.s <= self.threshold {
            return false;
        }
        self.s = 0.0;
        true
    }
}

impl Calibrating for CusumStat {}

/// One-sided CUSUM change-point detection on a monitored IPC series: the
/// classic sequential detector for a *sustained downward shift* in a noisy
/// signal, dropped in beside [`IpcFloor`] so the `relief` experiment
/// can rank the two families.
///
/// The first `warmup` watched samples calibrate a reference level `μ` (their
/// mean) without detecting anything — optionally after
/// [`skip`](Watch::skip)ping some leading samples, so a monitor's
/// cold-start ramp doesn't depress the calibrated baseline. After warmup
/// the policy accumulates downward deviations beyond a drift allowance,
///
/// ```text
/// S ← max(0, S + (μ − ipc − drift))
/// ```
///
/// and fires when `S > threshold`, evicting co-running jobs matching the
/// eviction rule (see [`Watch`]) to the relief machine. Firing resets `S`
/// to zero, so a persisting shift must re-accumulate the full threshold
/// before firing again. Unlike a fixed floor, CUSUM needs no absolute
/// "healthy" level up front — it reacts to a shift *relative to the job's
/// own calibrated baseline*, and small dips below `μ − drift` are
/// integrated over time instead of being ignored until a hard floor breaks.
pub type Cusum = Watch<CusumStat>;

impl Cusum {
    /// Watch `comm` on `machine`; calibrate over `warmup` samples, then
    /// fire once the cumulative downward deviation (with `drift` slack per
    /// sample) exceeds `threshold`, relieving onto `to`.
    pub fn new(
        machine: impl Into<String>,
        comm: impl Into<String>,
        warmup: usize,
        drift: f64,
        threshold: f64,
        to: impl Into<String>,
    ) -> Self {
        assert!(warmup > 0, "CUSUM needs at least one calibration sample");
        let stat = CusumStat {
            baseline: Baseline::new(warmup),
            drift,
            threshold,
            s: 0.0,
        };
        Watch::with("cusum", stat, machine, comm, to)
    }

    /// The cumulative sum's current value (test/diagnostic introspection).
    pub fn statistic(&self) -> f64 {
        self.stat.s
    }
}

/// [`Population`]'s statistic: a `μ − kσ` band with a confirmation run.
pub struct PopulationStat {
    baseline: Baseline,
    sigmas: f64,
    confirm: usize,
    run: usize,
}

impl Statistic for PopulationStat {
    fn sample(&mut self, _t: SimTime, ipc: f64) -> bool {
        let Some((mean, sd)) = self.baseline.learn(ipc) else {
            return false;
        };
        if ipc >= mean - self.sigmas * sd {
            self.run = 0;
            return false;
        }
        self.run += 1;
        if self.run < self.confirm {
            return false;
        }
        self.run = 0;
        true
    }
}

impl Calibrating for PopulationStat {}

/// Population-based change-point detection on a monitored IPC series
/// (after Prates et al.): rather than a fixed floor or an accumulated sum,
/// the detector builds a reference *population* from the first `warmup`
/// watched samples — mean `μ` and population standard deviation `σ` — and
/// declares a change-point when `confirm` consecutive samples fall below
/// the tolerance band `μ − sigmas·σ`.
///
/// * **Calibration** — optionally [`skip`](Watch::skip) the cold-start
///   ramp, then the next `warmup` samples form the population; nothing
///   fires while calibrating. The band adapts to the job's own noise level:
///   a jittery signal widens `σ` and keeps ordinary wobble inside the band.
/// * **Confirmation run** — one outlier is not a change-point; a sample
///   back inside the band resets the run. Only `confirm` consecutive
///   out-of-population samples fire the eviction (the population analogue
///   of [`IpcFloor`]'s cooldown).
/// * Firing evicts co-runners exactly as the other detectors do (see
///   [`Watch`]) and resets the run, so a persisting shift must re-confirm
///   before firing again.
pub type Population = Watch<PopulationStat>;

impl Population {
    /// Watch `comm` on `machine`; calibrate a population over `warmup`
    /// samples, then fire after `confirm` consecutive samples below
    /// `μ − sigmas·σ`, relieving onto `to`.
    pub fn new(
        machine: impl Into<String>,
        comm: impl Into<String>,
        warmup: usize,
        sigmas: f64,
        confirm: usize,
        to: impl Into<String>,
    ) -> Self {
        assert!(
            warmup > 0,
            "population needs at least one calibration sample"
        );
        assert!(confirm > 0, "confirmation run must be at least one sample");
        let stat = PopulationStat {
            baseline: Baseline::new(warmup),
            sigmas,
            confirm,
            run: 0,
        };
        Watch::with("population", stat, machine, comm, to)
    }

    /// The calibrated `(μ, σ)` of the reference population, once `warmup`
    /// samples are in (test/diagnostic introspection).
    pub fn reference(&self) -> Option<(f64, f64)> {
        self.stat.baseline.reference()
    }

    /// Length of the current out-of-population confirmation run.
    pub fn breach_run(&self) -> usize {
        self.stat.run
    }
}

/// Live fleet-load tracker and placement rule: remembers, per machine, the
/// load reported by that machine's latest frame (the summed `%CPU` of its
/// non-root rows) and picks the least-loaded machine as a migration
/// destination. Ties break on the *machine index* — the declaration order
/// of [`ClusterScenario::machine`](crate::cluster::ClusterScenario) — so
/// the choice is stable across runs and worker-thread counts.
#[derive(Default)]
pub struct LeastLoaded {
    source: Option<String>,
    /// machine name → (declaration index, latest load).
    loads: BTreeMap<String, (usize, f64)>,
}

impl LeastLoaded {
    pub fn new() -> Self {
        Self::default()
    }

    /// Only count frames of this monitor toward load (e.g. `"tiptop"` when
    /// a `top` runs alongside it).
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Fold one frame of the merged stream into the per-machine loads.
    pub fn observe(&mut self, cf: &ClusterFrame) {
        if self.source.as_ref().is_some_and(|s| *s != cf.source) {
            return;
        }
        let load: f64 = cf
            .frame
            .rows
            .iter()
            .filter(|r| r.user != "root")
            .map(|r| r.cpu_pct)
            .sum();
        self.loads
            .insert(cf.machine.to_string(), (cf.machine_index, load));
    }

    /// The latest observed load of `machine`, if any frame arrived yet.
    pub fn load_of(&self, machine: &str) -> Option<f64> {
        self.loads.get(machine).map(|(_, load)| *load)
    }

    /// The least-loaded machine other than `exclude` (typically the
    /// migration source); `None` until some other machine has reported.
    /// Ties break on the lowest machine index.
    pub fn pick(&self, exclude: &str) -> Option<String> {
        self.loads
            .iter()
            .filter(|(name, _)| name.as_str() != exclude)
            .min_by(|(_, (ia, la)), (_, (ib, lb))| la.partial_cmp(lb).unwrap().then(ia.cmp(ib)))
            .map(|(name, _)| name.clone())
    }
}

/// Detector × placement composition: wraps any [`SchedulerPolicy`] and
/// re-routes each decision's destination to the machine [`LeastLoaded`]
/// currently ranks lowest, instead of the detector's fixed relief machine.
/// The inner detector still decides *when* and *what* to evict; the
/// placement rule decides *where to*, from fleet state as of the deciding
/// frame.
pub struct Balanced {
    inner: Box<dyn SchedulerPolicy>,
    placement: LeastLoaded,
    name: String,
}

impl Balanced {
    pub fn new(inner: impl SchedulerPolicy + 'static) -> Self {
        let name = format!("{}+least-loaded", inner.name());
        Balanced {
            inner: Box::new(inner),
            placement: LeastLoaded::new(),
            name,
        }
    }

    /// Only count frames of this monitor toward load (the inner detector
    /// keeps its own source filter).
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.placement = self.placement.source(source);
        self
    }
}

impl SchedulerPolicy for Balanced {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, cf: &ClusterFrame) -> Vec<MigrationDecision> {
        // Fold the frame into the load picture first, so a decision fired
        // on this very frame already sees it.
        self.placement.observe(cf);
        let mut decisions = self.inner.observe(cf);
        for d in &mut decisions {
            if let Some(to) = self.placement.pick(&d.from) {
                d.to = to;
            }
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::Frame;
    use tiptop_kernel::task::Pid;

    fn frame_at(t: u64, rows: Vec<(&str, &str, f64)>) -> ClusterFrame {
        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(i, (comm, user, ipc))| {
                Row::new(
                    Pid(100 + i as u32),
                    user,
                    comm,
                    100.0,
                    Vec::new(),
                    crate::render::values_of([("IPC", ipc)]),
                )
            })
            .collect();
        ClusterFrame {
            machine: "node".into(),
            machine_index: 0,
            source: "tiptop".into(),
            seq: t as usize,
            frame: Frame {
                time: SimTime::from_secs(t),
                headers: Vec::new().into(),
                rows,
                unobservable: 0,
            },
        }
    }

    #[test]
    fn fires_only_after_arming_and_a_sustained_breach() {
        let mut p = IpcFloor::new("node", "victim", 1.0, SimDuration::from_secs(2), "spare");
        // Cold start below the floor: not armed, never fires.
        assert!(p
            .observe(&frame_at(1, vec![("victim", "u1", 0.5)]))
            .is_empty());
        // Healthy sample arms it.
        assert!(p
            .observe(&frame_at(2, vec![("victim", "u1", 1.4)]))
            .is_empty());
        // Breach starts at t=3; cooldown 2 s means t=5 is the first firing
        // instant — and a recovery in between resets the clock.
        assert!(p
            .observe(&frame_at(
                3,
                vec![("victim", "u1", 0.8), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        assert!(p
            .observe(&frame_at(
                4,
                vec![("victim", "u1", 0.8), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        let fired = p.observe(&frame_at(
            5,
            vec![
                ("victim", "u1", 0.8),
                ("batch", "u2", 1.2),
                ("peer", "u1", 1.0),
            ],
        ));
        // Default rule: evict other users' jobs, never the victim's user's.
        assert_eq!(
            fired,
            vec![MigrationDecision {
                tag: "batch".to_string(),
                from: "node".to_string(),
                to: "spare".to_string(),
                mode: MigrationMode::Restart,
            }]
        );
        // A continued breach must re-accumulate the cooldown, and an
        // already-moved tag is never re-evicted.
        assert!(p
            .observe(&frame_at(
                6,
                vec![("victim", "u1", 0.8), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        assert!(p
            .observe(&frame_at(
                8,
                vec![("victim", "u1", 0.8), ("batch", "u2", 1.2)]
            ))
            .is_empty());
    }

    #[test]
    fn custom_eviction_rule_and_source_filter() {
        let mut p = IpcFloor::new("node", "victim", 1.0, SimDuration::ZERO, "spare")
            .source("tiptop")
            .evicting(|row: &Row| row.comm.starts_with("batch"));
        let mut other = frame_at(1, vec![("victim", "u1", 1.4)]);
        other.source = "top".into();
        assert!(p.observe(&other).is_empty(), "wrong monitor is ignored");
        assert!(p
            .observe(&frame_at(1, vec![("victim", "u1", 1.4)]))
            .is_empty());
        let fired = p.observe(&frame_at(
            2,
            vec![
                ("victim", "u1", 0.5),
                ("batch0", "u1", 1.0),
                ("other", "u2", 1.0),
            ],
        ));
        assert_eq!(fired.len(), 1, "only the rule's matches are evicted");
        assert_eq!(fired[0].tag, "batch0");
    }

    #[test]
    fn cusum_calibrates_then_fires_on_a_sustained_shift() {
        // Warmup 3 samples at IPC ≈ 1.4 → reference 1.4. Drift 0.1,
        // threshold 0.5: a drop to 1.0 deviates 0.4−0.1=0.3 per sample, so
        // the second breached sample (S=0.6) crosses the threshold.
        let mut p = Cusum::new("node", "victim", 3, 0.1, 0.5, "spare").mode(MigrationMode::Resume);
        for t in 1..=3 {
            assert!(p
                .observe(&frame_at(t, vec![("victim", "u1", 1.4)]))
                .is_empty());
        }
        // Small wobble within the drift allowance never accumulates.
        assert!(p
            .observe(&frame_at(4, vec![("victim", "u1", 1.35)]))
            .is_empty());
        assert_eq!(p.statistic(), 0.0, "wobble inside drift clamps to zero");
        assert!(p
            .observe(&frame_at(
                5,
                vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        let fired = p.observe(&frame_at(
            6,
            vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)],
        ));
        assert_eq!(
            fired,
            vec![MigrationDecision {
                tag: "batch".to_string(),
                from: "node".to_string(),
                to: "spare".to_string(),
                mode: MigrationMode::Resume,
            }]
        );
        assert_eq!(p.statistic(), 0.0, "firing resets the statistic");
        // The shift must re-accumulate before firing again, and the moved
        // tag is never re-evicted.
        assert!(p
            .observe(&frame_at(
                7,
                vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        assert!(p
            .observe(&frame_at(
                8,
                vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)]
            ))
            .is_empty());
    }

    #[test]
    fn cusum_skip_discards_the_cold_start_ramp_from_calibration() {
        // Without skip, the ramp samples (0.6, 0.9) would drag the
        // reference mean to ~1.0 and a later dwell at 1.1 would never
        // accumulate. Skipping them calibrates on the plateau (1.4).
        let mut p = Cusum::new("node", "victim", 2, 0.05, 0.4, "spare").skip(2);
        for (t, ipc) in [(1, 0.6), (2, 0.9), (3, 1.4), (4, 1.4)] {
            assert!(p
                .observe(&frame_at(t, vec![("victim", "u1", ipc)]))
                .is_empty());
        }
        assert_eq!(p.statistic(), 0.0, "ramp and warmup never accumulate");
        // Shift to 1.1: deviation 0.3−0.05=0.25 per sample; the second
        // breached sample (S=0.5) crosses the 0.4 threshold.
        assert!(p
            .observe(&frame_at(
                5,
                vec![("victim", "u1", 1.1), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        let fired = p.observe(&frame_at(
            6,
            vec![("victim", "u1", 1.1), ("batch", "u2", 1.2)],
        ));
        assert_eq!(fired.len(), 1, "calibrated on the plateau, not the ramp");
        assert_eq!(fired[0].tag, "batch");
    }

    /// Feed `p` every frame the shared filter must drop — each carries a
    /// sample that would arm, calibrate or use up `skip` if it got through
    /// — and check none fires or leaves `pristine`; then check a watched
    /// frame does reach the statistic, so `pristine` is not vacuous.
    fn assert_filters<S: Statistic>(mut p: Watch<S>, pristine: impl Fn(&Watch<S>) -> bool) {
        let rows = || vec![("victim", "u1", 1.4), ("batch", "u2", 1.2)];
        let mut elsewhere = frame_at(1, rows());
        elsewhere.machine = "other".into();
        let mut wrong_source = frame_at(1, rows());
        wrong_source.source = "top".into();
        let unwatched = frame_at(1, vec![("batch", "u2", 1.2)]);
        let nan = frame_at(1, vec![("victim", "u1", f64::NAN), ("batch", "u2", 1.2)]);
        for (what, cf) in [
            ("another machine", elsewhere),
            ("another source", wrong_source),
            ("no watched row", unwatched),
            ("a NaN IPC", nan),
        ] {
            assert!(p.observe(&cf).is_empty(), "{}: {what} fired", p.name());
            assert!(pristine(&p), "{}: {what} reached the statistic", p.name());
        }
        assert!(p.observe(&frame_at(2, rows())).is_empty());
        assert!(!pristine(&p), "{}: a watched frame was dropped", p.name());
    }

    #[test]
    fn cusum_ignores_other_machines_and_unwatched_frames() {
        let empty =
            |b: &Baseline| matches!(b, Baseline::Learning { samples, .. } if samples.is_empty());
        assert_filters(
            IpcFloor::new("node", "victim", 1.0, SimDuration::ZERO, "spare").source("tiptop"),
            |p| !p.stat.armed && p.stat.breach_since.is_none(),
        );
        assert_filters(
            Cusum::new("node", "victim", 1, 0.0, 0.1, "spare")
                .source("tiptop")
                .skip(1),
            |p| p.skip == 1 && empty(&p.stat.baseline) && p.statistic() == 0.0,
        );
        assert_filters(
            Population::new("node", "victim", 1, 0.0, 1, "spare")
                .source("tiptop")
                .skip(1),
            |p| p.skip == 1 && empty(&p.stat.baseline) && p.breach_run() == 0,
        );
    }

    #[test]
    fn population_never_evicts_a_tag_twice() {
        // Calibrate on 1.4 (σ = 0, confirm = 1): every sample below fires.
        let mut p = Population::new("node", "victim", 1, 0.0, 1, "spare");
        assert!(p
            .observe(&frame_at(1, vec![("victim", "u1", 1.4)]))
            .is_empty());
        let fired = p.observe(&frame_at(
            2,
            vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)],
        ));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].tag, "batch");
        // The second firing evicts only the newcomer.
        let fired = p.observe(&frame_at(
            3,
            vec![
                ("victim", "u1", 1.0),
                ("batch", "u2", 1.2),
                ("late", "u3", 1.2),
            ],
        ));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].tag, "late");
    }

    #[test]
    fn population_calibrates_mu_sigma_then_fires_at_the_confirmed_step() {
        // Warmup population 1.38/1.42/1.38/1.42: μ = 1.40, σ = 0.02. With
        // sigmas = 3 the tolerance band floors at 1.34.
        let mut p = Population::new("node", "victim", 4, 3.0, 2, "spare");
        assert_eq!(p.reference(), None, "not calibrated before warmup");
        for (t, ipc) in [(1, 1.38), (2, 1.42), (3, 1.38), (4, 1.42)] {
            assert!(p
                .observe(&frame_at(t, vec![("victim", "u1", ipc)]))
                .is_empty());
        }
        let (mean, sd) = p.reference().expect("calibrated after 4 samples");
        assert!((mean - 1.40).abs() < 1e-12, "μ = {mean}");
        assert!((sd - 0.02).abs() < 1e-12, "σ = {sd}");
        // In-band wobble (1.36 > 1.34) never starts a run.
        assert!(p
            .observe(&frame_at(5, vec![("victim", "u1", 1.36)]))
            .is_empty());
        assert_eq!(p.breach_run(), 0);
        // A step to 1.0 is out of population; confirm = 2 means the second
        // consecutive out-of-band sample — t=7, the change-point instant —
        // fires, not the first.
        assert!(p
            .observe(&frame_at(
                6,
                vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)]
            ))
            .is_empty());
        assert_eq!(p.breach_run(), 1);
        let fired = p.observe(&frame_at(
            7,
            vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)],
        ));
        assert_eq!(
            fired,
            vec![MigrationDecision {
                tag: "batch".to_string(),
                from: "node".to_string(),
                to: "spare".to_string(),
                mode: MigrationMode::Restart,
            }]
        );
        assert_eq!(p.breach_run(), 0, "firing resets the confirmation run");
    }

    #[test]
    fn population_recovery_resets_the_confirmation_run() {
        let mut p = Population::new("node", "victim", 2, 2.0, 2, "spare").skip(1);
        // Skip the ramp sample, calibrate on 1.4/1.4 (σ = 0): any sample
        // below μ is out of population.
        for (t, ipc) in [(1, 0.7), (2, 1.4), (3, 1.4)] {
            assert!(p
                .observe(&frame_at(t, vec![("victim", "u1", ipc)]))
                .is_empty());
        }
        // Outlier, recovery, outlier: the run never reaches confirm = 2.
        for (t, ipc) in [(4, 1.0), (5, 1.4), (6, 1.0)] {
            assert!(p
                .observe(&frame_at(
                    t,
                    vec![("victim", "u1", ipc), ("batch", "u2", 1.2)]
                ))
                .is_empty());
        }
        assert_eq!(p.breach_run(), 1);
        // The second consecutive outlier confirms the change-point.
        let fired = p.observe(&frame_at(
            7,
            vec![("victim", "u1", 1.0), ("batch", "u2", 1.2)],
        ));
        assert_eq!(fired.len(), 1);
    }

    /// A frame labelled as coming from `machine` (declaration index `idx`);
    /// rows are `(comm, user, ipc)` like [`frame_at`]'s, plus a `%CPU`.
    fn fleet_frame(
        machine: &str,
        idx: usize,
        t: u64,
        rows: Vec<(&str, &str, f64, f64)>,
    ) -> ClusterFrame {
        let cpus: Vec<f64> = rows.iter().map(|(_, _, _, cpu)| *cpu).collect();
        let mut cf = frame_at(
            t,
            rows.into_iter()
                .map(|(comm, user, ipc, _)| (comm, user, ipc))
                .collect(),
        );
        for (row, cpu) in cf.frame.rows.iter_mut().zip(cpus) {
            row.cpu_pct = cpu;
        }
        cf.machine = machine.into();
        cf.machine_index = idx;
        cf
    }

    #[test]
    fn least_loaded_picks_live_minimum_and_ties_break_on_machine_index() {
        let mut ll = LeastLoaded::new();
        assert_eq!(ll.pick("node-a"), None, "nothing observed yet");
        ll.observe(&fleet_frame(
            "node-a",
            0,
            1,
            vec![("job1", "u1", 1.2, 180.0), ("sys", "root", 1.0, 40.0)],
        ));
        ll.observe(&fleet_frame(
            "node-b",
            1,
            1,
            vec![("job2", "u2", 1.2, 90.0)],
        ));
        ll.observe(&fleet_frame(
            "node-c",
            2,
            1,
            vec![("job3", "u3", 1.2, 90.0)],
        ));
        // Root rows don't count toward load.
        assert_eq!(ll.load_of("node-a"), Some(180.0));
        // b and c tie at 90: the lower machine index wins, stably.
        assert_eq!(ll.pick("node-a"), Some("node-b".to_string()));
        // The source machine is excluded even when it is the minimum.
        assert_eq!(ll.pick("node-b"), Some("node-c".to_string()));
        // Loads are live: a newer frame replaces a machine's standing.
        ll.observe(&fleet_frame(
            "node-c",
            2,
            2,
            vec![("job3", "u3", 1.2, 10.0)],
        ));
        assert_eq!(ll.pick("node-a"), Some("node-c".to_string()));
    }

    #[test]
    fn balanced_reroutes_decisions_to_the_least_loaded_machine() {
        // IpcFloor aims at a fixed "spare", but the wrapper re-routes to
        // whatever machine the fleet currently loads least.
        let mut p = Balanced::new(IpcFloor::new(
            "node",
            "victim",
            1.0,
            SimDuration::ZERO,
            "spare",
        ));
        assert_eq!(p.name(), "ipc-floor+least-loaded");
        p.observe(&fleet_frame(
            "spare",
            1,
            1,
            vec![("busy", "u3", 1.2, 150.0)],
        ));
        p.observe(&fleet_frame("idle", 2, 1, vec![]));
        // Arm, then breach.
        assert!(p
            .observe(&fleet_frame(
                "node",
                0,
                1,
                vec![("victim", "u1", 1.4, 100.0)]
            ))
            .is_empty());
        let fired = p.observe(&fleet_frame(
            "node",
            0,
            2,
            vec![("victim", "u1", 0.5, 100.0), ("batch", "u2", 1.2, 100.0)],
        ));
        assert_eq!(fired.len(), 1);
        assert_eq!(
            fired[0].to, "idle",
            "destination comes from live load, not the detector's fixed relief"
        );
        assert_eq!(fired[0].tag, "batch");
    }
}
