//! The declarative [`Scenario`] builder: machine, users, and a schedule of
//! triggered [`WorkloadEvent`]s, validated and built into a live
//! [`Session`].

use std::collections::BTreeMap;
use std::sync::Arc;

use tiptop_kernel::kernel::{Kernel, KernelConfig};
use tiptop_kernel::sched::{CpuSet, SchedulerSelect};
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};

use super::errors::SessionError;
use super::events::{DeferredEvent, Trigger, WorkloadEvent};
use super::session::Session;
use super::validation::{self, TagFacts, When};

/// Declarative description of an experiment: machine, seed, users, and a
/// schedule of [`WorkloadEvent`]s fired by [`Trigger`]s. Build it into a
/// [`Session`] to run.
#[derive(Debug)]
pub struct Scenario {
    machine: Arc<MachineConfig>,
    seed: u64,
    epoch: Option<SimDuration>,
    scheduler: Option<SchedulerSelect>,
    users: Vec<(Uid, String)>,
    events: Vec<(Trigger, WorkloadEvent)>,
}

impl Scenario {
    /// Accepts an owned [`MachineConfig`] or an already-shared
    /// `Arc<MachineConfig>`; a fleet built from one `Arc` shares the
    /// allocation across every shard.
    pub fn new(machine: impl Into<Arc<MachineConfig>>) -> Self {
        Scenario {
            machine: machine.into(),
            seed: 0,
            epoch: None,
            scheduler: None,
            users: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Adopt an existing [`KernelConfig`] (machine + epoch + seed +
    /// scheduler).
    pub fn from_kernel_config(cfg: KernelConfig) -> Self {
        Scenario::new(cfg.machine)
            .epoch(cfg.epoch)
            .seed(cfg.seed)
            .scheduler(cfg.scheduler)
    }

    /// Deterministic seed for the machine and the task address streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the scheduler epoch (defaults to the kernel's 20 ms).
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Pick the in-kernel epoch planner (defaults to the CFS-like policy).
    pub fn scheduler(mut self, scheduler: SchedulerSelect) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Cluster-layer default: adopt `scheduler` unless this machine already
    /// chose its own planner.
    pub(crate) fn default_scheduler(&mut self, scheduler: &SchedulerSelect) {
        if self.scheduler.is_none() {
            self.scheduler = Some(scheduler.clone());
        }
    }

    /// Register a user name for a uid (like `/etc/passwd`).
    pub fn user(mut self, uid: Uid, name: impl Into<String>) -> Self {
        self.users.push((uid, name.into()));
        self
    }

    /// Spawn a task at t=0. `tag` names it for later events and
    /// [`Session::pid`]; tags must be unique.
    pub fn spawn(self, tag: impl Into<String>, spec: SpawnSpec) -> Self {
        self.spawn_at(SimTime::ZERO, tag, spec)
    }

    /// Spawn a task at an absolute instant.
    pub fn spawn_at(mut self, at: SimTime, tag: impl Into<String>, spec: SpawnSpec) -> Self {
        self.events.push((
            Trigger::At(at),
            WorkloadEvent::Spawn {
                tag: tag.into(),
                spec,
            },
        ));
        self
    }

    /// SIGKILL the tagged task at an absolute instant.
    pub fn kill_at(mut self, at: SimTime, tag: impl Into<String>) -> Self {
        self.events
            .push((Trigger::At(at), WorkloadEvent::Kill { tag: tag.into() }));
        self
    }

    /// Renice the tagged task at an absolute instant.
    pub fn renice_at(mut self, at: SimTime, tag: impl Into<String>, nice: i32) -> Self {
        self.events.push((
            Trigger::At(at),
            WorkloadEvent::Renice {
                tag: tag.into(),
                nice,
            },
        ));
        self
    }

    /// Re-pin the tagged task to a CPU set at an absolute instant.
    pub fn pin_at(mut self, at: SimTime, tag: impl Into<String>, cpus: CpuSet) -> Self {
        self.events.push((
            Trigger::At(at),
            WorkloadEvent::Pin {
                tag: tag.into(),
                cpus,
            },
        ));
        self
    }

    /// Spawn a task `delay` after the job tagged `dep` exits — a dependency
    /// edge in the scenario DAG (stage 2 of an ETL chain starts when stage
    /// 1 finishes). Edges are validated at build time by topological sort;
    /// in a [`ClusterScenario`](crate::cluster::ClusterScenario), `dep` may
    /// live on a different machine.
    pub fn spawn_after(
        mut self,
        dep: impl Into<String>,
        delay: SimDuration,
        tag: impl Into<String>,
        spec: SpawnSpec,
    ) -> Self {
        self.events.push((
            Trigger::AfterExit {
                tag: dep.into(),
                delay,
            },
            WorkloadEvent::Spawn {
                tag: tag.into(),
                spec,
            },
        ));
        self
    }

    /// SIGKILL the tagged task `delay` after the job tagged `dep` exits.
    pub fn kill_after(
        mut self,
        dep: impl Into<String>,
        delay: SimDuration,
        tag: impl Into<String>,
    ) -> Self {
        self.events.push((
            Trigger::AfterExit {
                tag: dep.into(),
                delay,
            },
            WorkloadEvent::Kill { tag: tag.into() },
        ));
        self
    }

    /// Renice the tagged task `delay` after the job tagged `dep` exits.
    pub fn renice_after(
        mut self,
        dep: impl Into<String>,
        delay: SimDuration,
        tag: impl Into<String>,
        nice: i32,
    ) -> Self {
        self.events.push((
            Trigger::AfterExit {
                tag: dep.into(),
                delay,
            },
            WorkloadEvent::Renice {
                tag: tag.into(),
                nice,
            },
        ));
        self
    }

    /// Re-pin the tagged task `delay` after the job tagged `dep` exits.
    pub fn pin_after(
        mut self,
        dep: impl Into<String>,
        delay: SimDuration,
        tag: impl Into<String>,
        cpus: CpuSet,
    ) -> Self {
        self.events.push((
            Trigger::AfterExit {
                tag: dep.into(),
                delay,
            },
            WorkloadEvent::Pin {
                tag: tag.into(),
                cpus,
            },
        ));
        self
    }

    /// Every *timed* spawn-like event declared for `tag` (scripted spawns
    /// and desugared resume-spawns alike), sorted by instant — the cluster
    /// layer clones the job spec of the latest one at or before a
    /// migration's instant onto its destination. Dependency-triggered
    /// spawns have no instant; the cluster rejects migrations of such tags.
    pub(crate) fn spawn_events(&self, tag: &str) -> Vec<(SimTime, &SpawnSpec)> {
        let mut spawns: Vec<(SimTime, &SpawnSpec)> = self
            .events
            .iter()
            .filter_map(|(trigger, ev)| match (trigger, ev) {
                (
                    Trigger::At(at),
                    WorkloadEvent::Spawn { tag: t, spec }
                    | WorkloadEvent::ResumeSpawn { tag: t, spec },
                ) if t == tag => Some((*at, spec)),
                _ => None,
            })
            .collect();
        spawns.sort_by_key(|(at, _)| *at);
        spawns
    }

    /// Append a timed event in place (the by-value builder methods cover
    /// user code; the cluster layer desugars migrations into per-machine
    /// events through this).
    pub(crate) fn schedule(&mut self, at: SimTime, ev: WorkloadEvent) {
        self.events.push((Trigger::At(at), ev));
    }

    /// Every declared event with its trigger, in declaration order — the
    /// schedule the cluster layer hands to
    /// [`validation::validate_dag`] with every other machine's.
    pub(crate) fn events(&self) -> &[(Trigger, WorkloadEvent)] {
        &self.events
    }

    /// Re-append a dependency-triggered entry — after the fleet-wide
    /// [`validation::validate_dag`] pass, the cluster layer hands back the
    /// edges whose whole dependency chain lives on this machine, and this
    /// machine's [`Scenario::build`] validates them again as a one-machine
    /// schedule.
    pub(crate) fn defer(&mut self, dep: String, delay: SimDuration, ev: WorkloadEvent) {
        self.events
            .push((Trigger::AfterExit { tag: dep, delay }, ev));
    }

    /// Remove and return every dependency-triggered entry, in declaration
    /// order — the cluster layer drains them once the fleet-wide
    /// [`validation::validate_dag`] pass accepted them, keeps the ones that
    /// cross machines in its registry, and hands the rest back through
    /// [`Scenario::defer`].
    pub(crate) fn drain_deferred(&mut self) -> Vec<(String, SimDuration, WorkloadEvent)> {
        let mut deferred = Vec::new();
        let mut rest = Vec::with_capacity(self.events.len());
        for (trigger, ev) in self.events.drain(..) {
            match trigger {
                Trigger::AfterExit { tag, delay } => deferred.push((tag, delay, ev)),
                Trigger::At(at) => rest.push((Trigger::At(at), ev)),
            }
        }
        self.events = rest;
        deferred
    }

    /// Validate the schedule and build the live [`Session`]. Events at t=0
    /// are applied immediately, so their pids are resolvable right away.
    pub fn build(mut self) -> Result<Session, SessionError> {
        // Dependency edges first, through the validator a cluster runs over
        // its whole fleet: no duplicate dependency-triggered spawn, known
        // deps, no timed event against a dependency-spawned tag, no
        // dependency that is migrated away for good, an acyclic spawn-after
        // graph. Running this before the timed walk means a timed event on
        // a dependency-spawned tag surfaces as the typed DAG error, not as
        // the walk's "unknown tag". (No dependency edges — every
        // pre-existing scenario — makes this a no-op.)
        let hosts = validation::validate_dag(&[&self.events], |_, error| error)?;

        // Split the schedule into its timed half and its dependency edges.
        let mut deferred: Vec<(String, SimDuration, WorkloadEvent)> = Vec::new();
        let mut timed: Vec<(SimTime, WorkloadEvent)> = Vec::new();
        for (trigger, ev) in self.events.drain(..) {
            match trigger {
                Trigger::At(at) => timed.push((at, ev)),
                Trigger::AfterExit { tag, delay } => deferred.push((tag, delay, ev)),
            }
        }

        // Stable by time: same-instant events keep their declaration order.
        timed.sort_by_key(|(at, _)| *at);

        // First spawn instant per tag, for the "precedes its spawn" message.
        let mut first_spawn: BTreeMap<&str, SimTime> = BTreeMap::new();
        for (at, ev) in &timed {
            if ev.is_spawn() {
                first_spawn.entry(ev.tag()).or_insert(*at);
            }
        }
        // Walk in final apply order (sorted is stable, so same-instant
        // events keep declaration order), tracking each tag's incarnation
        // state. A tag may be spawned again once its previous incarnation
        // is killed — that is what lets a migrated job return to a machine
        // it already ran on — but two incarnations of one tag must never be
        // live at once, and every kill/renice/pin must land inside a live
        // incarnation. The feasibility question itself is the shared
        // checker in [`validation`]; this walk only supplies the facts.
        #[derive(Clone, Copy)]
        enum TagState {
            Live,
            Dead(SimTime),
        }
        let mut state: BTreeMap<&str, TagState> = BTreeMap::new();
        for (at, ev) in &timed {
            let tag = ev.tag();
            let facts = TagFacts {
                live: matches!(state.get(tag), Some(TagState::Live)),
                // The walk sees events in apply order: a first spawn not
                // yet walked always applies *after* this event. (A spawn's
                // own first_spawn entry is itself, not an alias.)
                pending_spawn: if ev.is_spawn() || state.contains_key(tag) {
                    None
                } else {
                    first_spawn.get(tag).map(|s| (*s, false))
                },
                pending_kill: None,
                ever_spawned: state.contains_key(tag),
                dead_at: match state.get(tag) {
                    Some(TagState::Dead(k)) => Some(*k),
                    _ => None,
                },
            };
            validation::check_event(&facts, ev, *at)
                .map_err(|i| i.build_error(tag, When::At(*at)))?;
            if ev.is_spawn() {
                state.insert(tag, TagState::Live);
            } else if ev.is_kill() {
                state.insert(tag, TagState::Dead(*at));
            }
        }

        // Affinity masks are checked before the kernel boots, triggered
        // events included. (The `CpuSet` constructors still assert
        // internally; scripts that build masks from untrusted input use
        // `CpuSet::try_of`/`try_single`.)
        let num_pus = self.machine.topology.num_pus();
        let scheduled = timed.iter().map(|(at, ev)| (When::At(*at), ev));
        let triggered = deferred.iter().map(|(dep, _, ev)| (When::After(dep), ev));
        for (when, ev) in scheduled.chain(triggered) {
            validation::check_affinity(ev, num_pus).map_err(|i| i.build_error(ev.tag(), when))?;
        }

        let mut cfg = KernelConfig::new(self.machine).seed(self.seed);
        if let Some(epoch) = self.epoch {
            cfg = cfg.epoch(epoch);
        }
        if let Some(scheduler) = self.scheduler {
            cfg = cfg.scheduler(scheduler);
        }
        let mut kernel = Kernel::new(cfg);
        for (uid, name) in self.users {
            kernel.add_user(uid, name);
        }
        // Retain every job spec by tag: a live migration decided mid-run
        // (see `ClusterSession::run` with policies) re-spawns the job on its
        // destination machine from this copy.
        let mut specs: BTreeMap<String, SpawnSpec> = BTreeMap::new();
        for ev in timed
            .iter()
            .map(|(_, ev)| ev)
            .chain(deferred.iter().map(|(_, _, ev)| ev))
        {
            if let WorkloadEvent::Spawn { tag, spec } | WorkloadEvent::ResumeSpawn { tag, spec } =
                ev
            {
                specs.insert(tag.clone(), spec.clone());
            }
        }

        // A dependency edge fires on its dep's *completion*: the exit of
        // the last incarnation this schedule creates for it.
        let deferred: Vec<DeferredEvent> = deferred
            .into_iter()
            .zip(hosts)
            .map(|((dep, delay, ev), host)| DeferredEvent {
                dep,
                min_incarnations: host.min_incarnations,
                delay,
                ev,
            })
            .collect();

        let mut session = Session::from_parts(kernel, timed.into(), deferred, specs);
        session.settle_now()?;
        Ok(session)
    }
}
