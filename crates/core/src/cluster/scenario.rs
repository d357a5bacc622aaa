//! The fleet scenario: per-machine scenarios, cross-machine migrations
//! and dependency edges, validated and built into a [`ClusterSession`].

use std::collections::BTreeMap;

use tiptop_kernel::sched::SchedulerSelect;
use tiptop_kernel::task::SpawnSpec;
use tiptop_machine::time::{SimDuration, SimTime};

use super::rounds::Handoff;
use super::session::{RunStats, ShardSlot};
use super::ClusterSession;
#[cfg(doc)]
use super::ClusterWindowSink;
use crate::reactive::MigrationMode;
use crate::scenario::validation;
use crate::scenario::{HandoffBoard, Scenario, SessionError, WorkloadEvent};
use crate::symbols;

/// One migration's handover, as the merged stream can observe it: at `at`
/// the job (command `comm`, scenario tag `tag`) exits on `from` and starts
/// on `to` — the same sim-time on both machines. Scripted migrations
/// ([`ClusterScenario::migrate_at`]) record theirs at build time, runs
/// with policies ([`ClusterSession::run`]) append as decisions apply; read
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
pub(super) struct Migration {
    pub(super) at: SimTime,
    pub(super) tag: String,
    pub(super) from: String,
    pub(super) to: String,
    pub(super) mode: MigrationMode,
}

/// What one migration lands as: by mode, the kill on the source and the
/// spawn on the destination; a resume's checkpoint handoff; and the
/// handover the merged stream shows.
pub(super) struct Landing {
    pub(super) kill: WorkloadEvent,
    pub(super) spawn: WorkloadEvent,
    pub(super) handoff: Option<Handoff>,
    pub(super) handover: HandoverRecord,
}

impl Migration {
    /// The event that ends the job on the source: a kill, or a
    /// checkpoint-kill in resume mode.
    pub(super) fn kill(&self) -> WorkloadEvent {
        let tag = self.tag.clone();
        match self.mode {
            MigrationMode::Restart => WorkloadEvent::Kill { tag },
            MigrationMode::Resume => WorkloadEvent::CheckpointKill { tag },
        }
    }

    /// Desugar the migration of `spec` from machine index `src` to `dst`.
    /// `decided` marks a live decision's handoff (see [`Handoff`]).
    pub(super) fn land(&self, src: usize, dst: usize, spec: SpawnSpec, decided: bool) -> Landing {
        let tag = self.tag.clone();
        let handover = HandoverRecord {
            at: self.at,
            tag: tag.clone(),
            comm: spec.comm.to_string(),
            from: self.from.clone(),
            to: self.to.clone(),
            mode: self.mode,
        };
        let (spawn, handoff) = match self.mode {
            MigrationMode::Restart => (WorkloadEvent::Spawn { tag, spec }, None),
            MigrationMode::Resume => (
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
            kill: self.kill(),
            spawn,
            handoff,
            handover,
        }
    }
}

/// The machine indices of a migration's endpoints, by `index_of`; or why
/// there are none, to be labelled with the migration.
pub(super) fn endpoints(
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
    /// Validated at build time: both ids must exist and differ. The kill
    /// and the spawn then join the two machines' schedules, and each
    /// machine's own [`Scenario::build`] walk checks them like any scripted
    /// event: `tag` must live on `from` at `at` (spawned before, not yet
    /// killed), and `to` must not carry a live task with the tag at `at`;
    /// such an error is labelled with its machine. A tag resolves to a
    /// `(machine, incarnation)` pair — each hop spawns a fresh incarnation
    /// on its destination — so migrations chain freely: onward hops
    /// (`A→B→C`) and round trips (`A→B→A`) both validate, and a machine a
    /// job already ran on can receive it again.
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

    /// Desugar every cross-machine migration onto its two machines, validate
    /// every per-machine scenario, then build the live [`ClusterSession`].
    /// A scenario error is labelled with its machine, and that includes a
    /// migration whose job is not live on its source or whose destination
    /// already carries the tag. A migration's own errors (its endpoints,
    /// and the resume-mode rules) name the migration.
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
        // migrations keep declaration order, so chained moves compose) into
        // a kill on the source and a spawn on the destination. Whether the
        // job is live on the source and the destination free at `at` is
        // each machine's own `Scenario::build` walk to check, over the
        // schedule these events join: a tag resolves to a (machine,
        // incarnation) pair there, so onward chains and round trips build.
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
            if m.mode == MigrationMode::Resume && !resume_hops.insert((m.tag.clone(), m.at)) {
                return Err(SessionError::InvalidScenario(format!(
                    "{label}: another resume-mode hop of '{}' shares this instant; \
                     checkpoints are keyed by (tag, instant), so give each hop \
                     its own instant",
                    m.tag
                )));
            }
            // The job spec to clone onto the destination: the source's
            // latest spawn at or before the instant. With none, the kill is
            // scheduled alone, and the source's walk names why it cannot
            // apply (an unknown tag, or one spawned only later).
            let spec = self.machines[fi]
                .1
                .spawn_events(&m.tag)
                .into_iter()
                .rev()
                .find(|(s, _)| *s <= m.at)
                .map(|(_, spec)| spec.clone());
            let Some(spec) = spec else {
                self.machines[fi].1.schedule(m.at, m.kill());
                continue;
            };
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
pub(super) struct ClusterDep {
    pub(super) consumer: usize,
    pub(super) dep: String,
    pub(super) host: usize,
    pub(super) min_incarnations: usize,
    pub(super) delay: SimDuration,
    pub(super) ev: Option<WorkloadEvent>,
}
