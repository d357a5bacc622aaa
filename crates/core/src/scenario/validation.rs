//! The one owner of schedule validation, for one machine and for a fleet.
//!
//! * **Event feasibility.** [`Scenario::build`](super::Scenario::build)
//!   validates a whole scripted schedule up front;
//!   [`Session::schedule_at`](super::Session::schedule_at) validates a
//!   single event injected mid-run. Both ask the same questions — "is this
//!   event feasible against the tag's state at its instant?"
//!   ([`check_event`]) and "does its CPU mask allow a PU of this
//!   machine?" ([`check_affinity`]) — and differ only in how they phrase
//!   the refusal: build time wraps it as [`SessionError::InvalidScenario`],
//!   run time as [`SessionError::InvalidDecision`]. A fleet's migrations
//!   are no exception: `ClusterScenario::build` schedules each hop's kill
//!   and spawn onto its two machines, whose own builds check them, and a
//!   live decision asks the same of both live sessions before it
//!   schedules either event.
//! * **Dependency edges.** [`validate_dag`] checks the after-exit edges of
//!   every machine's schedule at once — one machine for `Scenario::build`,
//!   the whole fleet for `ClusterScenario::build` — and resolves the
//!   machine hosting each dependency's final incarnation. The same checks
//!   run in the same order at both sites, so a one-machine fleet and its
//!   lone scenario report the same error.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use tiptop_machine::time::SimTime;
use tiptop_machine::topology::PuId;

use super::errors::{DagError, SessionError};
use super::events::{Trigger, WorkloadEvent};

/// What is known about an event's target tag at the event's instant —
/// assembled from the build-time schedule walk or from live session state.
pub(crate) struct TagFacts {
    /// An incarnation of the tag is live at the instant.
    pub live: bool,
    /// A spawn of the tag is pending: its instant, and whether it is
    /// guaranteed to apply before the event under test (run-time queues
    /// insert after same-instant events, so a pending spawn at `s <= at`
    /// applies first; the build-time walk knows apply order directly and
    /// passes `false` for a spawn that comes later).
    pub pending_spawn: Option<(SimTime, bool)>,
    /// A kill of the tag is pending at the instant.
    pub pending_kill: Option<SimTime>,
    /// Some incarnation of the tag existed at some point.
    pub ever_spawned: bool,
    /// When the latest incarnation ended, if known.
    pub dead_at: Option<SimTime>,
}

/// Why an event is infeasible against its tag's state. Rendered as a
/// build-time or a run-time error by [`Infeasible::build_error`] /
/// [`Infeasible::decision_error`] — identical conditions, context-specific
/// phrasing.
pub(crate) enum Infeasible {
    /// A spawn while another spawn of the tag is still pending.
    SpawnAliasesPending { spawn_at: SimTime },
    /// A spawn while the previous incarnation is still live (and not
    /// claimed by a kill pending no later than the spawn).
    SpawnAliasesLive,
    /// A kill while another kill of the tag is already pending.
    DuplicateKill { kill_at: SimTime },
    /// The event lands before the tag's spawn applies.
    PrecedesSpawn { spawn_at: SimTime },
    /// The tag's current incarnation already ended.
    AfterEnd { end: Option<SimTime> },
    /// No event ever spawns the tag.
    UnknownTag,
    /// A spawn affinity or a pin (`what`) that allows none of the
    /// machine's `num_pus` PUs.
    NoPu { what: &'static str, num_pus: usize },
}

/// When a build-time event applies: at an instant, or after a dependency
/// exits.
#[derive(Clone, Copy)]
pub(crate) enum When<'a> {
    At(SimTime),
    After(&'a str),
}

impl fmt::Display for When<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            When::At(at) => write!(f, "at {at:?}"),
            When::After(dep) => write!(f, "(triggered after '{dep}' exits)"),
        }
    }
}

impl Infeasible {
    /// The build-time rendering ([`SessionError::InvalidScenario`]).
    pub(crate) fn build_error(&self, tag: &str, when: When<'_>) -> SessionError {
        SessionError::InvalidScenario(match self {
            Infeasible::SpawnAliasesPending { .. } | Infeasible::SpawnAliasesLive => {
                format!(
                    "duplicate spawn tag '{tag}': the previous incarnation is still \
                     live {when} (incarnations of one tag must not overlap)"
                )
            }
            Infeasible::DuplicateKill { kill_at } => {
                format!("'{tag}' already has a kill pending at {kill_at:?}")
            }
            Infeasible::PrecedesSpawn { spawn_at } => {
                format!(
                    "event against '{tag}' {when} precedes its spawn at \
                     {spawn_at:?} (same-instant events apply in declaration order)"
                )
            }
            Infeasible::AfterEnd { end } => match end {
                Some(kill_at) => {
                    format!("event against '{tag}' {when} follows its kill at {kill_at:?}")
                }
                None => format!("event against '{tag}' {when} follows its end"),
            },
            Infeasible::UnknownTag => format!("event against unknown tag '{tag}'"),
            Infeasible::NoPu { what, num_pus } => {
                format!("{what} for '{tag}' {when} allows none of the machine's {num_pus} PUs")
            }
        })
    }

    /// The run-time rendering ([`SessionError::InvalidDecision`]).
    pub(crate) fn decision_error(&self, tag: &str, at: SimTime) -> SessionError {
        SessionError::InvalidDecision(match self {
            Infeasible::SpawnAliasesPending { spawn_at } => {
                format!(
                    "tag '{tag}' already has a spawn pending at {spawn_at:?} \
                     (incarnation addressing never aliases two live tasks)"
                )
            }
            Infeasible::SpawnAliasesLive => {
                format!(
                    "tag '{tag}' already names a live task on this machine \
                     (incarnation addressing never aliases two live tasks)"
                )
            }
            Infeasible::DuplicateKill { kill_at } => {
                format!(
                    "'{tag}' is already claimed by another decision (kill pending at {kill_at:?})"
                )
            }
            Infeasible::PrecedesSpawn { spawn_at } => {
                format!(
                    "event against '{tag}' at {at:?} precedes its spawn at \
                     {spawn_at:?}"
                )
            }
            Infeasible::AfterEnd { .. } => format!("'{tag}' already exited"),
            Infeasible::UnknownTag => format!("no task tagged '{tag}' on this machine"),
            Infeasible::NoPu { what, num_pus } => {
                format!("{what} for '{tag}' allows none of the machine's {num_pus} PUs")
            }
        })
    }
}

/// Is `ev` feasible against a tag in the state described by `facts` at
/// instant `at`? The shared core of build-time and run-time validation:
///
/// * a spawn starts a *new incarnation* — allowed once the previous
///   incarnation is dead (or has a kill pending no later than `at`),
///   rejected while it is live or while another spawn is pending;
/// * a kill is rejected while another kill of the same tag is pending
///   (two decisions cannot both claim one job);
/// * a kill/renice/pin must land inside a live incarnation: after the
///   tag's spawn applies and before its end.
pub(crate) fn check_event(
    facts: &TagFacts,
    ev: &WorkloadEvent,
    at: SimTime,
) -> Result<(), Infeasible> {
    if ev.is_spawn() {
        if let Some((spawn_at, _)) = facts.pending_spawn {
            return Err(Infeasible::SpawnAliasesPending { spawn_at });
        }
        let claimed = facts.pending_kill.is_some_and(|k| k <= at);
        if facts.live && !claimed {
            return Err(Infeasible::SpawnAliasesLive);
        }
        return Ok(());
    }
    if ev.is_kill() {
        if let Some(kill_at) = facts.pending_kill {
            return Err(Infeasible::DuplicateKill { kill_at });
        }
    }
    if facts.live {
        return Ok(());
    }
    match facts.pending_spawn {
        Some((_, true)) => Ok(()),
        Some((spawn_at, false)) => Err(Infeasible::PrecedesSpawn { spawn_at }),
        None if facts.ever_spawned => Err(Infeasible::AfterEnd { end: facts.dead_at }),
        None => Err(Infeasible::UnknownTag),
    }
}

/// Does `ev`'s CPU mask allow some PU of a machine with `num_pus` PUs? A
/// mask that allows none would leave a spawned task runnable on no PU
/// forever, or fail a pin mid-run with `sched_setaffinity` EINVAL. Checked
/// for a `Spawn`'s affinity and a `Pin`; a `ResumeSpawn` is exempt, as
/// resuming relaxes a pin the destination cannot honour
/// ([`Kernel::spawn_from_checkpoint`](tiptop_kernel::kernel::Kernel::spawn_from_checkpoint)).
pub(crate) fn check_affinity(ev: &WorkloadEvent, num_pus: usize) -> Result<(), Infeasible> {
    let (cpus, what) = match ev {
        WorkloadEvent::Pin { cpus, .. } => (cpus, "pin"),
        WorkloadEvent::Spawn { spec, .. } => (&spec.affinity, "spawn affinity"),
        _ => return Ok(()),
    };
    if (0..num_pus).any(|pu| cpus.allows(PuId(pu))) {
        Ok(())
    } else {
        Err(Infeasible::NoPu { what, num_pus })
    }
}

/// Where an edge's dependency completes, as [`validate_dag`] resolved it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeHost {
    /// The machine hosting the dependency's final incarnation.
    pub host: usize,
    /// Incarnations of the dependency on `host`: the exit of the last one
    /// is the completion that fires the edge.
    pub min_incarnations: usize,
    /// The edge (an index into [`validate_dag`]'s result) whose event
    /// spawns the dependency, when the dependency is dependency-spawned.
    pub dep_edge: Option<usize>,
}

/// One declared dependency edge: `ev` fires on machine `consumer` after
/// `dep` completes.
struct Edge<'a> {
    consumer: usize,
    dep: &'a str,
    ev: &'a WorkloadEvent,
}

/// What the schedules say about one tag.
#[derive(Default)]
struct TagEntry<'a> {
    /// Timed spawn- and kill-like events as `(machine, instant, event)`:
    /// machine by machine, each machine's in apply order.
    timed: Vec<(usize, SimTime, &'a WorkloadEvent)>,
    /// The edge whose event spawns the tag.
    spawned_by: Option<usize>,
}

/// Validate the dependency edges of every machine's schedule (`schedules[m]`
/// is machine `m`'s timed events and edges, in declaration order) and
/// resolve each edge's dependency host. The result holds one entry per
/// edge, machine by machine, each machine's in declaration order. Checked
/// in this order:
///
/// 1. a tag is spawned by at most one edge, and never also at a scripted
///    instant (incarnations must not overlap);
/// 2. per edge: its dependency is spawned somewhere; no two machines spawn
///    the dependency's final incarnation at the same instant; a non-spawn
///    event's target lives on the edge's own machine (the one error scoped
///    to a machine: `scope(consumer, error)` labels it);
/// 3. no timed event targets a dependency-spawned tag (its timeline is
///    unknown at build time);
/// 4. no dependency's final incarnation is checkpoint-killed (migrated
///    away, so its exit never lands);
/// 5. the spawn-after edges form a DAG.
pub(crate) fn validate_dag(
    schedules: &[&[(Trigger, WorkloadEvent)]],
    scope: impl Fn(usize, SessionError) -> SessionError,
) -> Result<Vec<EdgeHost>, SessionError> {
    let mut edges: Vec<Edge<'_>> = Vec::new();
    for (m, schedule) in schedules.iter().enumerate() {
        for (trigger, ev) in schedule.iter() {
            if let Trigger::AfterExit { tag, .. } = trigger {
                edges.push(Edge {
                    consumer: m,
                    dep: tag,
                    ev,
                });
            }
        }
    }
    if edges.is_empty() {
        return Ok(Vec::new());
    }

    // One index per build: each tag's timed spawns and kills, then the
    // edge spawning each dependency-spawned tag.
    let mut index: HashMap<&str, TagEntry<'_>> = HashMap::new();
    for (m, schedule) in schedules.iter().enumerate() {
        for (trigger, ev) in schedule.iter() {
            if let Trigger::At(at) = trigger {
                if ev.is_spawn() || ev.is_kill() {
                    index.entry(ev.tag()).or_default().timed.push((m, *at, ev));
                }
            }
        }
    }
    for entry in index.values_mut() {
        // Stable: same-instant events keep declaration order.
        entry.timed.sort_by_key(|(m, at, _)| (*m, *at));
    }
    for (k, e) in edges.iter().enumerate() {
        if !e.ev.is_spawn() {
            continue;
        }
        let tag = e.ev.tag();
        let entry = index.entry(tag).or_default();
        if entry.timed.iter().any(|(_, _, ev)| ev.is_spawn()) {
            return Err(SessionError::InvalidScenario(format!(
                "duplicate spawn tag '{tag}': spawned both at a scripted instant and by \
                 a dependency edge (incarnations of one tag must not overlap)"
            )));
        }
        if entry.spawned_by.replace(k).is_some() {
            return Err(SessionError::InvalidScenario(format!(
                "duplicate spawn tag '{tag}': two dependency-triggered spawns \
                 (incarnations of one tag must not overlap)"
            )));
        }
    }

    let mut hosts = Vec::with_capacity(edges.len());
    for e in &edges {
        let entry = index.get(e.dep);
        let host = match entry.and_then(|d| d.spawned_by) {
            Some(k) => EdgeHost {
                host: edges[k].consumer,
                min_incarnations: 1,
                dep_edge: Some(k),
            },
            None => final_host(e, entry.map_or(&[], |d| &d.timed))?,
        };
        // A non-spawn event applies on the machine that declared it; its
        // target must live there.
        if !e.ev.is_spawn() {
            let target = e.ev.tag();
            let on_consumer = index.get(target).is_some_and(|t| {
                t.timed
                    .iter()
                    .any(|(m, _, ev)| *m == e.consumer && ev.is_spawn())
                    || t.spawned_by
                        .is_some_and(|k| edges[k].consumer == e.consumer)
            });
            if !on_consumer {
                return Err(scope(
                    e.consumer,
                    SessionError::InvalidScenario(format!("event against unknown tag '{target}'")),
                ));
            }
        }
        hosts.push(host);
    }

    // Timed events must not target dependency-spawned tags. Each machine
    // reports its first such event in apply order.
    let dependent = |tag: &str| index.get(tag).is_some_and(|t| t.spawned_by.is_some());
    for schedule in schedules {
        let first = schedule
            .iter()
            .filter_map(|(trigger, ev)| match trigger {
                Trigger::At(at) if dependent(ev.tag()) => Some((*at, ev)),
                _ => None,
            })
            .min_by_key(|(at, _)| *at);
        if let Some((at, ev)) = first {
            return Err(SessionError::InvalidDag(
                DagError::TimedEventOnDependentTag {
                    tag: ev.tag().to_string(),
                    at,
                },
            ));
        }
    }

    // A dependency whose final incarnation is checkpoint-killed never
    // completes.
    for (e, h) in edges.iter().zip(&hosts) {
        let on_host = index
            .get(e.dep)
            .into_iter()
            .flat_map(|d| &d.timed)
            .filter(|(m, _, _)| *m == h.host)
            .map(|(_, _, ev)| *ev);
        if dep_ends_checkpoint_killed(on_host) {
            return Err(SessionError::InvalidDag(DagError::DependencyOnKilled {
                dependency: e.dep.to_string(),
            }));
        }
    }

    // Kahn topological sort over the spawn-after edges.
    let spawn_edges: Vec<(&str, &str)> = edges
        .iter()
        .filter(|e| e.ev.is_spawn())
        .map(|e| (e.dep, e.ev.tag()))
        .collect();
    if let Some(tags) = spawn_edge_cycle(&spawn_edges) {
        return Err(SessionError::InvalidDag(DagError::Cycle { tags }));
    }
    Ok(hosts)
}

/// Resolve `e`'s dependency to the machine hosting its final timed
/// incarnation — the machine whose last spawn of the tag comes latest —
/// from the tag's [`TagEntry::timed`] events.
fn final_host(
    e: &Edge<'_>,
    timed: &[(usize, SimTime, &WorkloadEvent)],
) -> Result<EdgeHost, SessionError> {
    let mut best: Option<(SimTime, EdgeHost)> = None;
    let mut tie = false;
    for on_machine in timed.chunk_by(|a, b| a.0 == b.0) {
        let mut spawns = on_machine.iter().filter(|(_, _, ev)| ev.is_spawn());
        let Some(&(host, first, _)) = spawns.next() else {
            continue;
        };
        let (count, last) = spawns.fold((1, first), |(n, _), (_, at, _)| (n + 1, *at));
        match best {
            Some((at, _)) if at == last => tie = true,
            Some((at, _)) if at > last => {}
            _ => {
                let host = EdgeHost {
                    host,
                    min_incarnations: count,
                    dep_edge: None,
                };
                best = Some((last, host));
                tie = false;
            }
        }
    }
    match best {
        None => Err(SessionError::InvalidDag(DagError::UnknownDependency {
            event_tag: e.ev.tag().to_string(),
            dependency: e.dep.to_string(),
        })),
        Some(_) if tie => Err(SessionError::InvalidScenario(format!(
            "dependency '{}' is ambiguous: two machines spawn its final incarnation at \
             the same instant",
            e.dep
        ))),
        Some((_, host)) => Ok(host),
    }
}

/// Does a machine's timed history of a tag (its spawn- and kill-like
/// events, in apply order) end with a checkpoint-kill? Then the tag is
/// migrated away for good and its exit never lands there.
fn dep_ends_checkpoint_killed<'a>(history: impl Iterator<Item = &'a WorkloadEvent>) -> bool {
    matches!(history.last(), Some(WorkloadEvent::CheckpointKill { .. }))
}

/// Kahn topological sort over `dep → spawned-tag` edges; `Some(tags)` (the
/// sorted set of tags stuck on a cycle) when the edges loop.
pub(crate) fn spawn_edge_cycle(edges: &[(&str, &str)]) -> Option<Vec<String>> {
    // Nodes = every tag appearing as a dependency-spawned target; sources
    // outside that set (timed spawns) have no in-edges of their own.
    let targets: BTreeSet<&str> = edges.iter().map(|(_, to)| *to).collect();
    let mut indegree: BTreeMap<&str, usize> = targets.iter().map(|t| (*t, 0)).collect();
    let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges {
        if targets.contains(from) {
            out.entry(from).or_default().push(to);
            *indegree.entry(to).or_default() += 1;
        }
    }
    let mut queue: VecDeque<&str> = indegree
        .iter()
        .filter(|(_, deg)| **deg == 0)
        .map(|(t, _)| *t)
        .collect();
    let mut resolved = 0usize;
    while let Some(t) = queue.pop_front() {
        resolved += 1;
        for next in out.get(t).into_iter().flatten() {
            // Every edge target is registered above.
            if let Some(deg) = indegree.get_mut(next) {
                *deg -= 1;
                if *deg == 0 {
                    queue.push_back(next);
                }
            }
        }
    }
    if resolved == targets.len() {
        return None;
    }
    let stuck: Vec<String> = indegree
        .iter()
        .filter(|(_, deg)| **deg > 0)
        .map(|(t, _)| t.to_string())
        .collect();
    Some(stuck)
}
