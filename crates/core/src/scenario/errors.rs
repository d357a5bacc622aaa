//! Typed session and dependency-graph errors — the core crate's public
//! failure surface instead of leaked [`Errno`]s and panics.

use std::fmt;

use tiptop_kernel::errno::Errno;
use tiptop_kernel::task::Pid;
use tiptop_machine::time::{SimDuration, SimTime};

/// Typed failure of a session — the core crate's public surface instead of
/// leaked [`Errno`]s and panics.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The scenario is self-contradictory (duplicate tag, event against an
    /// unknown tag, event scheduled before its task's spawn, ...).
    InvalidScenario(String),
    /// The scenario's dependency graph is rejected at build time: a cycle
    /// among spawn-after edges, an edge keyed on an unknown tag, or a
    /// dependency whose exit can never land (see [`DagError`]).
    InvalidDag(DagError),
    /// A scheduled event's syscall failed (e.g. killing a task that had
    /// already exited on its own).
    Syscall {
        call: &'static str,
        pid: Pid,
        errno: Errno,
    },
    /// A bounded wait elapsed.
    Timeout {
        limit: SimDuration,
        waiting_for: String,
    },
    /// A cluster shard failed with a session error of its own; the error is
    /// labelled with the machine it happened on and the rest of the pool
    /// keeps running (see [`crate::cluster`]).
    Shard {
        machine: String,
        error: Box<SessionError>,
    },
    /// A cluster shard panicked. The worker pool survives — the panic is
    /// contained to the shard and surfaces here with its payload.
    ShardPanicked { machine: String, message: String },
    /// A *run-time* scheduled event or live scheduling decision is
    /// infeasible — the run-time half of the validation that
    /// [`Scenario::build`](super::Scenario::build) performs up front for
    /// scripted schedules: scheduling into the past, migrating a tag that
    /// just exited, spawning a tag the machine already carries, ... Raised
    /// by [`Session::schedule_at`](super::Session::schedule_at) and by
    /// reactive policies' decisions (see
    /// [`ClusterSession::run`](crate::cluster::ClusterSession::run)).
    InvalidDecision(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            SessionError::InvalidDag(err) => write!(f, "invalid dependency graph: {err}"),
            SessionError::Syscall { call, pid, errno } => {
                write!(f, "{call}(pid {}) failed: {errno}", pid.0)
            }
            SessionError::Timeout { limit, waiting_for } => {
                write!(
                    f,
                    "did not finish within {limit:?} (waiting for {waiting_for})"
                )
            }
            SessionError::Shard { machine, error } => {
                write!(f, "machine '{machine}': {error}")
            }
            SessionError::ShardPanicked { machine, message } => {
                write!(f, "machine '{machine}' panicked: {message}")
            }
            SessionError::InvalidDecision(msg) => {
                write!(f, "infeasible live decision: {msg}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a scenario's dependency graph was rejected. Raised at build time by
/// [`Scenario::build`](super::Scenario::build) (and cluster-wide by
/// `ClusterScenario::build`).
#[derive(Clone, Debug, PartialEq)]
pub enum DagError {
    /// The spawn-after edges loop: some set of jobs each wait on another
    /// member's exit, so none can ever start. Tags are sorted for stable
    /// messages.
    Cycle { tags: Vec<String> },
    /// An after-exit event is keyed on a tag no event ever spawns.
    UnknownDependency {
        event_tag: String,
        dependency: String,
    },
    /// The dependency's final incarnation is checkpoint-killed (migrated
    /// away) — its exit never lands on this schedule, so events keyed on it
    /// could never fire.
    DependencyOnKilled { dependency: String },
    /// A timed (absolute-instant) event targets a tag that is spawned by a
    /// dependency edge: the tag's timeline is unknown at build time, so the
    /// ordering cannot be validated. Use `*_after` events against such tags.
    TimedEventOnDependentTag { tag: String, at: SimTime },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Cycle { tags } => {
                write!(
                    f,
                    "dependency cycle among tags {tags:?} (spawn-after edges must form a DAG)"
                )
            }
            DagError::UnknownDependency {
                event_tag,
                dependency,
            } => {
                write!(
                    f,
                    "event against '{event_tag}' depends on unknown tag '{dependency}'"
                )
            }
            DagError::DependencyOnKilled { dependency } => {
                write!(
                    f,
                    "dependency '{dependency}' never completes: its final incarnation is \
                     checkpoint-killed (migrated away), so after-exit events keyed on it \
                     can never fire"
                )
            }
            DagError::TimedEventOnDependentTag { tag, at } => {
                write!(
                    f,
                    "timed event against '{tag}' at {at:?}: the tag is spawned by a \
                     dependency edge, so its timeline is unknown at build time (schedule \
                     events against it with *_after)"
                )
            }
        }
    }
}
