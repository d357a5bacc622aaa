//! Workload events, the triggers that fire them, and the cross-machine
//! checkpoint handoff board.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tiptop_kernel::kernel::Checkpoint;
use tiptop_kernel::sched::CpuSet;
use tiptop_kernel::task::SpawnSpec;
use tiptop_machine::time::{SimDuration, SimTime};

/// When a [`WorkloadEvent`] fires.
///
/// [`Trigger::At`] is the classic scripted schedule — the event applies at
/// an exact absolute instant. [`Trigger::AfterExit`] is a dependency edge:
/// the event applies `delay` after the tagged job's *final incarnation*
/// exits (naturally or by a plain kill — a checkpoint-kill migrates the job
/// away and does not count as an exit). Edges across events form a DAG,
/// validated by topological sort at build time.
#[derive(Clone, Debug, PartialEq)]
pub enum Trigger {
    /// Fire at a scripted absolute instant.
    At(SimTime),
    /// Fire `delay` after the tagged job exits.
    ///
    /// The dependency's exit instant is exact
    /// ([`ExitRecord::end_time`](tiptop_kernel::kernel::ExitRecord)); the
    /// event fires at `exit + delay`, clamped forward to the instant the
    /// exit became observable when the kernel only reaped it at a later
    /// epoch boundary (so the observed fire instant is always `>=
    /// exit + delay`, and exact whenever the delay spans at least one
    /// scheduler epoch).
    AfterExit { tag: String, delay: SimDuration },
}

/// An action on the workload, fired by its [`Trigger`].
#[derive(Debug)]
pub enum WorkloadEvent {
    /// Create the task; its pid becomes addressable by `tag`.
    Spawn { tag: String, spec: SpawnSpec },
    /// SIGKILL the tagged task.
    Kill { tag: String },
    /// Change the tagged task's nice level.
    Renice { tag: String, nice: i32 },
    /// Change the tagged task's CPU affinity (`taskset`-style pinning — the
    /// §3.4 interference experiments move tasks between SMT siblings and
    /// separate cores mid-run).
    Pin { tag: String, cpus: CpuSet },
    /// Checkpoint the tagged task's progress, then SIGKILL it — the source
    /// half of a resume-mode migration. The checkpoint is published on the
    /// session's [`HandoffBoard`] under `(tag, instant)`. A tag whose
    /// program already ran to completion has nothing to checkpoint; that
    /// surfaces as a typed
    /// [`SessionError::InvalidDecision`](super::SessionError::InvalidDecision).
    CheckpointKill { tag: String },
    /// Spawn a new incarnation of the tagged task from the checkpoint
    /// published under `(tag, instant)` — the destination half of a
    /// resume-mode migration. `spec` is the job's original spec, retained so
    /// the tag stays re-migratable from here.
    ResumeSpawn { tag: String, spec: SpawnSpec },
}

impl WorkloadEvent {
    /// The tag this event targets.
    pub(crate) fn tag(&self) -> &str {
        match self {
            WorkloadEvent::Spawn { tag, .. }
            | WorkloadEvent::Kill { tag }
            | WorkloadEvent::Renice { tag, .. }
            | WorkloadEvent::Pin { tag, .. }
            | WorkloadEvent::CheckpointKill { tag }
            | WorkloadEvent::ResumeSpawn { tag, .. } => tag,
        }
    }

    /// Does this event create a new incarnation of its tag?
    pub(crate) fn is_spawn(&self) -> bool {
        matches!(
            self,
            WorkloadEvent::Spawn { .. } | WorkloadEvent::ResumeSpawn { .. }
        )
    }

    /// Does this event end its tag's current incarnation?
    pub(crate) fn is_kill(&self) -> bool {
        matches!(
            self,
            WorkloadEvent::Kill { .. } | WorkloadEvent::CheckpointKill { .. }
        )
    }
}

/// A dependency-triggered event waiting for its dependency's exit: the
/// runtime form of a [`Trigger::AfterExit`] entry, held by the
/// [`Session`](super::Session) until the dependency's final incarnation
/// completes.
#[derive(Debug)]
pub(crate) struct DeferredEvent {
    /// The tag whose exit fires this event.
    pub(crate) dep: String,
    /// How many incarnations of `dep` the schedule creates on this machine
    /// — the exit of the *last* one is the completion that fires the edge
    /// (a migrated-and-returned job completes once, at its final
    /// incarnation's exit).
    pub(crate) min_incarnations: usize,
    pub(crate) delay: SimDuration,
    pub(crate) ev: WorkloadEvent,
}

/// Cross-machine checkpoint transport for resume-mode migrations: the
/// source machine's [`WorkloadEvent::CheckpointKill`] publishes the
/// checkpoint under `(tag, instant)`, the destination's
/// [`WorkloadEvent::ResumeSpawn`] takes it. Shared (via `Arc`) by every
/// session of a cluster; the cluster's round driver advances each source to
/// its handoff instant before any consumer crosses it, so a take never
/// races its publish (see `crate::cluster`).
#[derive(Debug, Default)]
pub struct HandoffBoard {
    published: Mutex<HashMap<(String, SimTime), Checkpoint>>,
}

impl HandoffBoard {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(HandoffBoard::default())
    }

    /// The board, recovering a poisoned lock: every holder makes one whole
    /// insert or remove, so a panic elsewhere never leaves it half-written.
    fn published(&self) -> MutexGuard<'_, HashMap<(String, SimTime), Checkpoint>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn publish(&self, tag: &str, at: SimTime, cp: Checkpoint) {
        self.published().insert((tag.to_string(), at), cp);
    }

    pub(crate) fn take(&self, tag: &str, at: SimTime) -> Option<Checkpoint> {
        self.published().remove(&(tag.to_string(), at))
    }
}
