//! The run's worker pool and the step each worker takes.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

use tiptop_machine::time::SimTime;

use super::rounds::{observations, WorkUnit};
use super::ClusterFrame;
use crate::scenario::SessionError;
#[cfg(doc)]
use {super::ClusterSession, crate::scenario::MonitorSet};

/// One machine handed to the pool for one parallel phase, with the
/// instant to step it to.
pub(super) struct Task {
    pub(super) unit: WorkUnit,
    pub(super) to: SimTime,
}

/// What a parallel phase does with each machine.
#[derive(Clone)]
pub(super) enum Phase {
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
pub(super) struct Outcome {
    pub(super) index: usize,
    pub(super) frames: Vec<ClusterFrame>,
    pub(super) reached: SimTime,
    pub(super) result: Result<(), SessionError>,
}

/// One worker's share of a parallel phase.
pub(super) struct Share {
    tasks: Vec<Task>,
    phase: Phase,
}

/// The calling thread's end of one pool worker: shares go out, stepped
/// machines come back.
pub(super) struct Worker {
    pub(super) shares: mpsc::Sender<Share>,
    pub(super) stepped: mpsc::Receiver<Vec<(WorkUnit, Outcome)>>,
}

/// The run's worker pool: `threads − 1` workers spawned once per run by
/// [`ClusterSession::run_rounds`]. Each parallel phase moves its machines
/// to the workers by value and gets them back; the calling thread steps
/// the first share itself, so with one thread — or one machine to move —
/// nothing crosses a thread.
pub(super) struct Pool {
    pub(super) workers: Vec<Worker>,
}

impl Pool {
    /// Step every task, and append each machine with its [`Outcome`] to
    /// `out`, grouped by share. Task `k` goes to share `k mod shares`, so
    /// machines declared side by side land on different threads. With
    /// `spread` false the calling thread steps them all. A dead worker is
    /// reported as a [`SessionError::ShardPanicked`] of the first machine
    /// of its share; a share it never received is stepped here, one it
    /// held is lost, and every other machine still comes back.
    pub(super) fn run(
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
pub(super) fn serve(
    shares: mpsc::Receiver<Share>,
    stepped: mpsc::Sender<Vec<(WorkUnit, Outcome)>>,
) {
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
pub(super) fn step(task: Task, phase: &Phase) -> (WorkUnit, Outcome) {
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

/// Run `f`, converting an unwind into a typed [`SessionError::ShardPanicked`]
/// so one shard's panic never poisons the pool.
pub(super) fn guard<T>(
    machine: &str,
    f: impl FnOnce() -> Result<T, SessionError>,
) -> Result<T, SessionError> {
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
