//! The counter collector: attaches to tasks *at any time*, reads deltas per
//! refresh, and copes with tasks appearing, being forbidden, and vanishing.
//!
//! This is the heart of the tool's "no restart, no source, no privilege"
//! property (§2.2): discovery happens by scanning `/proc`; counters are
//! opened with `perf_event_open` per (task, event); tasks of other users
//! simply fail with `EACCES` and are skipped (unless the observer is root);
//! exited tasks are detected by their pid disappearing, their fds closed.

use std::collections::HashMap;

use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::perf::{PerfEventAttr, PerfFd, PerfValue};
use tiptop_kernel::task::{Pid, Uid};
use tiptop_kernel::Errno;
use tiptop_machine::pmu::{EventCounts, HwEvent};

use crate::events::selector_for;

/// Per-task counter set.
#[derive(Debug)]
struct TaskCounters {
    fds: Vec<(HwEvent, PerfFd)>,
    /// Last *scaled* cumulative value per event.
    last: EventCounts,
    /// Whether the task has produced at least one full interval.
    primed: bool,
}

/// Counter deltas for one task over the last refresh interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskDelta {
    pub counts: EventCounts,
    /// False for a task first seen this refresh (its delta covers less than
    /// a full interval; the app still shows it, like tiptop does).
    pub full_interval: bool,
}

/// Collects counter deltas for every observable task.
#[derive(Debug)]
pub struct Collector {
    observer: Uid,
    events: Vec<HwEvent>,
    tasks: HashMap<Pid, TaskCounters>,
    /// Tasks we may not observe (EACCES) — remembered to avoid re-trying
    /// every refresh.
    forbidden: std::collections::HashSet<Pid>,
    /// Last refresh's deltas, reused across refreshes so a cluster-scale
    /// run makes no per-refresh map allocation.
    deltas: HashMap<Pid, TaskDelta>,
    /// Per-refresh scratch (read order, fd list, batched values) — reused.
    scratch_order: Vec<Pid>,
    scratch_fds: Vec<PerfFd>,
    scratch_vals: Vec<Result<PerfValue, Errno>>,
}

impl Collector {
    /// `events` is the union the current screen needs.
    pub fn new(observer: Uid, events: Vec<HwEvent>) -> Self {
        Collector {
            observer,
            events,
            tasks: HashMap::new(),
            forbidden: Default::default(),
            deltas: HashMap::new(),
            scratch_order: Vec::new(),
            scratch_fds: Vec::new(),
            scratch_vals: Vec::new(),
        }
    }

    pub fn observer(&self) -> Uid {
        self.observer
    }

    pub fn events(&self) -> &[HwEvent] {
        &self.events
    }

    /// Number of tasks currently instrumented.
    pub fn attached(&self) -> usize {
        self.tasks.len()
    }

    /// One refresh: discover, attach, read, detach. Returns deltas per
    /// observable task — including the *final* partial-interval delta of
    /// tasks that exited since the previous refresh (their fds remain valid
    /// after exit and hold the final counts, as on Linux).
    ///
    /// All counter reads go through [`Kernel::perf_read_batch_into`]: the
    /// refresh snapshots every fd this observer holds in one batched call
    /// into a reused buffer — together with the recycled delta map and
    /// order/fd scratch, a steady-state refresh allocates nothing here.
    ///
    /// `live` is the caller's `/proc` scan, [`Kernel::pids`]' ascending
    /// list, so membership tests are binary searches and a monitor scans
    /// `/proc` once per refresh.
    pub fn refresh(&mut self, k: &mut Kernel, live: &[Pid]) -> &HashMap<Pid, TaskDelta> {
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "pids ascend");
        let is_live = |p: &Pid| live.binary_search(p).is_ok();
        self.deltas.clear();

        // Harvest final counts from vanished tasks (one batched read over
        // all their fds), then release the fds.
        let gone: Vec<(Pid, TaskCounters)> = {
            let gone_pids: Vec<Pid> = self.tasks.keys().copied().filter(|p| !is_live(p)).collect();
            gone_pids
                .into_iter()
                .filter_map(|p| self.tasks.remove(&p).map(|tc| (p, tc)))
                .collect()
        };
        if !gone.is_empty() {
            let fds: Vec<_> = gone
                .iter()
                .flat_map(|(_, tc)| tc.fds.iter().map(|&(_, fd)| fd))
                .collect();
            let vals = k.perf_read_batch(&fds);
            let mut cursor = 0usize;
            for (pid, tc) in gone {
                let mut finals = EventCounts::ZERO;
                let mut ok = true;
                for &(ev, _) in &tc.fds {
                    match vals[cursor] {
                        Ok(v) => finals.set(ev, v.scaled()),
                        Err(_) => ok = false,
                    }
                    cursor += 1;
                }
                if ok {
                    self.deltas.insert(
                        pid,
                        TaskDelta {
                            counts: finals.delta_since(&tc.last),
                            full_interval: false,
                        },
                    );
                }
                for (_, fd) in tc.fds {
                    let _ = k.perf_close(fd);
                }
            }
        }
        self.forbidden.retain(|p| is_live(p));

        // Attach to newcomers.
        for &pid in live {
            if self.tasks.contains_key(&pid) || self.forbidden.contains(&pid) {
                continue;
            }
            match self.attach(k, pid) {
                Ok(tc) => {
                    self.tasks.insert(pid, tc);
                }
                Err(AttachOutcome::Forbidden) => {
                    self.forbidden.insert(pid);
                }
                Err(AttachOutcome::Vanished) => {}
            }
        }

        // Read deltas of live tasks: snapshot every fd in one batched pass,
        // then distribute the values per task. Order, fd list and value
        // buffer are collector-owned scratch, reused every refresh.
        self.scratch_order.clear();
        self.scratch_order.extend(self.tasks.keys().copied());
        self.scratch_fds.clear();
        for p in &self.scratch_order {
            self.scratch_fds
                .extend(self.tasks[p].fds.iter().map(|&(_, fd)| fd));
        }
        k.perf_read_batch_into(&self.scratch_fds, &mut self.scratch_vals);
        let mut cursor = 0usize;
        for pid in &self.scratch_order {
            let tc = self.tasks.get_mut(pid).expect("just listed");
            let mut now = EventCounts::ZERO;
            let mut ok = true;
            for &(ev, _) in &tc.fds {
                match self.scratch_vals[cursor] {
                    Ok(v) => now.set(ev, v.scaled()),
                    Err(_) => ok = false,
                }
                cursor += 1;
            }
            if !ok {
                continue; // raced with exit; next refresh cleans up
            }
            let delta = now.delta_since(&tc.last);
            tc.last = now;
            let full = tc.primed;
            tc.primed = true;
            self.deltas.insert(
                *pid,
                TaskDelta {
                    counts: delta,
                    full_interval: full,
                },
            );
        }
        &self.deltas
    }

    /// The deltas of the most recent [`Collector::refresh`], by shared
    /// reference — lets a caller that owns both the collector and other
    /// state keep reading them after further immutable borrows.
    pub fn deltas(&self) -> &HashMap<Pid, TaskDelta> {
        &self.deltas
    }

    fn attach(&self, k: &mut Kernel, pid: Pid) -> Result<TaskCounters, AttachOutcome> {
        let mut fds = Vec::with_capacity(self.events.len());
        for &ev in &self.events {
            let attr = PerfEventAttr::counting(selector_for(ev));
            match k.perf_event_open(&attr, pid, -1, self.observer) {
                Ok(fd) => fds.push((ev, fd)),
                Err(e) => {
                    // Roll back partial opens.
                    for (_, fd) in fds {
                        let _ = k.perf_close(fd);
                    }
                    return Err(match e {
                        tiptop_kernel::Errno::EACCES => AttachOutcome::Forbidden,
                        _ => AttachOutcome::Vanished,
                    });
                }
            }
        }
        Ok(TaskCounters {
            fds,
            last: EventCounts::ZERO,
            primed: false,
        })
    }

    /// Close everything (end of session).
    pub fn detach_all(&mut self, k: &mut Kernel) {
        for (_, tc) in self.tasks.drain() {
            for (_, fd) in tc.fds {
                let _ = k.perf_close(fd);
            }
        }
    }
}

enum AttachOutcome {
    Forbidden,
    Vanished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptop_kernel::kernel::KernelConfig;
    use tiptop_kernel::program::Program;
    use tiptop_kernel::task::SpawnSpec;
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;
    use tiptop_machine::time::SimDuration;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(5))
    }

    fn spin() -> Program {
        Program::endless(
            ExecProfile::builder("spin")
                .base_cpi(0.8)
                .branches(0.18, 0.0)
                .memory(MemoryBehavior::uniform(16 * 1024))
                .build(),
        )
    }

    fn base_events() -> Vec<HwEvent> {
        vec![HwEvent::Cycles, HwEvent::Instructions, HwEvent::CacheMisses]
    }

    /// One refresh over a fresh `/proc` scan, as a monitor makes it.
    fn refresh<'c>(c: &'c mut Collector, k: &mut Kernel) -> &'c HashMap<Pid, TaskDelta> {
        let live = k.pids();
        c.refresh(k, &live)
    }

    #[test]
    fn collects_deltas_for_own_tasks() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new("spin", Uid(1), spin()));
        let mut c = Collector::new(Uid(1), base_events());

        let first = refresh(&mut c, &mut k);
        assert!(!first[&pid].full_interval, "first sight is partial");
        k.advance(SimDuration::from_secs(1));
        let second = refresh(&mut c, &mut k);
        let d = &second[&pid];
        assert!(d.full_interval);
        let cy = d.counts.get(HwEvent::Cycles) as f64;
        assert!(
            (cy / 3.07e9 - 1.0).abs() < 0.02,
            "one second of cycles, got {cy}"
        );
    }

    #[test]
    fn foreign_tasks_are_skipped_not_fatal() {
        let mut k = kernel();
        let mine = k.spawn(SpawnSpec::new("mine", Uid(1), spin()));
        let theirs = k.spawn(SpawnSpec::new("theirs", Uid(2), spin()));
        let mut c = Collector::new(Uid(1), base_events());
        k.advance(SimDuration::from_millis(100));
        let deltas = refresh(&mut c, &mut k);
        assert!(deltas.contains_key(&mine));
        assert!(!deltas.contains_key(&theirs));
        assert_eq!(c.attached(), 1);
    }

    #[test]
    fn root_observes_everyone() {
        let mut k = kernel();
        k.spawn(SpawnSpec::new("a", Uid(1), spin()));
        k.spawn(SpawnSpec::new("b", Uid(2), spin()));
        let mut c = Collector::new(Uid::ROOT, base_events());
        k.advance(SimDuration::from_millis(100));
        assert_eq!(refresh(&mut c, &mut k).len(), 2);
    }

    #[test]
    fn vanished_tasks_release_their_fds() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new("short", Uid(1), spin()));
        let mut c = Collector::new(Uid(1), base_events());
        refresh(&mut c, &mut k);
        let fds_before = k.open_fds(Uid(1));
        assert_eq!(fds_before, 3);
        k.advance(SimDuration::from_millis(100)); // let it run while counted
        k.kill(pid).unwrap();
        k.advance(SimDuration::from_millis(100));
        let deltas = refresh(&mut c, &mut k);
        // The final partial-interval counts are harvested before closing.
        let last = &deltas[&pid];
        assert!(!last.full_interval);
        assert!(
            last.counts.get(HwEvent::Cycles) > 0,
            "final counts harvested"
        );
        assert_eq!(k.open_fds(Uid(1)), 0, "fds closed after exit");
        assert_eq!(c.attached(), 0);
        assert!(
            refresh(&mut c, &mut k).is_empty(),
            "nothing left next refresh"
        );
    }

    #[test]
    fn attach_midway_counts_only_from_attach() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new("spin", Uid(1), spin()));
        k.advance(SimDuration::from_secs(2)); // unobserved
        let mut c = Collector::new(Uid(1), base_events());
        refresh(&mut c, &mut k);
        k.advance(SimDuration::from_secs(1));
        let d = refresh(&mut c, &mut k);
        let cy = d[&pid].counts.get(HwEvent::Cycles) as f64;
        assert!(
            (cy / 3.07e9 - 1.0).abs() < 0.02,
            "only the observed second is counted, got {cy}"
        );
    }

    #[test]
    fn detach_all_releases_everything() {
        let mut k = kernel();
        k.spawn(SpawnSpec::new("a", Uid(1), spin()));
        k.spawn(SpawnSpec::new("b", Uid(1), spin()));
        let mut c = Collector::new(Uid(1), base_events());
        refresh(&mut c, &mut k);
        assert_eq!(k.open_fds(Uid(1)), 6);
        c.detach_all(&mut k);
        assert_eq!(k.open_fds(Uid(1)), 0);
    }
}
