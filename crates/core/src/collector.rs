//! The counter collector: attaches to tasks *at any time*, reads deltas per
//! refresh, and copes with tasks appearing, being forbidden, and vanishing.
//!
//! This is the heart of the tool's "no restart, no source, no privilege"
//! property (§2.2): discovery happens by scanning `/proc`; counters are
//! opened with `perf_event_open` per (task, event); tasks of other users
//! simply fail with `EACCES` and are skipped (unless the observer is root);
//! exited tasks are detected by their pid disappearing, their fds closed.
//!
//! Its state is kept in pid-sorted vectors, merged against the ascending
//! `/proc` scan each refresh is handed, so a steady-state refresh hashes
//! nothing and allocates nothing.

use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::perf::{PerfEventAttr, PerfFd, PerfValue};
use tiptop_kernel::task::{Pid, Uid};
use tiptop_kernel::Errno;
use tiptop_machine::pmu::{EventCounts, HwEvent};

use crate::events::selector_for;

/// Per-task counter set.
#[derive(Debug)]
struct TaskCounters {
    pid: Pid,
    fds: Vec<(HwEvent, PerfFd)>,
    /// Last *scaled* cumulative value per event.
    last: EventCounts,
    /// Whether the task has produced at least one full interval.
    primed: bool,
}

/// Counter deltas for one task over the last refresh interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskDelta {
    pub counts: EventCounts,
    /// False for a task first seen this refresh (its delta covers less than
    /// a full interval; the app still shows it, like tiptop does).
    pub full_interval: bool,
}

/// Collects counter deltas for every observable task.
///
/// Every per-task list is a vector ascending by pid: the instrumented
/// tasks, the forbidden ones and the last refresh's deltas. A refresh
/// merges them against the caller's ascending `/proc` scan instead of
/// hashing each pid, and reuses every buffer.
#[derive(Debug)]
pub struct Collector {
    observer: Uid,
    events: Vec<HwEvent>,
    tasks: Vec<TaskCounters>,
    /// Tasks we may not observe (EACCES) — remembered to avoid re-trying
    /// every refresh.
    forbidden: Vec<Pid>,
    /// Last refresh's deltas, ascending by pid.
    deltas: Vec<(Pid, TaskDelta)>,
    /// Per-refresh scratch (fd list, batched values) — reused.
    scratch_fds: Vec<PerfFd>,
    scratch_vals: Vec<Result<PerfValue, Errno>>,
}

impl Collector {
    /// `events` is the union the current screen needs.
    pub fn new(observer: Uid, events: Vec<HwEvent>) -> Self {
        Collector {
            observer,
            events,
            tasks: Vec::new(),
            forbidden: Vec::new(),
            deltas: Vec::new(),
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
    /// observable task, ascending by pid — including the *final*
    /// partial-interval delta of tasks that exited since the previous
    /// refresh (their fds remain valid after exit and hold the final
    /// counts, as on Linux).
    ///
    /// All counter reads go through [`Kernel::perf_read_batch_into`]: the
    /// refresh snapshots every fd this observer holds in one batched call
    /// into a reused buffer, so a steady-state refresh allocates nothing
    /// here.
    ///
    /// `live` is the caller's `/proc` scan, [`Kernel::pids`]' ascending
    /// list: the collector merges its own pid-sorted state against it, and
    /// a monitor scans `/proc` once per refresh.
    pub fn refresh(&mut self, k: &mut Kernel, live: &[Pid]) -> &[(Pid, TaskDelta)] {
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "pids ascend");
        self.deltas.clear();
        self.release_vanished(k, live);
        let mut at = 0;
        self.forbidden.retain(|&p| in_scan(live, &mut at, p));
        self.attach_newcomers(k, live);
        let vanished = self.deltas.len();
        self.read_attached(k);
        if vanished > 0 {
            // The vanished tasks' final deltas came first.
            self.deltas.sort_unstable_by_key(|(p, _)| *p);
        }
        &self.deltas
    }

    /// The deltas of the most recent [`Collector::refresh`], ascending by
    /// pid, by shared reference — lets a caller that owns both the
    /// collector and other state keep reading them after further
    /// immutable borrows.
    pub fn deltas(&self) -> &[(Pid, TaskDelta)] {
        &self.deltas
    }

    /// Harvest the final counts of tasks gone from `live` (one batched
    /// read over all their fds) into the deltas, then release their fds.
    fn release_vanished(&mut self, k: &mut Kernel, live: &[Pid]) {
        self.scratch_fds.clear();
        let mut at = 0;
        for tc in &self.tasks {
            if !in_scan(live, &mut at, tc.pid) {
                self.scratch_fds.extend(tc.fds.iter().map(|&(_, fd)| fd));
            }
        }
        if self.scratch_fds.is_empty() {
            return;
        }
        k.perf_read_batch_into(&self.scratch_fds, &mut self.scratch_vals);
        let mut vals = self.scratch_vals.iter();
        let deltas = &mut self.deltas;
        let mut at = 0;
        self.tasks.retain(|tc| {
            if in_scan(live, &mut at, tc.pid) {
                return true;
            }
            if let Some(finals) = read_counts(&tc.fds, &mut vals) {
                deltas.push((
                    tc.pid,
                    TaskDelta {
                        counts: finals.delta_since(&tc.last),
                        full_interval: false,
                    },
                ));
            }
            for &(_, fd) in &tc.fds {
                let _ = k.perf_close(fd);
            }
            false
        });
    }

    /// Attach to the tasks of `live` neither instrumented nor forbidden,
    /// in pid order, keeping both lists sorted.
    fn attach_newcomers(&mut self, k: &mut Kernel, live: &[Pid]) {
        let (known, barred) = (self.tasks.len(), self.forbidden.len());
        let (mut t, mut f) = (0, 0);
        for &pid in live {
            if in_sorted(&self.tasks[..known], |tc| tc.pid, &mut t, pid)
                || in_scan(&self.forbidden[..barred], &mut f, pid)
            {
                continue;
            }
            match attach(k, pid, &self.events, self.observer) {
                Ok(tc) => self.tasks.push(tc),
                Err(AttachOutcome::Forbidden) => self.forbidden.push(pid),
                Err(AttachOutcome::Vanished) => {}
            }
        }
        // Newcomers usually carry the highest pids, and then both lists
        // are already sorted.
        if self.tasks.len() > known && !self.tasks.is_sorted_by_key(|tc| tc.pid) {
            self.tasks.sort_unstable_by_key(|tc| tc.pid);
        }
        if self.forbidden.len() > barred && !self.forbidden.is_sorted() {
            self.forbidden.sort_unstable();
        }
    }

    /// Read the deltas of the attached tasks: snapshot every fd in one
    /// batched pass, then distribute the values per task. A task whose
    /// read fails (one of its fds was closed behind the collector's back)
    /// has no delta: its other fds are closed and it is dropped, so the
    /// next refresh attaches it afresh if it is still live.
    fn read_attached(&mut self, k: &mut Kernel) {
        self.scratch_fds.clear();
        for tc in &self.tasks {
            self.scratch_fds.extend(tc.fds.iter().map(|&(_, fd)| fd));
        }
        k.perf_read_batch_into(&self.scratch_fds, &mut self.scratch_vals);
        let mut vals = self.scratch_vals.iter();
        let deltas = &mut self.deltas;
        self.tasks.retain_mut(|tc| {
            let Some(now) = read_counts(&tc.fds, &mut vals) else {
                for &(_, fd) in &tc.fds {
                    let _ = k.perf_close(fd);
                }
                return false;
            };
            let delta = now.delta_since(&tc.last);
            tc.last = now;
            let full = tc.primed;
            tc.primed = true;
            deltas.push((
                tc.pid,
                TaskDelta {
                    counts: delta,
                    full_interval: full,
                },
            ));
            true
        });
    }

    /// Close everything (end of session).
    pub fn detach_all(&mut self, k: &mut Kernel) {
        for tc in self.tasks.drain(..) {
            for (_, fd) in tc.fds {
                let _ = k.perf_close(fd);
            }
        }
    }
}

/// Whether `pid` is in the ascending `scan`, for pids asked in ascending
/// order: `at` is the merge cursor, moved past the smaller pids.
fn in_scan(scan: &[Pid], at: &mut usize, pid: Pid) -> bool {
    in_sorted(scan, |&p| p, at, pid)
}

/// [`in_scan`] over any list ascending by `pid_of`.
fn in_sorted<T>(sorted: &[T], pid_of: impl Fn(&T) -> Pid, at: &mut usize, pid: Pid) -> bool {
    while sorted.get(*at).is_some_and(|x| pid_of(x) < pid) {
        *at += 1;
    }
    sorted.get(*at).is_some_and(|x| pid_of(x) == pid)
}

/// A task's scaled counts from the next `fds.len()` batched reads; `None`
/// if any read failed.
fn read_counts<'v>(
    fds: &[(HwEvent, PerfFd)],
    vals: &mut impl Iterator<Item = &'v Result<PerfValue, Errno>>,
) -> Option<EventCounts> {
    let mut counts = EventCounts::ZERO;
    let mut ok = true;
    for &(ev, _) in fds {
        match vals.next().expect("one value per fd") {
            Ok(v) => counts.set(ev, v.scaled()),
            Err(_) => ok = false,
        }
    }
    ok.then_some(counts)
}

/// Open one counter per event on `pid`, rolling back on failure.
fn attach(
    k: &mut Kernel,
    pid: Pid,
    events: &[HwEvent],
    observer: Uid,
) -> Result<TaskCounters, AttachOutcome> {
    let mut fds = Vec::with_capacity(events.len());
    for &ev in events {
        let attr = PerfEventAttr::counting(selector_for(ev));
        match k.perf_event_open(&attr, pid, -1, observer) {
            Ok(fd) => fds.push((ev, fd)),
            Err(e) => {
                // Roll back partial opens.
                for (_, fd) in fds {
                    let _ = k.perf_close(fd);
                }
                return Err(match e {
                    Errno::EACCES => AttachOutcome::Forbidden,
                    _ => AttachOutcome::Vanished,
                });
            }
        }
    }
    Ok(TaskCounters {
        pid,
        fds,
        last: EventCounts::ZERO,
        primed: false,
    })
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
    fn refresh<'c>(c: &'c mut Collector, k: &mut Kernel) -> &'c [(Pid, TaskDelta)] {
        let live = k.pids();
        c.refresh(k, &live)
    }

    /// A task's delta in a refresh's pid-ordered list.
    fn delta(deltas: &[(Pid, TaskDelta)], pid: Pid) -> Option<&TaskDelta> {
        deltas.iter().find(|(p, _)| *p == pid).map(|(_, d)| d)
    }

    #[test]
    fn collects_deltas_for_own_tasks() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new("spin", Uid(1), spin()));
        let mut c = Collector::new(Uid(1), base_events());

        let first = refresh(&mut c, &mut k);
        assert!(
            !delta(first, pid).unwrap().full_interval,
            "first sight is partial"
        );
        k.advance(SimDuration::from_secs(1));
        let second = refresh(&mut c, &mut k);
        let d = delta(second, pid).unwrap();
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
        assert!(delta(deltas, mine).is_some());
        assert!(delta(deltas, theirs).is_none());
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
        let last = delta(deltas, pid).unwrap();
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
    fn a_live_task_with_a_closed_fd_is_released_and_reattached() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new("spin", Uid(1), spin()));
        let mut c = Collector::new(Uid(1), base_events());
        refresh(&mut c, &mut k);
        assert_eq!(k.open_fds(Uid(1)), 3);
        k.advance(SimDuration::from_millis(100));
        let (_, fd) = c.tasks[0].fds[1];
        k.perf_close(fd).unwrap();
        assert_eq!(k.open_fds(Uid(1)), 2);
        // The failed read has no delta and releases the task's other fds.
        assert!(delta(refresh(&mut c, &mut k), pid).is_none());
        assert_eq!(k.open_fds(Uid(1)), 0, "the other fds are released");
        assert_eq!(c.attached(), 0);
        // The next refresh attaches it afresh: a partial first delta, then
        // full intervals again.
        k.advance(SimDuration::from_millis(100));
        let first = *delta(refresh(&mut c, &mut k), pid).expect("re-attached");
        assert!(!first.full_interval, "re-attached, not a full interval");
        assert_eq!(k.open_fds(Uid(1)), 3);
        k.advance(SimDuration::from_secs(1));
        let d = *delta(refresh(&mut c, &mut k), pid).expect("deltas resume");
        assert!(d.full_interval);
        let cy = d.counts.get(HwEvent::Cycles) as f64;
        assert!(
            (cy / 3.07e9 - 1.0).abs() < 0.02,
            "one second of cycles, got {cy}"
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
        let cy = delta(d, pid).unwrap().counts.get(HwEvent::Cycles) as f64;
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

    /// The `HashMap` collector the pid-sorted vectors replaced, kept as
    /// the oracle's reference: same kernel calls, same deltas.
    mod reference {
        use std::collections::{HashMap, HashSet};

        use super::*;

        struct TaskCounters {
            fds: Vec<(HwEvent, PerfFd)>,
            last: EventCounts,
            primed: bool,
        }

        pub struct Collector {
            observer: Uid,
            events: Vec<HwEvent>,
            tasks: HashMap<Pid, TaskCounters>,
            forbidden: HashSet<Pid>,
            deltas: HashMap<Pid, TaskDelta>,
        }

        impl Collector {
            pub fn new(observer: Uid, events: Vec<HwEvent>) -> Self {
                Collector {
                    observer,
                    events,
                    tasks: HashMap::new(),
                    forbidden: HashSet::new(),
                    deltas: HashMap::new(),
                }
            }

            pub fn attached(&self) -> usize {
                self.tasks.len()
            }

            pub fn refresh(&mut self, k: &mut Kernel, live: &[Pid]) -> &HashMap<Pid, TaskDelta> {
                let is_live = |p: &Pid| live.binary_search(p).is_ok();
                self.deltas.clear();
                let gone_pids: Vec<Pid> =
                    self.tasks.keys().copied().filter(|p| !is_live(p)).collect();
                let gone: Vec<(Pid, TaskCounters)> = gone_pids
                    .into_iter()
                    .filter_map(|p| self.tasks.remove(&p).map(|tc| (p, tc)))
                    .collect();
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
                for &pid in live {
                    if self.tasks.contains_key(&pid) || self.forbidden.contains(&pid) {
                        continue;
                    }
                    match attach(k, pid, &self.events, self.observer) {
                        Ok(tc) => {
                            let tc = TaskCounters {
                                fds: tc.fds,
                                last: tc.last,
                                primed: tc.primed,
                            };
                            self.tasks.insert(pid, tc);
                        }
                        Err(AttachOutcome::Forbidden) => {
                            self.forbidden.insert(pid);
                        }
                        Err(AttachOutcome::Vanished) => {}
                    }
                }
                let order: Vec<Pid> = self.tasks.keys().copied().collect();
                let fds: Vec<PerfFd> = order
                    .iter()
                    .flat_map(|p| self.tasks[p].fds.iter().map(|&(_, fd)| fd))
                    .collect();
                let vals = k.perf_read_batch(&fds);
                let mut cursor = 0usize;
                for pid in &order {
                    let tc = self.tasks.get_mut(pid).expect("just listed");
                    let mut now = EventCounts::ZERO;
                    let mut ok = true;
                    for &(ev, _) in &tc.fds {
                        match vals[cursor] {
                            Ok(v) => now.set(ev, v.scaled()),
                            Err(_) => ok = false,
                        }
                        cursor += 1;
                    }
                    if !ok {
                        let tc = self.tasks.remove(pid).expect("just listed");
                        for (_, fd) in tc.fds {
                            let _ = k.perf_close(fd);
                        }
                        continue;
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

            /// Every fd this collector holds, ascending.
            pub fn fds(&self) -> Vec<PerfFd> {
                let mut fds: Vec<PerfFd> = self
                    .tasks
                    .values()
                    .flat_map(|tc| tc.fds.iter().map(|&(_, fd)| fd))
                    .collect();
                fds.sort();
                fds
            }
        }
    }

    /// SplitMix64: the property test's seeded draws.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> Option<T> {
            (!xs.is_empty()).then(|| xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// Every fd the collector holds, ascending.
    fn held_fds(c: &Collector) -> Vec<PerfFd> {
        let mut fds: Vec<PerfFd> = c
            .tasks
            .iter()
            .flat_map(|tc| tc.fds.iter().map(|&(_, fd)| fd))
            .collect();
        fds.sort();
        fds
    }

    /// Seeded random runs of spawns (some finite, some of a foreign uid),
    /// kills, counter enable/disable/close behind the collector's back and
    /// screens with more events than the PMU's two programmable counters,
    /// on twin kernels: after every refresh the pid-sorted collector and
    /// the `HashMap` reference agree on the deltas, `attached()`, the fds
    /// held and every counter's value and times.
    #[test]
    fn pid_sorted_collector_matches_the_hashmap_reference() {
        use tiptop_machine::pmu::{PmuCapabilities, ALL_EVENTS};
        let mut cfg = MachineConfig::nehalem_w3550().noiseless();
        cfg.uarch.pmu = PmuCapabilities {
            fixed_counters: 3,
            programmable_counters: 2,
        };
        let (mut multiplexed, mut forbidden, mut vanished) = (false, false, false);
        for seed in 0..16u64 {
            let mut rng = Rng(seed);
            let kernel = || Kernel::new(KernelConfig::new(cfg.clone()).seed(seed));
            let (mut k, mut r) = (kernel(), kernel());
            let observer = if seed % 4 == 0 { Uid::ROOT } else { Uid(1) };
            // Two fixed events plus three to six programmable ones.
            let mut events = vec![HwEvent::Cycles, HwEvent::Instructions];
            for &e in &ALL_EVENTS {
                if !e.is_fixed() && events.len() < 5 + rng.below(4) as usize {
                    events.push(e);
                }
            }
            let mut c = Collector::new(observer, events.clone());
            let mut rc = reference::Collector::new(observer, events);
            let mut pids = Vec::new();
            for step in 0..60u64 {
                let at = format!("seed {seed} step {step}");
                match rng.below(8) {
                    0 | 1 => {
                        let uid = Uid(1 + rng.below(3).min(1) as u32);
                        let profile = ExecProfile::builder("p")
                            .base_cpi(0.7 + 0.1 * rng.below(5) as f64)
                            .branches(0.2, 0.02)
                            .memory(MemoryBehavior::uniform(32 * 1024))
                            .build();
                        let prog = match rng.below(3) {
                            0 => Program::single(profile, 10_000_000 * (1 + rng.below(6))),
                            _ => Program::endless(profile),
                        };
                        let spec = SpawnSpec::new("t", uid, prog).seed(step);
                        let pid = k.spawn(spec.clone());
                        assert_eq!(pid, r.spawn(spec), "{at}");
                        pids.push(pid);
                    }
                    2 => {
                        let Some(pid) = rng.pick(&pids) else { continue };
                        assert_eq!(k.kill(pid), r.kill(pid), "{at}");
                    }
                    3 => {
                        let Some(fd) = rng.pick(&held_fds(&c)) else {
                            continue;
                        };
                        match rng.below(4) {
                            0 => assert_eq!(k.perf_close(fd), r.perf_close(fd), "{at}"),
                            1 => assert_eq!(k.perf_enable(fd), r.perf_enable(fd), "{at}"),
                            _ => assert_eq!(k.perf_disable(fd), r.perf_disable(fd), "{at}"),
                        }
                    }
                    4 | 5 => {
                        let dur = SimDuration::from_millis(20 * (1 + rng.below(5)));
                        k.advance(dur);
                        r.advance(dur);
                    }
                    _ => {
                        let live = k.pids();
                        assert_eq!(live, r.pids(), "{at}");
                        let got = c.refresh(&mut k, &live).to_vec();
                        let mut want: Vec<(Pid, TaskDelta)> = rc
                            .refresh(&mut r, &live)
                            .iter()
                            .map(|(p, d)| (*p, *d))
                            .collect();
                        want.sort_by_key(|(p, _)| *p);
                        assert_eq!(got, want, "deltas, {at}");
                        assert_eq!(c.deltas(), &got[..], "{at}");
                        assert_eq!(c.attached(), rc.attached(), "attached, {at}");
                        assert_eq!(k.open_fds(observer), r.open_fds(observer), "{at}");
                        let fds = held_fds(&c);
                        assert_eq!(fds, rc.fds(), "fds held, {at}");
                        for fd in fds {
                            let v = k.perf_read(fd);
                            assert_eq!(v, r.perf_read(fd), "{fd:?}, {at}");
                            multiplexed |= v.is_ok_and(|v| v.time_running < v.time_enabled);
                        }
                        forbidden |= !c.forbidden.is_empty();
                        vanished |= got.iter().any(|(p, _)| live.binary_search(p).is_err());
                    }
                }
            }
        }
        assert!(
            multiplexed && forbidden && vanished,
            "the draws cover multiplexing, EACCES and vanished tasks"
        );
    }
}
