//! # tiptop-kernel
//!
//! The simulated operating-system layer of the Tiptop reproduction. It sits
//! between the hardware model ([`tiptop_machine`]) and the monitoring tool
//! (`tiptop-core`), exposing exactly the interfaces the real tool consumes
//! on Linux:
//!
//! * **Tasks & scheduler** — threads/processes with `nice`, `taskset`-style
//!   affinity, and a CFS-like epoch scheduler that prefers idle physical
//!   cores before SMT siblings.
//! * **`/proc`** — pid enumeration and per-task `stat` (comm, uid, state,
//!   utime/stime, last CPU), from which tiptop computes `%CPU` exactly like
//!   `top` does.
//! * **`perf_event`** — `perf_event_open`/`read`/`enable`/`disable`/`close`
//!   with per-task counting, owner-only permission checks, counter
//!   virtualization across context switches, and time-multiplexing with
//!   `time_enabled`/`time_running` scaling when more events are requested
//!   than the PMU has counters.
//!
//! ```
//! use tiptop_kernel::prelude::*;
//! use tiptop_machine::prelude::*;
//!
//! let mut k = Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550()));
//! k.add_user(Uid(1000), "user1");
//!
//! let profile = ExecProfile::builder("spin").build();
//! let pid = k.spawn(SpawnSpec::new("spin", Uid(1000), Program::endless(profile)));
//!
//! // Attach a cycle counter the way tiptop does, then run for a second.
//! let fd = k
//!     .perf_event_open(
//!         &PerfEventAttr::generic(GenericEvent::CpuCycles),
//!         pid,
//!         -1,
//!         Uid(1000),
//!     )
//!     .unwrap();
//! k.advance(SimDuration::from_secs(1));
//! assert!(k.perf_read(fd).unwrap().value > 0);
//! ```

pub mod engine;
pub mod errno;
pub mod kernel;
pub mod perf;
pub mod procfs;
pub mod program;
pub mod sched;
pub mod symbols;
pub mod task;

pub use engine::{EpochEngine, PerfCharge};
pub use errno::Errno;
pub use kernel::{Checkpoint, ExitRecord, Kernel, KernelConfig};
pub use perf::{EventSel, GenericEvent, PerfEventAttr, PerfFd, PerfValue};
pub use procfs::ProcStat;
pub use program::{Continuation, NextWork, Phase, Program, ProgramCursor};
pub use sched::{
    plan_epoch, weight_for_nice, CfsLike, CpuSet, EpochPlan, Fifo, PlanScratch, RoundRobin,
    SchedCtx, SchedEntity, Scheduler, SchedulerSelect,
};
pub use symbols::{Label, SymId, SymbolTable};
pub use task::{Pid, SpawnSpec, Task, TaskState, Uid};

/// Convenient glob import.
pub mod prelude {
    pub use crate::errno::Errno;
    pub use crate::kernel::{Checkpoint, Kernel, KernelConfig};
    pub use crate::perf::{EventSel, GenericEvent, PerfEventAttr, PerfFd, PerfValue};
    pub use crate::procfs::ProcStat;
    pub use crate::program::{Phase, Program};
    pub use crate::sched::{CpuSet, Scheduler, SchedulerSelect};
    pub use crate::task::{Pid, SpawnSpec, TaskState, Uid};
    pub use tiptop_machine::time::{SimDuration, SimTime};
}

#[cfg(test)]
mod kernel_tests {
    use crate::perf::PerfEventAttr;
    use crate::prelude::*;
    use crate::program::Phase;
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;
    use tiptop_machine::pmu::HwEvent;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(42))
    }

    fn spin_profile() -> ExecProfile {
        ExecProfile::builder("spin")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build()
    }

    #[test]
    fn cpu_bound_task_accrues_full_utime() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        k.advance(SimDuration::from_secs(2));
        let st = k.stat(pid).unwrap();
        let frac = st.cpu_time().as_secs_f64() / 2.0;
        assert!(
            frac > 0.99,
            "CPU-bound task should be ~100% CPU, got {frac}"
        );
    }

    #[test]
    fn finite_program_exits_and_leaves_tombstone() {
        let mut k = kernel();
        // ~3.07e9 cycles/s at CPI≈0.8 → ~1e9 insns in ~0.26 s.
        let pid = k.spawn(SpawnSpec::new(
            "short",
            Uid(1),
            Program::single(spin_profile(), 1_000_000_000),
        ));
        k.advance(SimDuration::from_secs(2));
        assert!(!k.is_alive(pid));
        assert!(k.stat(pid).is_none(), "stat of exited task is None");
    }

    #[test]
    fn sleep_phases_reduce_cpu_share() {
        let mut k = kernel();
        // 50% duty cycle: compute ~10 ms worth of instructions, sleep 10 ms.
        // At 3.07 GHz and CPI 0.8, 10 ms ≈ 38.4 M instructions.
        let p = spin_profile();
        let prog = Program::looping(vec![
            Phase::compute(p, 38_375_000),
            Phase::sleep(SimDuration::from_millis(10)),
        ]);
        let pid = k.spawn(SpawnSpec::new("duty", Uid(1), prog));
        k.advance(SimDuration::from_secs(2));
        let st = k.stat(pid).unwrap();
        let frac = st.cpu_time().as_secs_f64() / 2.0;
        assert!(
            (0.35..0.65).contains(&frac),
            "50% duty cycle should give ~50% CPU, got {frac}"
        );
    }

    #[test]
    fn oversubscribed_pus_share_fairly() {
        // 3 CPU-bound tasks pinned to one PU: each gets ~1/3.
        let mut k = kernel();
        let pin = CpuSet::single(tiptop_machine::topology::PuId(0));
        let pids: Vec<Pid> = (0..3)
            .map(|i| {
                k.spawn(
                    SpawnSpec::new(format!("t{i}"), Uid(1), Program::endless(spin_profile()))
                        .affinity(pin),
                )
            })
            .collect();
        k.advance(SimDuration::from_secs(3));
        for pid in pids {
            let frac = k.stat(pid).unwrap().cpu_time().as_secs_f64() / 3.0;
            assert!(
                (0.28..0.39).contains(&frac),
                "pinned 3-way share should be ~1/3, got {frac}"
            );
        }
    }

    #[test]
    fn nice_weights_shift_shares() {
        let mut k = kernel();
        let pin = CpuSet::single(tiptop_machine::topology::PuId(0));
        let favored = k.spawn(
            SpawnSpec::new("fav", Uid(1), Program::endless(spin_profile()))
                .affinity(pin)
                .nice(-5),
        );
        let penalized = k.spawn(
            SpawnSpec::new("pen", Uid(1), Program::endless(spin_profile()))
                .affinity(pin)
                .nice(5),
        );
        k.advance(SimDuration::from_secs(3));
        let f = k.stat(favored).unwrap().cpu_time().as_secs_f64();
        let p = k.stat(penalized).unwrap().cpu_time().as_secs_f64();
        assert!(f > p * 3.0, "nice -5 vs +5 should be ≥3x share: {f} vs {p}");
    }

    #[test]
    fn perf_counts_cycles_and_instructions() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        let cy = k
            .perf_event_open(
                &PerfEventAttr::generic(GenericEvent::CpuCycles),
                pid,
                -1,
                Uid(1),
            )
            .unwrap();
        let insn = k
            .perf_event_open(
                &PerfEventAttr::generic(GenericEvent::Instructions),
                pid,
                -1,
                Uid(1),
            )
            .unwrap();
        k.advance(SimDuration::from_secs(1));
        let cycles = k.perf_read(cy).unwrap();
        let insns = k.perf_read(insn).unwrap();
        // ~3.07e9 cycles in 1 s of 100% CPU.
        let expect = 3.07e9;
        let got = cycles.value as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.02,
            "cycle count {got} should be ≈{expect}"
        );
        let ipc = insns.value as f64 / got;
        assert!((1.1..1.4).contains(&ipc), "IPC {ipc} should be ~1.25");
        assert_eq!(
            cycles.time_enabled, cycles.time_running,
            "no multiplexing here"
        );
    }

    #[test]
    fn counting_starts_at_attach_not_task_start() {
        // Paper §2.2: "only events that occur after the start of tiptop are
        // observed".
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        k.advance(SimDuration::from_secs(1));
        let fd = k
            .perf_event_open(
                &PerfEventAttr::generic(GenericEvent::Instructions),
                pid,
                -1,
                Uid(1),
            )
            .unwrap();
        k.advance(SimDuration::from_secs(1));
        let counted = k.perf_read(fd).unwrap().value;
        let truth = k.ground_truth(pid).unwrap().get(HwEvent::Instructions);
        assert!(
            counted < truth * 6 / 10,
            "attached halfway: counted {counted} must be well below lifetime {truth}"
        );
        assert!(
            counted > truth * 4 / 10,
            "but roughly half of it: {counted} vs {truth}"
        );
    }

    #[test]
    fn permission_denied_for_other_users() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "mine",
            Uid(1000),
            Program::endless(spin_profile()),
        ));
        let attr = PerfEventAttr::generic(GenericEvent::CpuCycles);
        assert_eq!(
            k.perf_event_open(&attr, pid, -1, Uid(2000)).unwrap_err(),
            Errno::EACCES
        );
        assert!(
            k.perf_event_open(&attr, pid, -1, Uid(1000)).is_ok(),
            "owner may"
        );
        assert!(
            k.perf_event_open(&attr, pid, -1, Uid::ROOT).is_ok(),
            "root may"
        );
    }

    #[test]
    fn perf_error_paths() {
        let mut k = kernel();
        let attr = PerfEventAttr::generic(GenericEvent::CpuCycles);
        assert_eq!(
            k.perf_event_open(&attr, Pid(9999), -1, Uid(1)).unwrap_err(),
            Errno::ESRCH
        );
        let pid = k.spawn(SpawnSpec::new(
            "t",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        assert_eq!(
            k.perf_event_open(&attr, pid, 0, Uid(1)).unwrap_err(),
            Errno::EINVAL,
            "per-cpu counting unsupported"
        );
        assert_eq!(k.perf_read(PerfFd(777)).unwrap_err(), Errno::EBADF);
        let fd = k.perf_event_open(&attr, pid, -1, Uid(1)).unwrap();
        assert!(k.perf_close(fd).is_ok());
        assert_eq!(k.perf_read(fd).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn fd_survives_task_exit_with_final_value() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "short",
            Uid(1),
            Program::single(spin_profile(), 100_000_000),
        ));
        let fd = k
            .perf_event_open(
                &PerfEventAttr::generic(GenericEvent::Instructions),
                pid,
                -1,
                Uid(1),
            )
            .unwrap();
        k.advance(SimDuration::from_secs(1));
        assert!(!k.is_alive(pid));
        let v1 = k.perf_read(fd).unwrap();
        assert!(v1.value >= 100_000_000, "final count readable after exit");
        k.advance(SimDuration::from_secs(1));
        let v2 = k.perf_read(fd).unwrap();
        assert_eq!(v1, v2, "count frozen after exit");
    }

    #[test]
    fn disabled_counter_counts_nothing_until_enabled() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        let mut attr = PerfEventAttr::generic(GenericEvent::CpuCycles);
        attr.disabled = true;
        let fd = k.perf_event_open(&attr, pid, -1, Uid(1)).unwrap();
        k.advance(SimDuration::from_secs(1));
        assert_eq!(k.perf_read(fd).unwrap().value, 0);
        k.perf_enable(fd).unwrap();
        k.advance(SimDuration::from_secs(1));
        assert!(k.perf_read(fd).unwrap().value > 0);
    }

    #[test]
    fn multiplexing_scales_to_roughly_true_counts() {
        // PMU with 2 programmable counters; request 4 programmable events.
        let mut cfg = MachineConfig::nehalem_w3550().noiseless();
        cfg.uarch.pmu = tiptop_machine::pmu::PmuCapabilities {
            fixed_counters: 3,
            programmable_counters: 2,
        };
        let mut k = Kernel::new(KernelConfig::new(cfg).seed(7));
        let p = ExecProfile::builder("mem")
            .base_cpi(0.8)
            .branches(0.18, 0.01)
            .memory(MemoryBehavior::uniform(16 << 20))
            .build();
        let pid = k.spawn(SpawnSpec::new("mem", Uid(1), Program::endless(p)));
        let events = [
            HwEvent::CacheMisses,
            HwEvent::BranchMisses,
            HwEvent::L1dMisses,
            HwEvent::L2Misses,
        ];
        let fds: Vec<PerfFd> = events
            .iter()
            .map(|&e| {
                k.perf_event_open(&PerfEventAttr::raw(e), pid, -1, Uid(1))
                    .unwrap()
            })
            .collect();
        k.advance(SimDuration::from_secs(5));
        let truth = k.ground_truth(pid).unwrap();
        for (fd, &e) in fds.iter().zip(events.iter()) {
            let v = k.perf_read(*fd).unwrap();
            assert!(
                v.time_running < v.time_enabled,
                "{e:?} must have been multiplexed"
            );
            let scaled = v.scaled() as f64;
            let t = truth.get(e) as f64;
            assert!(t > 0.0, "{e:?} truth is zero?");
            let rel = (scaled - t).abs() / t;
            assert!(
                rel < 0.15,
                "{e:?}: scaled {scaled} vs truth {t} off by {:.1}%",
                rel * 100.0
            );
        }
    }

    #[test]
    fn raw_fp_assist_event_counts() {
        let mut k = kernel();
        let p = ExecProfile::builder("x87")
            .base_cpi(0.75)
            .branches(0.25, 0.0)
            .fp(0.25, tiptop_machine::exec::FpUnit::X87)
            .operand_classes(1.0, 0.0)
            .memory(MemoryBehavior::uniform(4096))
            .build();
        let pid = k.spawn(SpawnSpec::new("fp", Uid(1), Program::endless(p)));
        let fd = k
            .perf_event_open(&PerfEventAttr::raw(HwEvent::FpAssists), pid, -1, Uid(1))
            .unwrap();
        k.advance(SimDuration::from_secs(1));
        assert!(
            k.perf_read(fd).unwrap().value > 0,
            "FP_ASSIST must fire for x87 Inf/NaN"
        );
    }

    #[test]
    fn perf_read_batch_matches_per_fd_reads() {
        let mut k = kernel();
        let a = k.spawn(SpawnSpec::new(
            "a",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        let b = k.spawn(SpawnSpec::new(
            "b",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        let events = [HwEvent::Cycles, HwEvent::Instructions, HwEvent::CacheMisses];
        let mut fds = Vec::new();
        for pid in [a, b] {
            for e in events {
                fds.push(
                    k.perf_event_open(&PerfEventAttr::raw(e), pid, -1, Uid(1))
                        .unwrap(),
                );
            }
        }
        k.advance(SimDuration::from_secs(1));

        // Positionally aligned with the request, including a bad fd and a
        // duplicate.
        let mut req = fds.clone();
        req.push(PerfFd(9999));
        req.push(fds[0]);
        let batch = k.perf_read_batch(&req);
        assert_eq!(batch.len(), req.len());
        for (i, fd) in fds.iter().enumerate() {
            assert_eq!(batch[i], Ok(k.perf_read(*fd).unwrap()));
        }
        assert_eq!(batch[fds.len()], Err(Errno::EBADF));
        assert_eq!(batch[fds.len() + 1], batch[0], "duplicate fd repeats");
        assert!(batch[0].unwrap().value > 1_000_000, "counted something");
    }

    #[test]
    fn advance_until_is_idempotent() {
        let mut k = kernel();
        k.advance_until(SimTime::from_secs(1));
        assert_eq!(k.now(), SimTime::from_secs(1));
        k.advance_until(SimTime::from_secs(1));
        assert_eq!(k.now(), SimTime::from_secs(1));
        k.advance_until(SimTime::ZERO);
        assert_eq!(k.now(), SimTime::from_secs(1), "cannot go back");
    }

    #[test]
    fn kill_removes_task() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "victim",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        k.advance(SimDuration::from_millis(100));
        k.kill(pid).unwrap();
        k.advance(SimDuration::from_millis(100));
        assert!(!k.is_alive(pid));
        assert_eq!(k.kill(pid).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn renice_clamps_and_rejects_dead_tasks() {
        let mut k = kernel();
        let pid = k.spawn(SpawnSpec::new(
            "n",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        k.renice(pid, -7).unwrap();
        assert_eq!(k.stat(pid).unwrap().nice, -7);
        k.renice(pid, 99).unwrap();
        assert_eq!(k.stat(pid).unwrap().nice, 19, "clamped to Linux range");
        k.kill(pid).unwrap();
        k.advance(SimDuration::from_millis(100));
        assert_eq!(k.renice(pid, 0).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut k = kernel();
            let pid =
                k.spawn(SpawnSpec::new("d", Uid(1), Program::endless(spin_profile())).seed(3));
            k.advance(SimDuration::from_secs(1));
            k.ground_truth(pid).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_resume_conserves_instruction_count() {
        const INSNS: u64 = 1_000_000_000;
        // Baseline: the job runs to completion on one kernel.
        let mut base = kernel();
        let pid = base.spawn(SpawnSpec::new(
            "job",
            Uid(1),
            Program::single(spin_profile(), INSNS),
        ));
        base.advance(SimDuration::from_secs(2));
        let baseline = base.exit_record(pid).unwrap().total_instructions;
        assert_eq!(baseline, INSNS);

        // Migrated: run partway on A, checkpoint at kill time, resume on B.
        let mut a = kernel();
        let pid_a = a.spawn(SpawnSpec::new(
            "job",
            Uid(1),
            Program::single(spin_profile(), INSNS),
        ));
        a.advance(SimDuration::from_millis(100));
        let cp = a.checkpoint(pid_a).unwrap();
        a.kill(pid_a).unwrap();
        let done_at_kill = cp.total_instructions;
        assert!(
            done_at_kill > 0 && done_at_kill < INSNS,
            "checkpoint taken mid-program: {done_at_kill}"
        );
        let mut b = kernel();
        let pid_b = b.spawn_from_checkpoint(cp);
        assert_eq!(
            b.stat(pid_b).unwrap().ground_truth_instructions,
            done_at_kill,
            "resumed task carries its accumulated progress"
        );
        b.advance(SimDuration::from_secs(2));
        assert!(!b.is_alive(pid_b), "resumed job ran to completion");
        let rec = b.exit_record(pid_b).unwrap();
        assert_eq!(
            rec.total_instructions, baseline,
            "whole-job instruction count conserved across the migration"
        );
        assert!(
            rec.end_time < SimTime::from_secs(1),
            "resumed job finishes the remainder, not the whole program"
        );
    }

    #[test]
    fn checkpoint_of_unknown_or_completed_task_is_esrch() {
        let mut k = kernel();
        assert_eq!(k.checkpoint(Pid(9999)).unwrap_err(), Errno::ESRCH);
        let pid = k.spawn(SpawnSpec::new(
            "short",
            Uid(1),
            Program::single(spin_profile(), 1_000_000),
        ));
        k.advance(SimDuration::from_secs(1));
        assert!(!k.is_alive(pid), "program ran to completion");
        assert_eq!(
            k.checkpoint(pid).unwrap_err(),
            Errno::ESRCH,
            "a finished job has nothing to resume"
        );
        // A zombie awaiting reaping is equally unresumable.
        let pid2 = k.spawn(SpawnSpec::new(
            "z",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        k.kill(pid2).unwrap();
        assert_eq!(k.checkpoint(pid2).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn resume_remaps_stream_and_relaxes_impossible_pins() {
        let mut a = kernel();
        let pid_a = a.spawn(
            SpawnSpec::new("pinned", Uid(1), Program::endless(spin_profile()))
                .affinity(CpuSet::single(tiptop_machine::topology::PuId(7)))
                .nice(5),
        );
        a.advance(SimDuration::from_millis(100));
        let cp = a.checkpoint(pid_a).unwrap();
        assert_eq!(cp.nice, 5);

        // Destination with fewer PUs than the pin names: pin falls away.
        let mut small = MachineConfig::nehalem_w3550().noiseless();
        small.topology = tiptop_machine::topology::Topology::new(1, 1, 2, 4096);
        let mut b = Kernel::new(KernelConfig::new(small).seed(42));
        let pid_b = b.spawn_from_checkpoint(cp);
        let st = b.stat(pid_b).unwrap();
        assert_eq!(st.nice, 5, "nice survives the migration");
        b.advance(SimDuration::from_millis(100));
        assert!(
            b.stat(pid_b).unwrap().cpu_time() > SimDuration::ZERO,
            "task runs despite the stale pin"
        );
    }

    #[test]
    fn threads_share_tgid_and_run_concurrently() {
        let mut k = kernel();
        let main = k.spawn(SpawnSpec::new(
            "app",
            Uid(1),
            Program::endless(spin_profile()),
        ));
        let thr = k
            .spawn(SpawnSpec::new("app", Uid(1), Program::endless(spin_profile())).thread_of(main));
        k.advance(SimDuration::from_secs(1));
        let st_main = k.stat(main).unwrap();
        let st_thr = k.stat(thr).unwrap();
        assert_eq!(st_thr.tgid, main);
        assert_eq!(st_main.tgid, main);
        assert!(
            st_thr.cpu_time().as_secs_f64() > 0.9,
            "thread runs on its own PU"
        );
    }
}
