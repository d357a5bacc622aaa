//! One module per paper artifact. Every module exposes `run(...)` returning
//! structured data plus a `report()` rendering the same rows or series the
//! paper shows, and every one drives the stack through the
//! [`Scenario`]/[`Session`](tiptop_core::scenario::Session) API.
//!
//! All nine artifacts of the evaluation are implemented: Figure 1 (the
//! data-center snapshot), Figure 3 (the R evolutionary-algorithm collapse),
//! Figures 6/7 (SPEC phase behaviour), Figure 8 (IPC against retired
//! instructions), Figure 9 (gcc vs icc), Figure 10 (the data-center
//! interference burst), Figure 11 (the SMT/shared-cache interference
//! matrix), Table 1 (the x87/SSE FP micro-benchmark), and the §2.4
//! tiptop-vs-Pin validation — plus beyond-the-paper cluster experiments:
//! [`fleet`] (one workload on every machine, one merged timeline),
//! [`relief`] (the Fig 10 burst relieved by moving work off the contended
//! node: one table of cells keyed by scenario — the endless-aggressor grid,
//! the finite burst on CFS-like or round-robin kernels, a three-node fleet
//! with a busy spare — by trigger — a scripted migration, or an IPC-floor,
//! CUSUM or population+least-loaded policy deciding from the merged stream
//! — and by restart or resume mode, each cell simulated once),
//! [`scaling`] (the throughput frontier of the round driver: frames/sec
//! and parallel efficiency at 10, 100 and 1000 machines, swept across
//! worker-thread counts) and [`pipelines`] (dependency-driven scenario
//! DAGs: ETL-chain, build-farm, map-shuffle and seeded random-DAG scripts
//! whose stages are submitted by after-exit edges and resolved — across
//! machines — by the cluster's round driver).

pub mod fig01_snapshot;
pub mod fig03_evolution;
pub mod fig06_07_phases;
pub mod fig08_ipc_vs_instructions;
pub mod fig09_compilers;
pub mod fig10_datacenter;
pub mod fig11_interference;
pub mod fleet;
pub mod pipelines;
pub mod relief;
pub mod scaling;
pub mod table1_fp_micro;
pub mod validation;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::MachineRef;
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_core::session::series_for_pid;
use tiptop_kernel::kernel::ExitRecord;
use tiptop_kernel::program::Program;
use tiptop_kernel::task::{Pid, SpawnSpec, Uid};
use tiptop_machine::config::{CpuModelKind, MachineConfig};
use tiptop_machine::time::SimDuration;
use tiptop_workloads::spec::{Compiler, Isa, SpecBenchmark};

use crate::report::Series;

/// Worker threads for cluster-driven experiments: one per hardware thread.
/// The merged frame stream is byte-identical at any count, so this only
/// affects wall clock.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The standard SPEC observer for cluster shards: a root tiptop with the
/// default screen at the given refresh interval, one fresh instance per
/// machine.
pub(crate) fn spec_monitor_factory(
    delay: SimDuration,
) -> impl Fn(MachineRef<'_>) -> Box<dyn Monitor + Send> + Sync {
    move |_| {
        Box::new(Tiptop::new(
            TiptopOptions::default().observer(Uid::ROOT).delay(delay),
            ScreenConfig::default_screen(),
        ))
    }
}

/// The three evaluation machines of Figs 3/6/7/8, labelled as the paper
/// labels them. Consumed by [`fig03_evolution`], [`fig06_07_phases`] and
/// [`fig08_ipc_vs_instructions`].
pub fn evaluation_machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("Nehalem", MachineConfig::nehalem_w3550()),
        ("Core", MachineConfig::core2_machine()),
        ("PPC970", MachineConfig::ppc970_machine()),
    ]
}

/// Which binary flavour a machine executes: the Intel machines run the same
/// x86 binary, the PowerPC build retires ~7% more instructions (the small
/// rightward shift of the PPC970 curve in Fig 8).
pub fn isa_for(machine: &MachineConfig) -> Isa {
    match machine.uarch.kind {
        CpuModelKind::Ppc970 => Isa::Ppc,
        _ => Isa::X86,
    }
}

/// One SPEC stand-in driven to completion on one machine, observed by
/// tiptop at a fixed refresh interval.
pub(crate) struct SpecRun {
    pub frames: Vec<Frame>,
    pub exit: ExitRecord,
    pub pid: Pid,
}

impl SpecRun {
    /// A column of the tiptop screen as a time series (seconds → value).
    pub fn series(&self, column: &str, label: impl Into<String>) -> Series {
        Series::new(label, series_for_pid(&self.frames, self.pid, column))
    }

    /// Wall-clock run time in simulated seconds.
    pub fn wall(&self) -> f64 {
        (self.exit.end_time - self.exit.start_time).as_secs_f64()
    }
}

/// Drive one program to completion on `machine` through a `Session`,
/// observed (as root) by a tiptop with the given screen every `delay`. The
/// machine runs noiseless so regression tests see the calibrated shape,
/// not jitter.
pub(crate) fn drive_to_completion(
    machine: MachineConfig,
    seed: u64,
    comm: &str,
    program: Program,
    screen: ScreenConfig,
    delay: SimDuration,
) -> SpecRun {
    let mut session = Scenario::new(machine.noiseless())
        .seed(seed)
        .user(Uid(1), "user1")
        .spawn(
            comm,
            SpawnSpec::new(comm, Uid(1), program).seed(seed ^ 0x5bec),
        )
        .build()
        .expect("one unique tag");
    let pid = session.pid(comm).expect("spawned at t=0");
    let mut tool = Tiptop::new(
        TiptopOptions::default().observer(Uid::ROOT).delay(delay),
        screen,
    );
    let frames = session
        .run_until(&mut tool, 1_000_000, |f| f.row_for(pid).is_none())
        .expect("positive interval");
    session.teardown(&mut tool);
    let exit = session
        .kernel()
        .exit_record(pid)
        .expect("program ran to completion")
        .clone();
    SpecRun { frames, exit, pid }
}

/// Tiptop refresh interval for a SPEC run at a given scale: the paper
/// samples every ~5 s at reference run lengths, and the interval shrinks
/// with the scale so every run yields a comparable number of samples. All
/// SPEC-driving figures share this so their sampling stays comparable.
pub(crate) fn spec_delay(scale: f64) -> SimDuration {
    SimDuration::from_secs_f64((5.0 * scale).max(0.04))
}

/// [`drive_to_completion`] for a SPEC stand-in under the default screen.
pub(crate) fn run_spec_to_completion(
    machine: MachineConfig,
    bench: SpecBenchmark,
    compiler: Compiler,
    isa: Isa,
    scale: f64,
    seed: u64,
    delay: SimDuration,
) -> SpecRun {
    drive_to_completion(
        machine,
        seed,
        bench.comm(),
        bench.program(compiler, isa, scale),
        ScreenConfig::default_screen(),
        delay,
    )
}
