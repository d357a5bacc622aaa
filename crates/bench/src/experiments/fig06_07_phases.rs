//! **Figures 6 and 7** — SPEC CPU2006 phase behaviour as tiptop shows it,
//! on the three evaluation machines: 429.mcf's gentle long-period wave and
//! 473.astar's strong build/search alternation (Fig 6), 410.bwaves' steady
//! FP streaming and 435.gromacs' small force/update wiggles (Fig 7). The
//! same binary (in retired instructions) runs on every machine, so the
//! phase *pattern* is machine-invariant while its time axis stretches with
//! the machine's achieved IPC.
//!
//! The three machines are physically independent, so the twelve
//! (machine × benchmark) runs go through one [`ClusterSession`]: every run
//! is its own shard, executed concurrently on the worker pool and merged
//! deterministically — same frames as the old serial loop, a machine-count
//! speedup in wall clock.

use tiptop_core::cluster::{ClusterScenario, ClusterSession, MachineRef, Until};
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_workloads::spec::{Compiler, SpecBenchmark};

use crate::experiments::{
    default_threads, evaluation_machines, isa_for, spec_delay, spec_monitor_factory, SpecRun,
};
use crate::report::{PanelSet, Series, TableReport};

/// The four benchmarks the two figures show.
pub const BENCHMARKS: [SpecBenchmark; 4] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Astar,
    SpecBenchmark::Bwaves,
    SpecBenchmark::Gromacs,
];

/// One benchmark on one machine.
pub struct PhaseRun {
    pub machine: String,
    pub benchmark: SpecBenchmark,
    /// Tiptop's IPC column over time (seconds).
    pub ipc: Series,
    /// Run time in simulated seconds.
    pub wall: f64,
}

pub struct Fig0607Result {
    pub runs: Vec<PhaseRun>,
    pub scale: f64,
}

/// Run the four benchmarks on the three machines, all twelve shards
/// concurrently on the default worker pool. `scale` multiplies instruction
/// counts (1.0 ≈ reference inputs; tests use ~0.02); the tiptop refresh
/// interval scales along (see `spec_delay`).
pub fn run(seed: u64, scale: f64) -> Fig0607Result {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count. Frames are byte-identical
/// at any count — the cluster merge guarantees it.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> Fig0607Result {
    let delay = spec_delay(scale);

    // One cluster shard per (machine, benchmark) pair, seeds exactly as the
    // old serial loop assigned them.
    let mut cluster = ClusterScenario::new();
    let mut pairs: Vec<(&'static str, SpecBenchmark)> = Vec::new();
    for (mi, (mname, machine)) in evaluation_machines().into_iter().enumerate() {
        let isa = isa_for(&machine);
        for (bi, bench) in BENCHMARKS.into_iter().enumerate() {
            let shard_seed = seed + (mi * BENCHMARKS.len() + bi) as u64;
            let scenario = Scenario::new(machine.clone().noiseless())
                .seed(shard_seed)
                .user(Uid(1), "user1")
                .spawn(
                    bench.comm(),
                    SpawnSpec::new(
                        bench.comm(),
                        Uid(1),
                        bench.program(Compiler::Gcc, isa, scale),
                    )
                    .seed(shard_seed ^ 0x5bec),
                );
            cluster = cluster.machine(format!("{mname}/{}", bench.name()), scenario);
            pairs.push((mname, bench));
        }
    }
    let mut session: ClusterSession = cluster.build().expect("unique (machine, bench) ids");

    let mut per_shard: Vec<Vec<Frame>> = vec![Vec::new(); pairs.len()];
    {
        let pairs = &pairs;
        let mut sink = |cf: tiptop_core::cluster::ClusterFrame| {
            per_shard[cf.machine_index].push(cf.frame);
        };
        let monitor = spec_monitor_factory(delay);
        let tools = |m: MachineRef<'_>| {
            let comm = pairs[m.index].1.comm();
            let until: Until = Box::new(move |f: &Frame| f.row_for_comm(comm).is_none());
            vec![(monitor(m), Some(until))]
        };
        session
            .run(threads, 1_000_000, tools, &mut [], &mut sink)
            .expect("cluster run");
    }

    let runs = pairs
        .iter()
        .zip(per_shard)
        .map(|(&(mname, bench), frames)| {
            let id = format!("{mname}/{}", bench.name());
            let shard = session.session(&id).expect("shard survived");
            let pid = shard.pid(bench.comm()).expect("spawned at t=0");
            let exit = shard
                .kernel()
                .exit_record(pid)
                .expect("ran to completion")
                .clone();
            let r = SpecRun { frames, exit, pid };
            PhaseRun {
                machine: mname.to_string(),
                benchmark: bench,
                ipc: r.series("IPC", format!("{} on {}", bench.name(), mname)),
                wall: r.wall(),
            }
        })
        .collect();
    Fig0607Result { runs, scale }
}

impl Fig0607Result {
    pub fn run_for(&self, machine: &str, bench: SpecBenchmark) -> &PhaseRun {
        self.runs
            .iter()
            .find(|r| r.machine == machine && r.benchmark == bench)
            .expect("known machine/benchmark pair")
    }

    pub fn report(&self) -> String {
        let mut out = String::new();
        for bench in BENCHMARKS {
            let mut fig = PanelSet::new(format!("Figs 6/7: {} IPC over time", bench.name()));
            for r in self.runs.iter().filter(|r| r.benchmark == bench) {
                fig.panel(&r.machine, vec![r.ipc.clone()]);
            }
            out.push_str(&fig.render(72, 10));
        }
        let mut t = TableReport::new(
            format!("phase summary (scale {})", self.scale),
            &["benchmark", "machine", "mean IPC", "min", "max", "wall (s)"],
        );
        for r in &self.runs {
            t.row(vec![
                r.benchmark.name().to_string(),
                r.machine.clone(),
                format!("{:.2}", r.ipc.mean()),
                format!("{:.2}", r.ipc.min_y()),
                format!("{:.2}", r.ipc.max_y()),
                format!("{:.1}", r.wall),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
