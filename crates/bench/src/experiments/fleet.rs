//! **Fleet** — one workload, every machine, one merged report: the same
//! SPEC phase benchmark (473.astar, the strongest phase alternator of
//! Fig 6) runs *concurrently* on all three evaluation machines, observed by
//! one tiptop per node, and the per-node frame streams merge into a single
//! deterministically ordered timeline.
//!
//! This is the experiment the single-machine session API could never
//! express: it is not twelve independent runs stitched together afterwards,
//! but one live observation of a heterogeneous fleet on a shared wall
//! clock — the operator's view of "the same job submitted to every box in
//! the lab at t=0". The merged stream shows the Nehalem pulling ahead
//! phase-by-phase, the Core trailing, the PPC970 still in its build phase
//! when the Nehalem has finished, and each node dropping out of the
//! timeline at its own completion instant.

use tiptop_core::cluster::{ClusterFrame, ClusterScenario, MachineRef, Until};
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_core::session::cluster_series_for_comm;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_workloads::spec::{Compiler, SpecBenchmark};

use crate::experiments::{
    default_threads, evaluation_machines, isa_for, spec_delay, spec_monitor_factory,
};
use crate::report::{PanelSet, Series, TableReport};

/// The fleet's common workload.
pub const BENCHMARK: SpecBenchmark = SpecBenchmark::Astar;

pub struct FleetResult {
    /// Machine ids in merge tie-break order (Nehalem, Core, PPC970).
    pub machines: Vec<String>,
    /// The merged stream, exactly as the sink received it: ordered by
    /// (sim-time, machine).
    pub merged: Vec<ClusterFrame>,
    /// Per-machine IPC over the shared wall clock.
    pub ipc: Vec<Series>,
    /// Per-machine completion time in simulated seconds.
    pub walls: Vec<(String, f64)>,
    pub scale: f64,
}

/// Run the fleet on the default worker pool.
pub fn run(seed: u64, scale: f64) -> FleetResult {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count; the merged stream is
/// byte-identical at any count.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> FleetResult {
    let delay = spec_delay(scale);
    let comm = BENCHMARK.comm();

    let mut cluster = ClusterScenario::new();
    let mut machines = Vec::new();
    for (mi, (mname, machine)) in evaluation_machines().into_iter().enumerate() {
        let isa = isa_for(&machine);
        let node_seed = seed + mi as u64;
        cluster = cluster.machine(
            mname,
            Scenario::new(machine.noiseless())
                .seed(node_seed)
                .user(Uid(1), "user1")
                .spawn(
                    comm,
                    SpawnSpec::new(comm, Uid(1), BENCHMARK.program(Compiler::Gcc, isa, scale))
                        .seed(node_seed ^ 0x5bec),
                ),
        );
        machines.push(mname.to_string());
    }
    let mut session = cluster.build().expect("unique machine names");

    let mut merged: Vec<ClusterFrame> = Vec::new();
    {
        let mut sink = |cf: ClusterFrame| merged.push(cf);
        let monitor = spec_monitor_factory(delay);
        let tools = |m: MachineRef<'_>| {
            let until: Until = Box::new(move |f: &Frame| f.row_for_comm(comm).is_none());
            vec![(monitor(m), Some(until))]
        };
        session
            .run(threads, 1_000_000, tools, &mut [], &mut sink)
            .expect("fleet run");
    }

    let ipc = machines
        .iter()
        .map(|m| {
            Series::new(
                format!("{m} IPC"),
                cluster_series_for_comm(&merged, m, None, comm, "IPC"),
            )
        })
        .collect();
    let walls = machines
        .iter()
        .map(|m| {
            let shard = session.session(m).expect("shard survived");
            let pid = shard.pid(comm).expect("spawned at t=0");
            let rec = shard.kernel().exit_record(pid).expect("ran to completion");
            (m.clone(), (rec.end_time - rec.start_time).as_secs_f64())
        })
        .collect();

    FleetResult {
        machines,
        merged,
        ipc,
        walls,
        scale,
    }
}

impl FleetResult {
    pub fn wall_for(&self, machine: &str) -> f64 {
        self.walls
            .iter()
            .find(|(m, _)| m == machine)
            .map(|(_, w)| *w)
            .expect("known machine")
    }

    /// The merged stream rendered to text — the byte-identity artifact the
    /// determinism tests compare across thread counts.
    pub fn rendered_stream(&self) -> String {
        self.merged
            .iter()
            .map(|cf| {
                format!(
                    "[{} #{} {}]\n{}",
                    cf.machine,
                    cf.seq,
                    cf.source,
                    cf.frame.render()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn report(&self) -> String {
        let mut fig = PanelSet::new(format!(
            "Fleet: {} on every machine at t=0 (scale {})",
            BENCHMARK.name(),
            self.scale
        ));
        for (m, s) in self.machines.iter().zip(self.ipc.iter()) {
            fig.panel(m, vec![s.clone()]);
        }
        let mut out = fig.render(72, 10);

        let mut t = TableReport::new(
            "fleet completion (one merged timeline)",
            &["machine", "wall (s)", "frames", "mean IPC"],
        );
        for (m, s) in self.machines.iter().zip(self.ipc.iter()) {
            t.row(vec![
                m.clone(),
                format!("{:.1}", self.wall_for(m)),
                self.merged
                    .iter()
                    .filter(|cf| &cf.machine == m)
                    .count()
                    .to_string(),
                format!("{:.2}", s.mean()),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
