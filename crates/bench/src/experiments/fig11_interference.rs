//! **Figure 11** — the §3.4 interference study on the quad-core SMT
//! Nehalem: several copies of 429.mcf pinned (`taskset`-style) to chosen
//! logical CPUs. Two copies on the *SMT siblings* of one physical core
//! fight over the pipelines and the private L2 (PU0/PU4 share core 0, as
//! in the paper's hwloc diagram, Fig 11 (c)); two copies on *separate
//! cores* fight only through the shared L3; a cache-light partner on the
//! sibling shows the pure pipeline-sharing cost. The matrix reports the
//! victim's steady-state IPC per placement, plus a single staircase
//! session in which re-pinning and killing the partner mid-run steps the
//! victim's IPC back up.
//!
//! Each placement cell is an independent physical box, so the five cells
//! run as one [`ClusterSession`](tiptop_core::cluster::ClusterSession) —
//! concurrently on the worker pool, with identical per-cell frames to the
//! old serial loop.

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::ClusterScenario;
use tiptop_core::config::ScreenConfig;
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_core::session::series_for_pid;
use tiptop_kernel::program::Program;
use tiptop_kernel::sched::CpuSet;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;
use tiptop_workloads::spec::{corun_partner_light, mcf_endless};

use crate::experiments::default_threads;
use crate::report::{ascii_plot, Series, TableReport};

/// One row of the interference matrix.
pub struct MatrixCell {
    pub label: String,
    /// Steady-state IPC of the victim mcf copy.
    pub victim_ipc: f64,
    /// Victim LLC misses per hundred instructions.
    pub victim_l3_per100: f64,
    /// Steady-state IPC of the partner (`None` for the solo row).
    pub partner_ipc: Option<f64>,
}

pub struct Fig11Result {
    pub cells: Vec<MatrixCell>,
    /// Victim IPC over time in the staircase session: SMT sibling until
    /// t=12 s, separate core until t=24 s, alone afterwards.
    pub staircase: Series,
    /// The machine layout, hwloc-style (the paper's Fig 11 (c)).
    pub topology: String,
}

/// How long each placement runs and where the steady-state window starts.
const WARMUP_S: u64 = 14;
const MEASURE_S: u64 = 8;

/// Build and run the matrix: five placement cells, one cluster shard each.
pub fn run(seed: u64) -> Fig11Result {
    run_on(seed, default_threads())
}

/// [`run`] with an explicit worker-thread count (the cells' frames are
/// byte-identical at any count).
pub fn run_on(seed: u64, threads: usize) -> Fig11Result {
    // Oversample the caches so the ~4.5 MiB warm tier settles into the L3
    // within the warm-up, and run noiseless so the matrix is exact.
    let machine = || {
        MachineConfig::nehalem_w3550()
            .noiseless()
            .with_samples(2048)
    };

    type Placement = (
        &'static str,
        MachineConfig,
        CpuSet,
        Option<(CpuSet, Program)>,
        u64,
    );
    let placements: Vec<Placement> = vec![
        ("alone", machine(), CpuSet::single(PuId(0)), None, seed),
        (
            "SMT siblings (mcf+mcf, PU0+PU4)",
            machine(),
            CpuSet::single(PuId(0)),
            Some((CpuSet::single(PuId(4)), mcf_endless(1))),
            seed + 1,
        ),
        (
            "separate cores (mcf+mcf, PU0+PU1)",
            machine(),
            CpuSet::single(PuId(0)),
            Some((CpuSet::single(PuId(1)), mcf_endless(1))),
            seed + 2,
        ),
        (
            "SMT siblings (mcf+light, PU0+PU4)",
            machine(),
            CpuSet::single(PuId(0)),
            Some((CpuSet::single(PuId(4)), corun_partner_light())),
            seed + 3,
        ),
        // The SMT knob: the same silicon with hyper-threading disabled in
        // the BIOS exposes 4 PUs; pair on separate cores must match the
        // separate-cores row of the SMT machine.
        (
            "separate cores, SMT off",
            machine().without_smt(),
            CpuSet::single(PuId(0)),
            Some((CpuSet::single(PuId(1)), mcf_endless(1))),
            seed + 4,
        ),
    ];

    // Every placement is its own machine in one cluster.
    let mut cluster = ClusterScenario::new();
    let mut labels = Vec::new();
    for (label, machine, victim_pus, partner, cell_seed) in placements {
        let mut scenario = Scenario::new(machine)
            .seed(cell_seed)
            .user(Uid(1), "user1")
            .spawn(
                "mcf0",
                SpawnSpec::new("mcf", Uid(1), mcf_endless(0))
                    .affinity(victim_pus)
                    .seed(cell_seed ^ 0xA),
            );
        if let Some((pus, program)) = partner {
            scenario = scenario.spawn(
                "partner",
                SpawnSpec::new("partner", Uid(1), program)
                    .affinity(pus)
                    .seed(cell_seed ^ 0xB),
            );
        }
        cluster = cluster.machine(label, scenario);
        labels.push(label);
    }
    let mut session = cluster.build().expect("unique placement labels");

    let mut per_cell: Vec<Vec<Frame>> = vec![Vec::new(); labels.len()];
    {
        let mut sink = |cf: tiptop_core::cluster::ClusterFrame| {
            per_cell[cf.machine_index].push(cf.frame);
        };
        session
            .run(
                threads,
                (WARMUP_S + MEASURE_S) as usize,
                |_| {
                    Box::new(Tiptop::new(
                        TiptopOptions::default()
                            .observer(Uid::ROOT)
                            .delay(SimDuration::from_secs(1)),
                        ScreenConfig::cache_screen(),
                    ))
                },
                &mut sink,
            )
            .expect("cluster run");
    }

    let cells = labels
        .iter()
        .zip(per_cell)
        .map(|(&label, frames)| {
            let shard = session.session(label).expect("shard survived");
            let victim = shard.pid("mcf0").expect("spawned at t=0");
            let partner_pid = shard.pid("partner");
            let steady = |pid, column| {
                Series::new("s", series_for_pid(&frames, pid, column))
                    .mean_in(WARMUP_S as f64, f64::INFINITY)
            };
            MatrixCell {
                label: label.to_string(),
                victim_ipc: steady(victim, "IPC"),
                victim_l3_per100: steady(victim, "L3/100"),
                partner_ipc: partner_pid.map(|p| steady(p, "IPC")),
            }
        })
        .collect();

    let staircase = staircase_session(seed + 10, machine());
    let topology = tiptop_machine::machine::Machine::new(machine(), seed).render_topology();
    Fig11Result {
        cells,
        staircase,
        topology,
    }
}

/// One session, three regimes: the partner starts on the victim's SMT
/// sibling, is re-pinned to a separate core at t=12 s (the new timed `Pin`
/// workload event), and is killed at t=24 s.
fn staircase_session(seed: u64, machine: MachineConfig) -> Series {
    let mut session = Scenario::new(machine)
        .seed(seed)
        .user(Uid(1), "user1")
        .spawn(
            "mcf0",
            SpawnSpec::new("mcf", Uid(1), mcf_endless(0))
                .affinity(CpuSet::single(PuId(0)))
                .seed(1),
        )
        .spawn(
            "partner",
            SpawnSpec::new("partner", Uid(1), mcf_endless(1))
                .affinity(CpuSet::single(PuId(4)))
                .seed(2),
        )
        .pin_at(SimTime::from_secs(12), "partner", CpuSet::single(PuId(1)))
        .kill_at(SimTime::from_secs(24), "partner")
        .build()
        .expect("valid staircase scenario");
    let victim = session.pid("mcf0").expect("spawned at t=0");
    let mut tool = Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_secs(1)),
        ScreenConfig::cache_screen(),
    );
    let frames = session.run(&mut tool, 36).expect("positive interval");
    session.teardown(&mut tool);
    Series::new("victim IPC", series_for_pid(&frames, victim, "IPC"))
}

impl Fig11Result {
    pub fn cell(&self, label_prefix: &str) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.label.starts_with(label_prefix))
            .expect("known placement label")
    }

    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Figure 11: mcf interference matrix (Nehalem W3550) ===\n");
        out.push_str(&self.topology);
        let alone = self.cell("alone").victim_ipc;
        let mut t = TableReport::new(
            "steady-state victim IPC per placement",
            &[
                "placement",
                "victim IPC",
                "slowdown",
                "L3 miss/100",
                "partner IPC",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.label.clone(),
                format!("{:.2}", c.victim_ipc),
                format!("{:.2}x", alone / c.victim_ipc),
                format!("{:.2}", c.victim_l3_per100),
                c.partner_ipc
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or("-".into()),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&ascii_plot(
            "staircase: partner on SMT sibling -> re-pinned to core 1 at t=12 -> killed at t=24",
            std::slice::from_ref(&self.staircase),
            72,
            12,
        ));
        out
    }
}
