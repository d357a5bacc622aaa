//! **Pipelines** — dependency-driven scenario DAGs end to end: the
//! [`tiptop_workloads::pipelines`] scripts (a linear ETL chain, a
//! build-farm fan-out, a map-shuffle round, and a seeded random DAG) run
//! on a three-machine cluster where every stage is submitted by an
//! *after-exit* edge, not a wall-clock instant.
//!
//! Each script becomes a [`ClusterScenario`] — roots via `spawn_at`, edges
//! via [`Scenario::spawn_after`] — so cross-machine edges route the run
//! through the cluster's round driver. The result records every stage's
//! exact start/end, the pipeline's wall-clock against its critical path,
//! and the merged frame stream, which is byte-identical at any
//! worker-thread count (the regression tests pin stage ordering, the
//! chain's gap arithmetic, and 1/2/8-thread identity — the random-DAG run
//! doubles as the determinism case of the byte-identity suite).

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterCollectSink, ClusterFrame, ClusterScenario};
use tiptop_core::config::ScreenConfig;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::pipelines::{
    build_farm, etl_chain, map_shuffle, random_dag, PipelineScript, PIPELINE_USER,
};

use crate::experiments::default_threads;
use crate::report::TableReport;

/// Time compression shared by the suite's regression scale.
const SCALE: f64 = 0.1;
/// Tiptop refresh interval (simulated seconds).
const DELAY_S: f64 = 0.25;
/// Frames per machine: enough simulated time for every script to drain.
const REFRESHES: usize = 10;
/// Seed of the random-DAG determinism case.
const DAG_SEED: u64 = 2012;

/// Turn a pipeline script into a cluster scenario: one machine per index,
/// roots submitted at their scripted instants, dependent stages wired with
/// after-exit edges on their own machine.
pub fn cluster_for(script: &PipelineScript, seed: u64) -> ClusterScenario {
    let mut nodes: Vec<Scenario> = (0..script.machines)
        .map(|i| {
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(seed + i as u64)
                .user(PIPELINE_USER, "grid")
        })
        .collect();
    for st in &script.stages {
        let spec = SpawnSpec::new(&st.tag, PIPELINE_USER, st.program.clone()).seed(st.seed);
        let node = nodes.remove(st.machine);
        let node = match &st.dep {
            None => node.spawn_at(SimTime::ZERO + st.start, &st.tag, spec),
            Some((dep, delay)) => node.spawn_after(dep, *delay, &st.tag, spec),
        };
        nodes.insert(st.machine, node);
    }
    let mut cluster = ClusterScenario::new();
    for (i, node) in nodes.into_iter().enumerate() {
        cluster = cluster.machine(format!("node-{i}"), node);
    }
    cluster
}

/// One stage's observed lifetime.
#[derive(Clone, Debug)]
pub struct StageRecord {
    pub tag: String,
    pub machine: usize,
    /// Spawn instant (simulated seconds).
    pub start: f64,
    /// Exit instant (simulated seconds).
    pub end: f64,
}

/// One script's run: exact stage records plus the byte-identity artifact.
pub struct PipelineRun {
    pub name: &'static str,
    /// Stage records in start order (ties by tag).
    pub records: Vec<StageRecord>,
    /// Last exit minus first start: the pipeline's wall-clock.
    pub wall: f64,
    /// Longest dependency chain, in stages.
    pub depth: usize,
    /// The merged frame stream rendered to bytes.
    pub stream: String,
}

pub struct PipelinesResult {
    pub runs: Vec<PipelineRun>,
}

/// Run the four pipeline shapes on the default worker pool.
pub fn run(seed: u64) -> PipelinesResult {
    run_on(seed, default_threads())
}

/// [`run`] with an explicit worker-thread count; every run's stream and
/// records are byte-identical at any count.
pub fn run_on(seed: u64, threads: usize) -> PipelinesResult {
    let scripts = [
        etl_chain(SCALE),
        build_farm(SCALE, 6),
        map_shuffle(SCALE),
        random_dag(DAG_SEED, 10, 3),
    ];
    let runs = scripts
        .into_iter()
        .map(|script| run_script(&script, seed, threads))
        .collect();
    PipelinesResult { runs }
}

fn run_script(script: &PipelineScript, seed: u64, threads: usize) -> PipelineRun {
    let mut session = cluster_for(script, seed)
        .build()
        .expect("pipeline DAGs validate at build");
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let tool = || {
        Tiptop::new(
            TiptopOptions::default().observer(Uid::ROOT).delay(delay),
            ScreenConfig::default_screen(),
        )
    };
    let mut sink = ClusterCollectSink::new();
    session
        .run(
            threads,
            REFRESHES,
            |_| vec![(Box::new(tool()), None)],
            &mut [],
            &mut sink,
        )
        .expect("pipeline run");
    let frames = sink.into_frames();

    let mut records: Vec<StageRecord> = script
        .stages
        .iter()
        .map(|st| {
            let shard = session
                .session(&format!("node-{}", st.machine))
                .expect("shard survived");
            let pid = shard.pid(&st.tag).expect("every stage spawns");
            let exit = shard
                .kernel()
                .exit_record(pid)
                .expect("every stage runs to completion");
            StageRecord {
                tag: st.tag.clone(),
                machine: st.machine,
                start: exit.start_time.as_secs_f64(),
                end: exit.end_time.as_secs_f64(),
            }
        })
        .collect();
    records.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .expect("sim times are finite")
            .then_with(|| a.tag.cmp(&b.tag))
    });
    let first = records
        .iter()
        .map(|r| r.start)
        .fold(f64::INFINITY, f64::min);
    let last = records.iter().map(|r| r.end).fold(0.0, f64::max);
    PipelineRun {
        name: script.name,
        records,
        wall: last - first,
        depth: script.depth(),
        stream: rendered(&frames),
    }
}

/// The byte-identity artifact: the merged stream, labels and all.
fn rendered(frames: &[ClusterFrame]) -> String {
    frames
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

impl PipelinesResult {
    pub fn run_named(&self, name: &str) -> &PipelineRun {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .expect("known pipeline")
    }

    pub fn report(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            let mut t = TableReport::new(
                format!("{} (depth {}, wall {:.3}s)", run.name, run.depth, run.wall),
                &["stage", "node", "start (s)", "end (s)", "dur (s)"],
            );
            for r in &run.records {
                t.row(vec![
                    r.tag.clone(),
                    format!("node-{}", r.machine),
                    format!("{:.3}", r.start),
                    format!("{:.3}", r.end),
                    format!("{:.3}", r.end - r.start),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}
