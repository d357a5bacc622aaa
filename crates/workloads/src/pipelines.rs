//! Dependency-driven pipeline workloads: multi-stage job scripts wired by
//! *after-exit* edges instead of wall-clock instants.
//!
//! The paper's data-center node (Figs 1, 10) runs jobs submitted through a
//! grid scheduler; real grid submissions are rarely independent — an ETL
//! load waits for its transform, a build farm's compile units wait for
//! `configure`, a shuffle stage waits for its mapper. This module describes
//! such workloads as [`PipelineScript`]s: a list of [`Stage`]s, each either
//! a *root* (submitted at a scripted instant) or *dependent* (submitted a
//! fixed delay after another stage's exit). The bench layer turns a script
//! into a cluster scenario by mapping roots to `spawn_at` and edges to
//! `spawn_after` — which machine resolves each edge (locally or through the
//! cluster's round driver) is decided there, not here.
//!
//! Three fixed shapes cover the classic topologies — [`etl_chain`] (a
//! linear chain), [`build_farm`] (fan-out), [`map_shuffle`] (fan-out then
//! fan-in) — and [`random_dag`] generates seeded random DAGs for property
//! tests: same seed, same script, byte for byte.

use tiptop_kernel::program::Program;
use tiptop_kernel::task::Uid;
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::SimDuration;

/// The grid user submitting the pipelines.
pub const PIPELINE_USER: Uid = Uid(1004);

/// One pipeline stage: a finite job plus how it is submitted — at a
/// scripted instant (root) or a delay after another stage exits.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Unique tag (also the comm).
    pub tag: String,
    /// Index of the machine the stage runs on.
    pub machine: usize,
    /// `Some((dep, delay))` submits the stage `delay` after `dep` exits;
    /// `None` submits it at [`Stage::start`].
    pub dep: Option<(String, SimDuration)>,
    /// Submission instant for roots (ignored for dependent stages).
    pub start: SimDuration,
    pub program: Program,
    pub seed: u64,
}

/// A dependency-driven workload: stages spanning `machines` machines.
#[derive(Clone, Debug)]
pub struct PipelineScript {
    pub name: &'static str,
    /// How many machines the stages span (stage `machine` indices are all
    /// below this).
    pub machines: usize,
    /// Stages in declaration order. Dependencies always point to earlier
    /// stages, so the script is acyclic by construction.
    pub stages: Vec<Stage>,
}

impl PipelineScript {
    /// The stages with no dependency, in declaration order.
    pub fn roots(&self) -> impl Iterator<Item = &Stage> {
        self.stages.iter().filter(|s| s.dep.is_none())
    }

    /// The length of the longest dependency chain, in stages.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.stages.len()];
        for i in 0..self.stages.len() {
            depth[i] = match &self.stages[i].dep {
                None => 1,
                Some((dep, _)) => {
                    let d = self
                        .stages
                        .iter()
                        .position(|s| &s.tag == dep)
                        .expect("dependencies point to earlier stages");
                    depth[d] + 1
                }
            };
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// A compute-bound stage profile; `cpi` sets how hard the stage works per
/// instruction so stages of one pipeline finish at different rates.
fn stage_profile(name: &str, cpi: f64) -> ExecProfile {
    ExecProfile::builder(name)
        .base_cpi(cpi)
        .branches(0.16, 0.01)
        .memory(MemoryBehavior::uniform(24 * 1024))
        .build()
}

fn stage(
    tag: impl Into<String>,
    machine: usize,
    dep: Option<(&str, SimDuration)>,
    cpi: f64,
    insns: u64,
    seed: u64,
) -> Stage {
    let tag = tag.into();
    Stage {
        program: Program::single(stage_profile(&tag, cpi), insns),
        tag,
        machine,
        dep: dep.map(|(d, delay)| (d.to_string(), delay)),
        start: SimDuration::ZERO,
        seed,
    }
}

/// Instructions for a stage meant to run roughly `seconds` (scaled) on a
/// ~3 GHz machine at the given CPI.
fn insns_for(seconds: f64, cpi: f64, scale: f64) -> u64 {
    ((seconds * scale.max(0.01) * 3.0e9) / cpi).max(1.0) as u64
}

/// A linear ETL chain across three machines: `extract` → `transform` →
/// `load` → `report`, each stage submitted 50 ms after its predecessor
/// exits. `scale` compresses the stages' work, not the submission gaps —
/// those stay above the 20 ms scheduler epoch so every firing instant is
/// exact at any scale. The wall-clock of the whole chain *is* its critical
/// path — there is no parallelism to hide behind.
pub fn etl_chain(scale: f64) -> PipelineScript {
    let gap = SimDuration::from_millis(50);
    PipelineScript {
        name: "etl-chain",
        machines: 3,
        stages: vec![
            stage("extract", 0, None, 0.8, insns_for(0.5, 0.8, scale), 41),
            stage(
                "transform",
                1,
                Some(("extract", gap)),
                1.0,
                insns_for(0.7, 1.0, scale),
                42,
            ),
            stage(
                "load",
                2,
                Some(("transform", gap)),
                0.9,
                insns_for(0.4, 0.9, scale),
                43,
            ),
            stage(
                "report",
                0,
                Some(("load", gap)),
                1.1,
                insns_for(0.2, 1.1, scale),
                44,
            ),
        ],
    }
}

/// A build farm: one `configure` root fans out to `units` compile stages,
/// round-robined across three machines, each submitted a staggered delay
/// after `configure` exits. Wall-clock is configure plus the slowest
/// compile — the fan-out runs concurrently.
pub fn build_farm(scale: f64, units: usize) -> PipelineScript {
    let mut stages = vec![stage(
        "configure",
        0,
        None,
        0.9,
        insns_for(0.3, 0.9, scale),
        50,
    )];
    for i in 0..units {
        let delay = SimDuration::from_millis(30 + 10 * i as u64);
        // Uneven unit sizes: the slowest compile sets the farm's wall-clock.
        let work = 0.4 + 0.15 * (i % 3) as f64;
        stages.push(Stage {
            tag: format!("compile-{i}"),
            machine: i % 3,
            dep: Some(("configure".to_string(), delay)),
            start: SimDuration::ZERO,
            program: Program::single(
                stage_profile(&format!("compile-{i}"), 1.0),
                insns_for(work, 1.0, scale),
            ),
            seed: 60 + i as u64,
        });
    }
    PipelineScript {
        name: "build-farm",
        machines: 3,
        stages,
    }
}

/// A map-shuffle round across three machines: `extract` on machine 0 fans
/// out to one mapper per other machine, and each mapper's output shuffles
/// *back* to machine 0 as a sort stage — fan-out then fan-in, every edge
/// crossing machines.
pub fn map_shuffle(scale: f64) -> PipelineScript {
    let scale = scale.max(0.01);
    let d = |ms: u64| SimDuration::from_millis(ms);
    let mut stages = vec![stage(
        "extract",
        0,
        None,
        0.8,
        insns_for(0.5, 0.8, scale),
        70,
    )];
    for (i, (work, delay)) in [(0.6, 40u64), (0.8, 60u64)].into_iter().enumerate() {
        stages.push(Stage {
            tag: format!("map-{i}"),
            machine: 1 + i,
            dep: Some(("extract".to_string(), d(delay))),
            start: SimDuration::ZERO,
            program: Program::single(
                stage_profile(&format!("map-{i}"), 1.0),
                insns_for(work, 1.0, scale),
            ),
            seed: 80 + i as u64,
        });
        stages.push(Stage {
            tag: format!("sort-{i}"),
            machine: 0,
            dep: Some((format!("map-{i}"), d(30))),
            start: SimDuration::ZERO,
            program: Program::single(
                stage_profile(&format!("sort-{i}"), 0.9),
                insns_for(0.3, 0.9, scale),
            ),
            seed: 90 + i as u64,
        });
    }
    PipelineScript {
        name: "map-shuffle",
        machines: 3,
        stages,
    }
}

/// A tiny deterministic xorshift64* stream for [`random_dag`]: no external
/// RNG crates, identical sequences on every platform.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded random pipeline DAG: `stages` stages across `machines`
/// machines. Stage 0 is always a root; each later stage flips between
/// being another root (staggered start) and depending on a uniformly
/// random earlier stage — so dependencies always point backwards and the
/// script is acyclic by construction. Delays are at least 25 ms (above the
/// 20 ms scheduler epoch, so firing instants are exact) and everything —
/// topology, delays, sizes, placements — is a pure function of `seed`.
pub fn random_dag(seed: u64, stages: usize, machines: usize) -> PipelineScript {
    assert!(stages > 0, "a DAG needs at least one stage");
    assert!(machines > 0, "a DAG needs at least one machine");
    let mut rng = Rng::new(seed);
    let mut out: Vec<Stage> = Vec::with_capacity(stages);
    for i in 0..stages {
        let tag = format!("stage-{i}");
        let machine = rng.below(machines as u64) as usize;
        // ~1 in 4 later stages are extra roots; the rest hang off an
        // earlier stage.
        let dep = if i > 0 && rng.below(4) != 0 {
            let d = rng.below(i as u64) as usize;
            let delay = SimDuration::from_millis(25 + rng.below(200));
            Some((format!("stage-{d}"), delay))
        } else {
            None
        };
        let start = SimDuration::from_millis(rng.below(300));
        let cpi = 0.7 + 0.1 * rng.below(7) as f64;
        let insns = 5_000_000 + rng.below(60) * 1_000_000;
        out.push(Stage {
            program: Program::single(stage_profile(&tag, cpi), insns),
            tag,
            machine,
            dep,
            start,
            seed: seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        });
    }
    PipelineScript {
        name: "random-dag",
        machines,
        stages: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etl_chain_is_linear_across_three_machines() {
        let s = etl_chain(0.1);
        assert_eq!(s.stages.len(), 4);
        assert_eq!(s.depth(), 4, "a chain's depth is its length");
        assert_eq!(s.roots().count(), 1);
        // Every dependency points at the previous stage.
        for w in s.stages.windows(2) {
            assert_eq!(w[1].dep.as_ref().unwrap().0, w[0].tag);
        }
        assert!(s.stages.iter().any(|st| st.machine == 1));
        assert!(s.stages.iter().any(|st| st.machine == 2));
    }

    #[test]
    fn build_farm_fans_out_from_configure() {
        let s = build_farm(0.1, 6);
        assert_eq!(s.stages.len(), 7);
        assert_eq!(s.depth(), 2, "fan-out is one level deep");
        for unit in &s.stages[1..] {
            assert_eq!(unit.dep.as_ref().unwrap().0, "configure");
        }
        // The fan-out spans all three machines.
        let mut machines: Vec<usize> = s.stages[1..].iter().map(|st| st.machine).collect();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(machines, vec![0, 1, 2]);
    }

    #[test]
    fn map_shuffle_fans_out_and_back_in() {
        let s = map_shuffle(0.1);
        assert_eq!(s.depth(), 3, "extract → map → sort");
        // The mappers run off machine 0; every sort lands back on it.
        for st in s.stages.iter().filter(|st| st.tag.starts_with("map-")) {
            assert_ne!(st.machine, 0);
            assert_eq!(st.dep.as_ref().unwrap().0, "extract");
        }
        for st in s.stages.iter().filter(|st| st.tag.starts_with("sort-")) {
            assert_eq!(st.machine, 0);
            assert!(st.dep.as_ref().unwrap().0.starts_with("map-"));
        }
    }

    #[test]
    fn random_dag_is_a_pure_function_of_its_seed() {
        let a = random_dag(12345, 12, 4);
        let b = random_dag(12345, 12, 4);
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.tag, y.tag);
            assert_eq!(x.machine, y.machine);
            assert_eq!(x.dep, y.dep);
            assert_eq!(x.start, y.start);
            assert_eq!(x.seed, y.seed);
        }
        let c = random_dag(54321, 12, 4);
        assert!(
            a.stages
                .iter()
                .zip(&c.stages)
                .any(|(x, y)| x.machine != y.machine || x.dep != y.dep || x.start != y.start),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn random_dag_edges_point_backwards_with_epoch_safe_delays() {
        for seed in 0..50 {
            let s = random_dag(seed, 10, 3);
            for (i, st) in s.stages.iter().enumerate() {
                assert!(st.machine < s.machines);
                if let Some((dep, delay)) = &st.dep {
                    let d: usize = dep
                        .strip_prefix("stage-")
                        .and_then(|n| n.parse().ok())
                        .unwrap();
                    assert!(d < i, "dependencies must point backwards");
                    assert!(
                        *delay >= SimDuration::from_millis(25),
                        "delays stay above the scheduler epoch"
                    );
                }
            }
            assert!(s.roots().count() >= 1);
        }
    }
}
