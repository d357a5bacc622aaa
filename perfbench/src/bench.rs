//! One benchmark run: repeat reps of a workload for the time budget, check
//! every output, and reduce the reps to the named metrics (medians).

use std::time::Instant;

use crate::clock::peak_rss_mib;
use crate::workloads::{run_rep, setup_only, Rep, Sizes, Workload, RUN};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_speed", "s/s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("machine.epochs", "count"),
    ("machine.l3_accesses", "count"),
    ("machine.l3_miss_ratio", "ratio"),
    ("kernel.advance_s", "s"),
    ("kernel.advance_cpu_s", "s"),
    ("kernel.ns_per_epoch", "ns"),
    ("collector.observes", "count"),
    ("collector.rows", "count"),
    ("collector.observe_s", "s"),
    ("collector.ns_per_row", "ns"),
    ("cluster.sink_calls", "count"),
    ("cluster.frames_per_batch", "frames/call"),
    ("cluster.sink_s", "s"),
    ("cluster.rounds", "count"),
    ("cluster.wait_s", "s"),
    ("cluster.driver_cpu_s", "s"),
    ("reactive.observes", "count"),
    ("reactive.observe_s", "s"),
    ("reactive.decisions", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Fewest untraced reps a benchmark run makes, however short its budget.
pub const MIN_REPS: usize = 3;

/// Set-up-only samples one process takes: at least the first, at most
/// the second, and more than the first only within the budget.
const SETUP_SAMPLES: (usize, usize) = (3, 1000);
const SETUP_BUDGET_S: f64 = 0.1;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget: reps repeat until the next would overrun it.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub threads: usize,
    /// The digest recorded for this seed, when there is one.
    pub golden: Option<u64>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
    /// `(name, value, unit)`, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub reps: usize,
    /// The run's output digest (identical in every rep when correct).
    pub digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median set-up time of `w` in this process. Set-up is cheap next
/// to a run, so it is sampled many times on its own.
pub fn setup_median(w: Workload, sizes: &Sizes, seed: u64) -> f64 {
    let mut setups = Vec::new();
    let t = Instant::now();
    while setups.len() < SETUP_SAMPLES.1
        && (setups.len() < SETUP_SAMPLES.0 || t.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        setups.push(setup_only(w, sizes, seed));
    }
    median(setups)
}

/// Repeat reps for the budget (each traced rep right after an untraced
/// one, so both see the same host conditions), check, and reduce.
/// Untraced, `setup` is sampled before every rep (see [`setup_median`]),
/// so `setup_s` spans the whole run rather than one moment of it.
pub fn run(cfg: &Config, setup: &mut dyn FnMut() -> f64) -> Outcome {
    let start = Instant::now();
    let mut setups = Vec::new();
    // Peak memory of the first rep, set-up included: later reps could only
    // raise it through allocator reuse, so it would grow with the rep count.
    let mut peak_rss = 0.0;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let rep = |traced| run_rep(cfg.workload, &cfg.sizes, cfg.seed, cfg.threads, traced);
    loop {
        if !cfg.trace {
            setups.push(setup());
        }
        plain.push(rep(false));
        if plain.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        if cfg.trace {
            traced.push(rep(true));
        }
        for r in plain.last().into_iter().chain(traced.last()) {
            eprintln!(
                "rep{}: setup {:.6} s, wall {:.4} s, cpu {:.4} s",
                if r.traced.is_some() { " (traced)" } else { "" },
                r.setup_s,
                r.wall_s,
                r.cpu_s
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / plain.len() as f64;
        if plain.len() >= MIN_REPS && elapsed + per_rep > cfg.seconds {
            break;
        }
    }

    // Every rep must reproduce the first one's output, the recorded
    // golden, and — traced or not — the same simulated counts.
    let reference = plain[0].outputs();
    for rep in plain.iter_mut().chain(traced.iter_mut()) {
        if let Some(g) = cfg.golden {
            if rep.digest != g {
                rep.fail(
                    RUN,
                    format!("digest {:016x} != recorded {g:016x}", rep.digest),
                );
            }
        }
        if rep.outputs() != reference {
            rep.fail(
                RUN,
                "output or simulated counts differ between reps".into(),
            );
        }
    }
    let all = || plain.iter().chain(traced.iter());
    let attempted: u64 = all().map(|r| r.units).sum();
    let failed: u64 = all().map(Rep::failed_units).sum();
    let failures: Vec<String> = all()
        .flat_map(|r| {
            r.failures
                .iter()
                .map(|(unit, why)| format!("{unit}: {why}"))
        })
        .collect();

    let metrics = if cfg.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, setups, peak_rss, attempted, failed)
    };
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        reps: plain.len() + traced.len(),
        digest: reference.0,
    }
}

fn end_to_end(
    reps: &[Rep],
    setups: Vec<f64>,
    peak_rss: f64,
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    let values = [
        median(setups),
        med(&|r| r.wall_s),
        med(&|r| r.cpu_s),
        med(&|r| ratio(r.sim_machine_s, r.wall_s)),
        med(&|r| ratio(r.frames as f64, r.wall_s)),
        peak_rss,
        1.0 - ratio(failed as f64, attempted as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// The layer split of one traced rep (see `trace` for the identities).
struct Layers {
    advance_cpu: f64,
    advance: f64,
    collector_cpu: f64,
    driver_cpu: f64,
    wait: f64,
}

fn layers(r: &Rep) -> Layers {
    let t = r.traced.expect("a traced rep");
    let m = &t.monitors;
    let spans_cpu = m.observe.cpu + m.attach.cpu + m.policy.cpu + t.sink.cpu;
    let spans_driver =
        m.observe.driver_cpu + m.attach.driver_cpu + m.policy.driver_cpu + t.sink.driver_cpu;
    let advance_cpu = (r.cpu_s - r.driver_thread_cpu_s - (spans_cpu - spans_driver)).max(0.0);
    Layers {
        advance_cpu,
        advance: advance_cpu + m.advance_wait,
        collector_cpu: m.observe.cpu + m.attach.cpu,
        driver_cpu: (r.driver_thread_cpu_s - spans_driver).max(0.0),
        wait: (r.wall_s - r.driver_thread_cpu_s).max(0.0),
    }
}

fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(traced.iter().map(f).collect());
    let lay = |f: &dyn Fn(&Layers) -> f64| median(traced.iter().map(|r| f(&layers(r))).collect());
    let mon = |r: &Rep| r.traced.expect("a traced rep").monitors;
    let sink = |r: &Rep| r.traced.expect("a traced rep").sink;
    // Counts repeat exactly across reps (checked above); take the first.
    let first = &traced[0];
    let l3 = (first.l3_hits + first.l3_misses) as f64;
    let plain_wall = median(plain.iter().map(|r| r.wall_s).collect());
    let traced_wall = med(&|r| r.wall_s);
    let values = [
        first.epochs as f64,
        l3,
        ratio(first.l3_misses as f64, l3),
        lay(&|l| l.advance),
        lay(&|l| l.advance_cpu),
        lay(&|l| 1e9 * l.advance_cpu) / first.epochs.max(1) as f64,
        mon(first).observe.calls as f64,
        mon(first).rows as f64,
        med(&|r| mon(r).observe.wall),
        med(&|r| 1e9 * ratio(mon(r).observe.cpu, mon(r).rows as f64)),
        first.sink_calls as f64,
        ratio(first.frames as f64, first.sink_calls as f64),
        med(&|r| sink(r).wall),
        first.rounds as f64,
        lay(&|l| l.wait),
        lay(&|l| l.driver_cpu),
        mon(first).policy.calls as f64,
        med(&|r| mon(r).policy.wall),
        mon(first).decisions as f64,
        ratio(traced_wall - plain_wall, plain_wall),
    ];
    // The hot-layer split, as evidence beside the metrics: each layer's
    // CPU over the traced reps' `cpu_s` (the layers sum to it).
    eprintln!(
        "layer CPU shares: kernel advance {:.3}, collector {:.3}, cluster {:.3}",
        med(&|r| ratio(layers(r).advance_cpu, r.cpu_s)),
        med(&|r| ratio(layers(r).collector_cpu, r.cpu_s)),
        med(&|r| ratio(sink(r).cpu + layers(r).driver_cpu, r.cpu_s)),
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}
