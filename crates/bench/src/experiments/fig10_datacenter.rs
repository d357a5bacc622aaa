//! **Figure 10** — cross-job interference on a production data-center
//! node: user1's two long-running simulations are alone on the bi-Xeon
//! E5640 until user2's five batch jobs arrive together. The victims'
//! `%CPU` never leaves ~100 — `top` shows nothing — but their IPC drops by
//! a double-digit percentage for the duration of the burst, because the
//! newcomers' working sets overflow the sockets' shared L3s. When the
//! batch jobs finish, the victims recover. The interference is not
//! scripted: it emerges from the cache model.

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterScenario, MachineRef, Until};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_core::session::series_for_comm;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{fig10_script, users};

use crate::report::{ascii_plot, Series, TableReport};

/// One victim job's view of the burst.
pub struct VictimSeries {
    pub comm: String,
    pub ipc: Series,
    pub cpu: Series,
    pub dmis: Series,
}

pub struct Fig10Result {
    /// When user2's jobs arrived (simulated seconds).
    pub arrival: f64,
    /// When the last of user2's jobs exited (measured, not scripted).
    pub burst_end: f64,
    pub victims: Vec<VictimSeries>,
    pub frames: Vec<Frame>,
}

/// Replay the Figure 10 script. `scale` compresses time (1.0 = the paper's
/// ~1 h burst; tests use ~0.01 for a ~40 s one).
///
/// The node is driven as a one-machine
/// [`ClusterSession`](tiptop_core::cluster::ClusterSession) — the same
/// streaming/merge path the multi-machine experiments use, so the
/// data-center scenario composes with any fleet (Fig 1's snapshot node and
/// this burst node can co-run in one cluster).
pub fn run(seed: u64, scale: f64) -> Fig10Result {
    const DELAY_S: f64 = 2.0;
    /// Recovery frames observed after the last batch job leaves.
    const RECOVERY_FRAMES: usize = 8;

    let script = fig10_script(scale);
    let arrival = script.arrival.as_secs_f64();

    // The warm working sets are large; oversample the cache hierarchy so
    // the victims' tiers settle into the L3 well before the burst arrives.
    let machine = MachineConfig::datacenter_e5640()
        .noiseless()
        .with_samples(4096);
    let mut scenario = Scenario::new(machine).seed(seed);
    for (uid, name) in users() {
        scenario = scenario.user(uid, name);
    }
    for job in script.jobs {
        let tag = job.comm.clone();
        scenario = scenario.spawn_at(
            SimTime::ZERO + job.start,
            tag,
            SpawnSpec::new(job.comm, job.uid, job.program).seed(job.seed),
        );
    }
    let mut cluster = ClusterScenario::new()
        .machine("dc-node", scenario)
        .build()
        .expect("job tags are unique");

    // Run until the burst has come and gone, then watch the victims recover
    // for RECOVERY_FRAMES more refreshes — all in one streamed pass.
    let mut frames: Vec<Frame> = Vec::new();
    {
        let mut sink = |cf: tiptop_core::cluster::ClusterFrame| frames.push(cf.frame);
        let tools = |_: MachineRef<'_>| {
            let tool = Tiptop::new(
                TiptopOptions::default()
                    .observer(Uid::ROOT)
                    .delay(SimDuration::from_secs_f64(DELAY_S)),
                ScreenConfig::default_screen(),
            );
            let mut stop_at: Option<f64> = None;
            let until: Until = Box::new(move |f: &Frame| {
                let t = f.time.as_secs_f64();
                if stop_at.is_none()
                    && t > arrival + DELAY_S
                    && !f.rows.iter().any(|r| r.user == "user2")
                {
                    stop_at = Some(t + RECOVERY_FRAMES as f64 * DELAY_S);
                }
                stop_at.is_some_and(|end| t >= end)
            });
            vec![(Box::new(tool) as Box<dyn Monitor + Send>, Some(until))]
        };
        cluster
            .run(1, 1_000_000, tools, &mut [], &mut sink)
            .expect("cluster run");
    }
    let burst_end = frames
        .iter()
        .rev()
        .find(|f| f.rows.iter().any(|r| r.user == "user2"))
        .map(|f| f.time.as_secs_f64())
        .unwrap_or(arrival);

    let victims = ["sim-fluid", "sim-grid"]
        .into_iter()
        .map(|comm| VictimSeries {
            comm: comm.to_string(),
            ipc: Series::new(format!("{comm} IPC"), series_for_comm(&frames, comm, "IPC")),
            cpu: Series::new(
                format!("{comm} %CPU"),
                series_for_comm(&frames, comm, "%CPU"),
            ),
            dmis: Series::new(
                format!("{comm} DMIS"),
                series_for_comm(&frames, comm, "DMIS"),
            ),
        })
        .collect();

    Fig10Result {
        arrival,
        burst_end,
        victims,
        frames,
    }
}

impl Fig10Result {
    pub fn victim(&self, comm: &str) -> &VictimSeries {
        self.victims
            .iter()
            .find(|v| v.comm == comm)
            .expect("known victim")
    }

    /// The three measurement windows: the warm stretch before the burst,
    /// the middle of the burst, and after the last batch job left. The
    /// burst window uses fractional margins so it stays non-empty for any
    /// time scale.
    pub fn windows(&self) -> [(f64, f64); 3] {
        let len = (self.burst_end - self.arrival).max(0.0);
        [
            (self.arrival * 0.5, self.arrival),
            (self.arrival + 0.1 * len, self.burst_end - 0.05 * len),
            (self.burst_end + 4.0, f64::INFINITY),
        ]
    }

    pub fn report(&self) -> String {
        let curves: Vec<Series> = self.victims.iter().map(|v| v.ipc.clone()).collect();
        let mut out = ascii_plot(
            &format!(
                "Figure 10: victim IPC (burst arrives t={:.0}s, ends t={:.0}s)",
                self.arrival, self.burst_end
            ),
            &curves,
            72,
            12,
        );
        let [before, during, after] = self.windows();
        let mut t = TableReport::new(
            "victim means per window",
            &[
                "job",
                "IPC before",
                "IPC during",
                "IPC after",
                "%CPU during",
                "DMIS before",
                "DMIS during",
            ],
        );
        for v in &self.victims {
            t.row(vec![
                v.comm.clone(),
                format!("{:.2}", v.ipc.mean_in(before.0, before.1)),
                format!("{:.2}", v.ipc.mean_in(during.0, during.1)),
                format!("{:.2}", v.ipc.mean_in(after.0, after.1)),
                format!("{:.1}", v.cpu.mean_in(during.0, during.1)),
                format!("{:.2}", v.dmis.mean_in(before.0, before.1)),
                format!("{:.2}", v.dmis.mean_in(during.0, during.1)),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
