//! The Pin baseline.
//!
//! [`PinInscount`] is a Pin-style `inscount2` run: instrument the program,
//! run it to completion ~1.7× slower, and report the *exact* retired
//! instruction count. §2.4 validates tiptop against this (within 0.06%);
//! §2.5 contrasts its 1.7× overhead with tiptop's ~0.7%. It implements
//! [`crate::monitor::Monitor`], so it can be driven side-by-side with
//! tiptop through one [`crate::scenario::Session`].
//!
//! The other baseline, plain `top`, is not a tool of its own: it is
//! [`crate::app::Tiptop`] on [`crate::config::ScreenConfig::top_screen`],
//! a screen that reads no counters.

use std::collections::BTreeMap;

use tiptop_kernel::kernel::KernelConfig;
use tiptop_kernel::program::Program;
use tiptop_kernel::task::{Pid, SpawnSpec, Uid};
use tiptop_machine::time::{SimDuration, SimTime};

use crate::scenario::{Scenario, SessionError};

/// Report of a Pin-style instrumented run.
#[derive(Clone, Debug, PartialEq)]
pub struct PinReport {
    /// Exact retired instruction count (what `inscount2` prints).
    pub instructions: u64,
    /// Wall time of the *uninstrumented* program.
    pub native_wall: SimDuration,
    /// Wall time with instrumentation (≈1.7× slower, §2.5).
    pub instrumented_wall: SimDuration,
}

impl PinReport {
    pub fn slowdown(&self) -> f64 {
        self.instrumented_wall.as_secs_f64() / self.native_wall.as_secs_f64().max(1e-12)
    }
}

/// Pin-style exact instruction counting.
///
/// Instrumentation inserts a counting stub at every basic block: the
/// instrumented binary retires more instructions and runs ~1.7× slower, but
/// the reported count is of *original* instructions — exact by
/// construction. Two modes:
///
/// * [`PinInscount::try_run`] — the §2.4/§2.5 batch shape: run one
///   program to completion in a dedicated kernel and charge the measured
///   1.7× on wall time.
/// * as a [`crate::monitor::Monitor`] — sample exact per-task counts inside
///   a live [`crate::scenario::Session`], for cross-checks against tiptop's
///   sampled counters.
pub struct PinInscount {
    /// The §2.5 measurement: "The suite run with inscount2 ... is 1.7×
    /// slower."
    pub slowdown_factor: f64,
    /// Sampling period when driven as a monitor.
    pub(crate) sample_every: SimDuration,
    /// Monitor-mode state: retired-instruction count per task at attach
    /// time (counts before attach are not Pin's).
    pub(crate) baselines: BTreeMap<Pid, u64>,
    /// Monitor-mode state: exited tasks whose final count has already been
    /// emitted (or that died before attach and were never instrumented).
    pub(crate) reported: std::collections::BTreeSet<Pid>,
}

impl Default for PinInscount {
    fn default() -> Self {
        Self::new(1.7)
    }
}

impl PinInscount {
    pub fn new(slowdown_factor: f64) -> Self {
        PinInscount {
            slowdown_factor,
            sample_every: SimDuration::from_secs(1),
            baselines: BTreeMap::new(),
            reported: std::collections::BTreeSet::new(),
        }
    }

    /// Set the monitor-mode sampling period (defaults to 1 s).
    pub fn sample_every(mut self, d: SimDuration) -> Self {
        self.sample_every = d;
        self
    }

    /// Run `program` to completion under instrumentation and report the
    /// exact instruction count.
    ///
    /// # Errors
    /// [`SessionError::Timeout`] if the program does not finish within
    /// `timeout` of simulated time (looping programs never finish).
    pub fn try_run(
        &self,
        kcfg: KernelConfig,
        program: Program,
        seed: u64,
        timeout: SimDuration,
    ) -> Result<PinReport, SessionError> {
        const COMM: &str = "inscount-target";
        let mut session = Scenario::from_kernel_config(kcfg)
            .spawn(COMM, SpawnSpec::new(COMM, Uid(1), program).seed(seed))
            .build()?;
        let pid = session.pid(COMM).expect("spawned at t=0");
        let step = SimDuration::from_millis(200);
        let deadline = SimTime::ZERO + timeout;
        while session.kernel().is_alive(pid) {
            if session.now() >= deadline {
                return Err(SessionError::Timeout {
                    limit: timeout,
                    waiting_for: format!("{COMM} exit"),
                });
            }
            session.advance(step)?;
        }
        let rec = session
            .kernel()
            .exit_record(pid)
            .expect("exited task has a record");
        let native = rec.end_time - rec.start_time;
        Ok(PinReport {
            instructions: rec.total_instructions,
            native_wall: native,
            instrumented_wall: SimDuration::from_secs_f64(
                native.as_secs_f64() * self.slowdown_factor,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Tiptop, TiptopOptions};
    use crate::config::ScreenConfig;
    use tiptop_kernel::kernel::Kernel;
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;

    fn kcfg() -> KernelConfig {
        KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(11)
    }

    fn short_program(insns: u64) -> Program {
        Program::single(
            ExecProfile::builder("short")
                .base_cpi(0.8)
                .branches(0.18, 0.0)
                .memory(MemoryBehavior::uniform(16 * 1024))
                .build(),
            insns,
        )
    }

    #[test]
    fn top_view_shows_cpu_but_nothing_else() {
        let mut k = Kernel::new(kcfg());
        k.add_user(Uid(1), "user1");
        let pid = k.spawn(SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(ExecProfile::builder("x").build()),
        ));
        let mut top = Tiptop::new(TiptopOptions::default(), ScreenConfig::top_screen());
        top.refresh(&mut k);
        k.advance(SimDuration::from_secs(1));
        let rows = top.refresh(&mut k).rows;
        assert_eq!(rows[0].pid, pid);
        assert!(rows[0].cpu_pct > 99.0);
        assert_eq!(rows[0].user, "user1");
    }

    #[test]
    fn pin_reports_exact_count_and_1_7x_wall() {
        let report = PinInscount::default()
            .try_run(
                kcfg(),
                short_program(500_000_000),
                3,
                SimDuration::from_secs(60),
            )
            .expect("the program finishes well within the timeout");
        // The program retires at least its requested instructions; slice
        // rounding may add a sliver within the final epoch.
        assert!(report.instructions >= 500_000_000);
        assert!(report.instructions < 505_000_000);
        assert!((report.slowdown() - 1.7).abs() < 1e-6);
        assert!(report.instrumented_wall > report.native_wall);
    }

    #[test]
    fn pin_try_run_returns_typed_timeout() {
        let err = PinInscount::default()
            .try_run(
                kcfg(),
                Program::endless(ExecProfile::builder("x").build()),
                0,
                SimDuration::from_millis(600),
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Timeout { .. }), "got {err:?}");
    }
}
