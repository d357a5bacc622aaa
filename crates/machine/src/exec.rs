//! Task execution profiles and slice outcomes.
//!
//! An [`ExecProfile`] is the machine-facing description of *what kind of
//! code* a task is currently executing: instruction mix, branch behaviour,
//! floating-point operand classes, and memory behaviour. Workload crates
//! build programs as sequences of profiles (phases); the machine turns a
//! profile plus a cycle budget into retired instructions and event counts.

use crate::access::MemoryBehavior;
use crate::pmu::EventCounts;

/// Which FP instruction unit the code uses — on Nehalem this decides whether
/// non-finite operands trigger the micro-code assist (x87 does, SSE does
/// not), the crux of the paper's §3.1 / Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpUnit {
    X87,
    Sse,
    /// Non-x86 or mixed FP code (PowerPC, generic): behaves like SSE with
    /// respect to assists.
    Generic,
}

/// Machine-facing description of a task's current code behaviour.
///
/// All `*_per_insn` rates are fractions of retired instructions; operand
/// class fractions (`nonfinite_frac`, `denormal_frac`) are fractions of FP
/// operations.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecProfile {
    pub name: String,
    /// CPI with a perfect memory system and no mispredictions/assists.
    /// Clamped below at the machine's `1/issue_width`.
    pub base_cpi: f64,
    pub mem: MemoryBehavior,
    pub loads_per_insn: f64,
    pub stores_per_insn: f64,
    pub branches_per_insn: f64,
    /// Misprediction probability per branch.
    pub branch_miss_rate: f64,
    pub fp_per_insn: f64,
    pub fp_unit: FpUnit,
    /// Fraction of FP operations whose operands are Inf/NaN.
    pub nonfinite_frac: f64,
    /// Fraction of FP operations on denormal operands.
    pub denormal_frac: f64,
    /// Memory-level parallelism: how many misses overlap. Penalties are
    /// divided by this (1.0 = fully serialized pointer chasing, 4+ =
    /// streaming prefetch-friendly code).
    pub mlp: f64,
}

impl ExecProfile {
    pub fn builder(name: impl Into<String>) -> ExecProfileBuilder {
        ExecProfileBuilder::new(name)
    }

    /// Memory accesses (loads + stores) per instruction.
    pub fn accesses_per_insn(&self) -> f64 {
        self.loads_per_insn + self.stores_per_insn
    }

    /// Check all rates are sane probabilities/rates.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("base_cpi", self.base_cpi, 0.01, 1000.0),
            ("loads_per_insn", self.loads_per_insn, 0.0, 1.0),
            ("stores_per_insn", self.stores_per_insn, 0.0, 1.0),
            ("branches_per_insn", self.branches_per_insn, 0.0, 1.0),
            ("branch_miss_rate", self.branch_miss_rate, 0.0, 1.0),
            ("fp_per_insn", self.fp_per_insn, 0.0, 1.0),
            ("nonfinite_frac", self.nonfinite_frac, 0.0, 1.0),
            ("denormal_frac", self.denormal_frac, 0.0, 1.0),
            ("mlp", self.mlp, 0.25, 64.0),
        ];
        for (what, v, lo, hi) in checks {
            if !(lo..=hi).contains(&v) || !v.is_finite() {
                return Err(format!("{what} = {v} outside [{lo}, {hi}]"));
            }
        }
        if self.nonfinite_frac + self.denormal_frac > 1.0 {
            return Err("operand class fractions exceed 1".to_string());
        }
        Ok(())
    }
}

/// Builder for [`ExecProfile`] with sensible integer-code defaults.
#[derive(Clone, Debug)]
pub struct ExecProfileBuilder {
    p: ExecProfile,
}

impl ExecProfileBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ExecProfileBuilder {
            p: ExecProfile {
                name: name.into(),
                base_cpi: 0.7,
                mem: MemoryBehavior::uniform(64 * 1024),
                loads_per_insn: 0.25,
                stores_per_insn: 0.1,
                branches_per_insn: 0.18,
                branch_miss_rate: 0.02,
                fp_per_insn: 0.0,
                fp_unit: FpUnit::Generic,
                nonfinite_frac: 0.0,
                denormal_frac: 0.0,
                mlp: 2.0,
            },
        }
    }

    pub fn base_cpi(mut self, v: f64) -> Self {
        self.p.base_cpi = v;
        self
    }

    pub fn memory(mut self, mem: MemoryBehavior) -> Self {
        self.p.mem = mem;
        self
    }

    pub fn loads_per_insn(mut self, v: f64) -> Self {
        self.p.loads_per_insn = v;
        self
    }

    pub fn stores_per_insn(mut self, v: f64) -> Self {
        self.p.stores_per_insn = v;
        self
    }

    pub fn branches(mut self, per_insn: f64, miss_rate: f64) -> Self {
        self.p.branches_per_insn = per_insn;
        self.p.branch_miss_rate = miss_rate;
        self
    }

    pub fn fp(mut self, per_insn: f64, unit: FpUnit) -> Self {
        self.p.fp_per_insn = per_insn;
        self.p.fp_unit = unit;
        self
    }

    pub fn operand_classes(mut self, nonfinite: f64, denormal: f64) -> Self {
        self.p.nonfinite_frac = nonfinite;
        self.p.denormal_frac = denormal;
        self
    }

    pub fn mlp(mut self, v: f64) -> Self {
        self.p.mlp = v;
        self
    }

    /// Finish; panics if the profile is invalid (programming error in a
    /// workload definition).
    pub fn build(self) -> ExecProfile {
        if let Err(e) = self.p.validate() {
            panic!("invalid ExecProfile '{}': {e}", self.p.name);
        }
        self.p
    }
}

/// What one scheduling slice actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Cycles consumed (≤ the requested budget; less only if the slice hit
    /// its `max_instructions` cap).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// All hardware events incremented by this slice (includes `cycles` and
    /// `instructions` under their event indices).
    pub events: EventCounts,
}

impl ExecOutcome {
    /// Instantaneous IPC of the slice.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let p = ExecProfile::builder("x").build();
        assert!(p.validate().is_ok());
        assert!((p.accesses_per_insn() - 0.35).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid ExecProfile")]
    fn builder_rejects_nonsense_rates() {
        ExecProfile::builder("bad").loads_per_insn(1.5).build();
    }

    #[test]
    fn validate_catches_operand_class_overflow() {
        let p = ExecProfile::builder("fp")
            .fp(0.3, FpUnit::X87)
            .operand_classes(0.7, 0.6)
            .p;
        assert!(p.validate().is_err());
    }

    #[test]
    fn outcome_ipc() {
        let o = ExecOutcome {
            cycles: 200,
            instructions: 300,
            events: EventCounts::ZERO,
        };
        assert!((o.ipc() - 1.5).abs() < 1e-12);
        let z = ExecOutcome::default();
        assert_eq!(z.ipc(), 0.0);
    }
}
