//! The repository benchmark: three closed-loop fleet simulations, timed end
//! to end, with a separate traced run that times every layer from outside
//! at its public call boundaries. See `README.md` beside this crate for the
//! metrics, the workloads and what each layer metric should move.

pub mod bench;
pub mod clock;
pub mod digest;
pub mod trace;
pub mod workloads;
