//! Declarative experiment sessions: a [`Scenario`] assembles the machine,
//! the users, and *triggered workload events* (spawn at t, kill at t, spawn
//! when another job exits, ...); building it yields a [`Session`] that owns
//! the kernel, applies each event at its exact instant, and drives any set
//! of [`Monitor`](crate::monitor::Monitor)s — tiptop, `top`, Pin, or
//! several at once — through one loop.
//!
//! Every event carries a [`Trigger`]: [`Trigger::At`] fires at a scripted
//! absolute instant (the classic schedule — `spawn_at`, `kill_at`, ...),
//! while [`Trigger::AfterExit`] fires a configurable delay after another
//! tagged job's final incarnation exits (`spawn_after`, `kill_after`, ...),
//! turning the flat schedule into a dependency DAG. Dependency edges are
//! validated at build time by a Kahn topological sort — cycles, unknown
//! dependencies, and dependencies that can never complete are typed
//! [`DagError`]s.
//!
//! This replaces the seed's hand-rolled `Kernel::new` + `spawn` + `advance`
//! choreography that every experiment used to reassemble:
//!
//! ```
//! use tiptop_core::prelude::*;
//! use tiptop_kernel::prelude::*;
//! use tiptop_machine::prelude::*;
//!
//! let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
//!     .seed(7)
//!     .user(Uid(1), "alice")
//!     .spawn(
//!         "hog",
//!         SpawnSpec::new("hog", Uid(1), Program::endless(ExecProfile::builder("hog").build())),
//!     )
//!     .kill_at(SimTime::from_secs(5), "hog")
//!     .build()
//!     .unwrap();
//!
//! let mut tool = Tiptop::new(
//!     TiptopOptions::default().delay(SimDuration::from_secs(1)),
//!     ScreenConfig::default_screen(),
//! );
//! let frames = session.run(&mut tool, 6).unwrap();
//! assert!(frames[3].row_for_comm("hog").is_some(), "alive at t=4s");
//! assert!(frames[5].row_for_comm("hog").is_none(), "killed at t=5s");
//! ```
//!
//! A pipeline chains stages with `spawn_after` instead of guessing
//! instants:
//!
//! ```
//! use tiptop_core::prelude::*;
//! use tiptop_kernel::prelude::*;
//! use tiptop_machine::prelude::*;
//!
//! let profile = || ExecProfile::builder("stage").base_cpi(0.8).build();
//! let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
//!     .user(Uid(1), "etl")
//!     .spawn("extract", SpawnSpec::new("extract", Uid(1), Program::single(profile(), 5_000_000)))
//!     .spawn_after(
//!         "extract",
//!         SimDuration::ZERO,
//!         "transform",
//!         SpawnSpec::new("transform", Uid(1), Program::single(profile(), 5_000_000)),
//!     )
//!     .build()
//!     .unwrap();
//! assert!(session.pid("transform").is_none(), "waits for extract to exit");
//! session.advance(SimDuration::from_secs(10)).unwrap();
//! assert!(session.pid("transform").is_some(), "spawned by extract's exit");
//! ```

// Driver code reports failures as typed errors; a panic here would take
// a whole run down with it.
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

mod builder;
mod errors;
mod events;
mod session;
pub(crate) mod validation;

pub use builder::Scenario;
pub use errors::{DagError, SessionError};
pub use events::{HandoffBoard, Trigger, WorkloadEvent};
pub(crate) use session::MonitorSet;
pub use session::Session;

#[cfg(test)]
mod tests;
