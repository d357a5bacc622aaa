//! # tiptop-core
//!
//! The paper's contribution: **tiptop**, a `top`-like monitor that attaches
//! hardware performance counters to *already-running, unmodified* tasks —
//! no root, no source code, no restart — and displays simple derived
//! metrics (IPC, last-level-cache misses per hundred instructions, branch
//! misprediction and FP-assist rates) next to the familiar `PID USER %CPU
//! ... COMMAND` columns.
//!
//! The tool is organized exactly like the original:
//!
//! * [`events`] — generic (portable) vs raw (target-specific) event
//!   selection;
//! * [`expr`] + [`config`] — fully customizable screens: every numeric
//!   column is an expression over counter deltas;
//! * [`collector`] — `/proc` discovery and `perf_event_open`-based
//!   attachment, with permission walls and task churn handled the way the
//!   real syscalls force you to;
//! * [`procinfo`] — `%CPU` computed from `/proc` deltas, like `top`;
//! * [`app`] — the refresh loop, sorting, thread aggregation; `top` is
//!   the same tool on a screen that reads no counters;
//! * [`render`] — aligned text frames (the "no graphics" philosophy);
//! * [`baseline`] — the Pin-style `inscount` comparator the paper
//!   measures against.
//!
//! Experiments drive the tools through the **session subsystem**:
//!
//! * [`monitor`] — the [`Monitor`] trait every tool implements, plus the
//!   streaming [`FrameSink`] observer API;
//! * [`scenario`] — the declarative [`Scenario`] builder (machine, users,
//!   timed spawn/kill/renice events) and the [`Session`] loop that drives
//!   any set of monitors over one live kernel;
//! * [`session`] — per-task time-series helpers over recorded frames;
//! * [`cluster`] — the multi-machine layer: [`ClusterScenario`] builds N
//!   independent sessions (one per machine), and one
//!   [`ClusterSession::run`] shards them across a worker pool and merges
//!   their frames deterministically by (time, machine) into a streaming
//!   [`ClusterFrameSink`];
//! * [`reactive`] — reactive fleet scheduling: [`SchedulerPolicy`]s handed
//!   to that same run watch the merged stream and issue live migrations —
//!   restart-from-zero or checkpoint/resume per [`MigrationMode`] —
//!   applied deterministically at the next epoch boundary. The detectors
//!   ([`IpcFloor`] threshold detection, [`Cusum`] and [`Population`]
//!   change-point detection) are each a [`Watch`] over a [`Statistic`],
//!   and [`Balanced`] re-routes any of them to the machine
//!   [`LeastLoaded`] ranks lowest.
//!
//! ## Quickstart
//!
//! ```
//! use tiptop_core::prelude::*;
//! use tiptop_kernel::prelude::*;
//! use tiptop_machine::prelude::*;
//!
//! // A Nehalem workstation with one busy task, declared as a scenario.
//! let mut session = Scenario::new(MachineConfig::nehalem_w3550())
//!     .user(Uid(1000), "alice")
//!     .spawn(
//!         "hog",
//!         SpawnSpec::new(
//!             "hog",
//!             Uid(1000),
//!             Program::endless(ExecProfile::builder("hog").build()),
//!         ),
//!     )
//!     .build()
//!     .unwrap();
//!
//! // Run tiptop for three 2-second refreshes and inspect the screen.
//! let mut tool = Tiptop::new(
//!     TiptopOptions::default().delay(SimDuration::from_secs(2)),
//!     ScreenConfig::default_screen(),
//! );
//! let frames = session.run(&mut tool, 3).unwrap();
//! let last = frames.last().unwrap();
//! let row = last.row_for_comm("hog").unwrap();
//! assert!(row.value("IPC").unwrap() > 0.5);
//! println!("{}", last.render());
//! ```

pub mod app;
pub mod baseline;
pub mod batch;
pub mod cluster;
pub mod collector;
pub mod config;
pub mod events;
pub mod expr;
pub mod monitor;
pub mod procinfo;
pub mod reactive;
pub mod render;
pub mod scenario;
pub mod session;
/// String interning and [`Label`], re-exported from the kernel crate,
/// where task commands and user names are first interned.
pub use tiptop_kernel::symbols;

pub use app::{SortKey, Tiptop, TiptopOptions};
pub use baseline::{PinInscount, PinReport};
pub use batch::FrameBatch;
pub use cluster::{
    ClusterCollectSink, ClusterFrame, ClusterFrameSink, ClusterScenario, ClusterSession,
    ClusterWindow, ClusterWindowSink, HandoverRecord, MachineRef, RunStats, Until, WindowStats,
};
pub use collector::{Collector, TaskDelta};
pub use config::{ColumnKind, ColumnSpec, NumFormat, ScreenConfig};
pub use expr::Expr;
pub use monitor::{CollectSink, FrameSink, Monitor};
pub use procinfo::CpuTracker;
pub use reactive::{
    AppliedDecision, Balanced, Cusum, IpcFloor, LeastLoaded, MigrationDecision, MigrationMode,
    Population, SchedulerPolicy, Statistic, Watch,
};
pub use render::{CellSpec, Frame, Row, Values};
pub use scenario::{DagError, Scenario, Session, SessionError, Trigger, WorkloadEvent};
pub use session::{cluster_series_for_comm, machine_frames, mean, series_for_comm, series_for_pid};
pub use symbols::{Label, SymId, SymbolTable};

/// Convenient glob import.
pub mod prelude {
    pub use crate::app::{SortKey, Tiptop, TiptopOptions};
    pub use crate::baseline::PinInscount;
    pub use crate::batch::FrameBatch;
    pub use crate::cluster::{
        ClusterCollectSink, ClusterFrame, ClusterFrameSink, ClusterScenario, ClusterSession,
        ClusterWindow, ClusterWindowSink, HandoverRecord, MachineRef, RunStats, Until, WindowStats,
    };
    pub use crate::config::ScreenConfig;
    pub use crate::monitor::{CollectSink, FrameSink, Monitor};
    pub use crate::reactive::{
        AppliedDecision, Balanced, Cusum, IpcFloor, LeastLoaded, MigrationDecision, MigrationMode,
        Population, SchedulerPolicy,
    };
    pub use crate::render::Frame;
    pub use crate::scenario::{DagError, Scenario, Session, SessionError, Trigger, WorkloadEvent};
    pub use crate::session::{
        cluster_series_for_comm, machine_frames, mean, series_for_comm, series_for_pid,
    };
    pub use crate::symbols::{Label, SymId};
}
