//! The tiptop application: options, the refresh loop, row building.
//!
//! Mirrors the real tool's shape: `tiptop [-d delay]` periodically
//! refreshes a screen. Each refresh: scan `/proc`, attach to newcomers,
//! read counter deltas, evaluate the screen's metric expressions, sort,
//! render. A screen that reads no counters ([`ScreenConfig::top_screen`])
//! is plain `top`: the same loop, with no counter fds and every task shown.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::procfs::ProcStat;
use tiptop_kernel::task::{Pid, Uid};
use tiptop_machine::pmu::{EventCounts, HwEvent};
use tiptop_machine::time::SimDuration;

use crate::collector::Collector;
use crate::config::{ColumnKind, ScreenConfig};
use crate::events::parse_event;
use crate::expr::Compiled;
use crate::procinfo::CpuTracker;
use crate::render::{CellSpec, Frame, Row, Values};
use crate::symbols::{self, SymId};

/// A metric expression variable resolved at screen-build time, so the
/// per-row hot path never parses identifier names (see [`Expr::compile`]).
///
/// [`Expr::compile`]: crate::expr::Expr::compile
#[derive(Clone, Copy, Debug)]
enum VarSlot {
    Event(HwEvent),
    CpuPct,
    DeltaT,
    Time,
}

/// Per-metric-column evaluation plan: compiled when every identifier
/// resolves (the common case), else the AST — whose per-row eval errors
/// reproduce the historical NaN-cell behavior for unknown identifiers.
enum MetricProg {
    Fast(Compiled<VarSlot>),
    Slow,
}

/// Row ordering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SortKey {
    /// By `%CPU`, descending — the `top` default and Figure 1's order.
    CpuPct,
    /// By a metric column's value, descending.
    Column(String),
    /// By pid, ascending.
    Pid,
}

/// Tool options (the command line).
#[derive(Clone, Debug)]
pub struct TiptopOptions {
    /// Refresh interval (`-d`); the paper typically samples every few
    /// seconds.
    pub delay: SimDuration,
    /// Who is running the tool (decides which tasks are observable).
    pub observer: Uid,
    pub sort: SortKey,
}

impl Default for TiptopOptions {
    fn default() -> Self {
        TiptopOptions {
            delay: SimDuration::from_secs(2),
            observer: Uid::ROOT,
            sort: SortKey::CpuPct,
        }
    }
}

impl TiptopOptions {
    pub fn delay(mut self, d: SimDuration) -> Self {
        self.delay = d;
        self
    }

    pub fn observer(mut self, uid: Uid) -> Self {
        self.observer = uid;
        self
    }

    pub fn sort(mut self, s: SortKey) -> Self {
        self.sort = s;
        self
    }
}

/// Everything [`Tiptop`] derives from its screen at construction time and
/// never mutates: headers, interned metric ids, compiled metric programs,
/// and the deferred-formatting cell plan.
///
/// Built once per *distinct screen* per process and shared via
/// [`ScreenPlan::shared`]: a 1000-machine fleet where every shard runs the
/// default screen holds one plan allocation, not a thousand compiled
/// copies.
struct ScreenPlan {
    /// The counters the screen's metrics read, in event order.
    events: Vec<HwEvent>,
    /// Header slice shared by every frame (the screen never changes
    /// mid-run); one refcount bump per refresh instead of a `String` per
    /// column per frame.
    headers: Arc<[(String, usize)]>,
    /// Interned header id per column, metric columns only — the typed row
    /// values are keyed by these.
    metric_syms: Vec<Option<SymId>>,
    /// Compiled metric programs, one per metric column in screen order.
    metric_progs: Vec<MetricProg>,
    cpu_sym: SymId,
    /// Deferred-formatting recipe shared by every row (see
    /// [`CellSpec`]): cell text is only rendered if a consumer asks.
    cell_plan: Arc<[CellSpec]>,
    /// Whether any column needs a per-row kernel-state text capture
    /// (`State`/`Processor`), so rows without them skip the vector.
    has_texts: bool,
}

impl ScreenPlan {
    /// The process-wide plan for `screen`, building it on first sight.
    /// Keyed by value (`==`), so two screens agreeing on name *and*
    /// columns share one plan and any difference gets its own. A process
    /// holds a handful of distinct screens, so a scan of equality checks
    /// finds the plan without formatting or hashing the screen on every
    /// construction.
    fn shared(screen: &ScreenConfig) -> Arc<ScreenPlan> {
        static CACHE: Mutex<Vec<(ScreenConfig, Arc<ScreenPlan>)>> = Mutex::new(Vec::new());
        let mut cache = CACHE.lock().expect("screen plan cache poisoned");
        if let Some((_, plan)) = cache.iter().find(|(s, _)| s == screen) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(ScreenPlan::build(screen));
        // A NaN constant makes a screen unequal to itself: it would never
        // be found again, so it is not kept.
        let kept = screen.clone();
        if kept == *screen {
            cache.push((kept, Arc::clone(&plan)));
        }
        plan
    }

    fn build(screen: &ScreenConfig) -> ScreenPlan {
        let headers: Arc<[(String, usize)]> = screen
            .columns
            .iter()
            .map(|c| (c.header.clone(), c.width))
            .collect::<Vec<_>>()
            .into();
        let metric_syms: Vec<Option<SymId>> = screen
            .columns
            .iter()
            .map(|c| {
                matches!(c.kind, ColumnKind::Metric { .. }).then(|| symbols::intern(&c.header))
            })
            .collect();
        let metric_progs: Vec<MetricProg> = screen
            .columns
            .iter()
            .filter_map(|c| match &c.kind {
                ColumnKind::Metric { expr, .. } => Some(
                    expr.compile(&mut |name| {
                        if let Some(ev) = parse_event(name) {
                            return Some(VarSlot::Event(ev));
                        }
                        match name {
                            "%CPU" | "CPU_PCT" => Some(VarSlot::CpuPct),
                            "DELTA_T" => Some(VarSlot::DeltaT),
                            "TIME" => Some(VarSlot::Time),
                            _ => None,
                        }
                    })
                    .map(MetricProg::Fast)
                    .unwrap_or(MetricProg::Slow),
                ),
                _ => None,
            })
            .collect();
        let mut metric_i = 0usize;
        let mut text_i = 0usize;
        let cell_plan: Arc<[CellSpec]> = screen
            .columns
            .iter()
            .map(|c| match &c.kind {
                ColumnKind::Pid => CellSpec::Pid,
                ColumnKind::User => CellSpec::User,
                ColumnKind::CpuPct => CellSpec::CpuPct,
                ColumnKind::Comm => CellSpec::Comm,
                ColumnKind::State | ColumnKind::Processor => {
                    text_i += 1;
                    CellSpec::Text(text_i - 1)
                }
                ColumnKind::Metric { format, .. } => {
                    metric_i += 1;
                    CellSpec::Metric(metric_i - 1, *format)
                }
            })
            .collect();
        ScreenPlan {
            events: screen.required_events(),
            headers,
            metric_syms,
            metric_progs,
            cpu_sym: symbols::intern("%CPU"),
            cell_plan,
            has_texts: text_i > 0,
        }
    }
}

/// The tool.
pub struct Tiptop {
    options: TiptopOptions,
    screen: ScreenConfig,
    collector: Collector,
    cpu: CpuTracker,
    /// Derived screen state, shared process-wide per distinct screen.
    plan: Arc<ScreenPlan>,
    /// Per-refresh scratch, reused: the `/proc` scan (ascending pids) and
    /// the observable tasks with their stat, `%CPU` and counter deltas.
    pids: Vec<Pid>,
    entries: Vec<(Pid, ProcStat, f64, EventCounts)>,
}

impl Tiptop {
    pub fn new(options: TiptopOptions, screen: ScreenConfig) -> Self {
        let plan = ScreenPlan::shared(&screen);
        let collector = Collector::new(options.observer, plan.events.clone());
        Tiptop {
            options,
            screen,
            collector,
            cpu: CpuTracker::new(),
            plan,
            pids: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The shared deferred-formatting recipe — exposed so tests can assert
    /// that identical screens share one plan allocation across instances.
    pub fn cell_plan(&self) -> Arc<[CellSpec]> {
        self.plan.cell_plan.clone()
    }

    pub fn options(&self) -> &TiptopOptions {
        &self.options
    }

    pub fn screen(&self) -> &ScreenConfig {
        &self.screen
    }

    /// Whether the screen reads any counter. One that reads none is `top`:
    /// its collector attaches every task with no fds, so it shows every
    /// task and opens no counter.
    pub(crate) fn reads_counters(&self) -> bool {
        !self.plan.events.is_empty()
    }

    /// One refresh: returns the new frame. Does *not* advance time — the
    /// session loop owns the clock (see [`crate::session`]).
    pub fn refresh(&mut self, k: &mut Kernel) -> Frame {
        let now = k.now();

        // Scan /proc once: the collector and the %CPU tracker merge their
        // pid-sorted state against the ascending pid list.
        k.pids_into(&mut self.pids);
        let pids = &self.pids;
        self.collector.refresh(k, pids);
        self.cpu.retain_pids(pids);
        // Borrowed (not moved) so the refresh copies no deltas; `cpu` and
        // `collector` are disjoint fields, so the borrows coexist. The
        // deltas ascend by pid like the scan, so one cursor pairs them.
        let deltas = self.collector.deltas();
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        let mut unobservable = 0usize;
        let mut at = 0;
        for &pid in pids {
            let Some(stat) = k.stat(pid) else { continue };
            let pct = self.cpu.update(&stat, now);
            while deltas.get(at).is_some_and(|(p, _)| *p < pid) {
                at += 1;
            }
            match deltas.get(at) {
                Some((p, delta)) if *p == pid => entries.push((pid, stat, pct, delta.counts)),
                _ => unobservable += 1,
            }
        }

        // Aggregate threads into processes.
        let mut rows: Vec<Row> = if entries.iter().all(|(pid, stat, _, _)| stat.tgid == *pid) {
            // No multi-threaded process in sight (the cluster-shard common
            // case): every task is its own group — skip the group map.
            entries
                .iter()
                .map(|(pid, stat, pct, counts)| self.build_row(k, *pid, stat, *pct, *counts, now))
                .collect()
        } else {
            // Representative stat: the main thread if present, else the
            // first member seen.
            let mut groups: HashMap<Pid, (usize, f64, EventCounts)> =
                HashMap::with_capacity(entries.len());
            for (i, (pid, stat, pct, counts)) in entries.iter().enumerate() {
                let g = groups
                    .entry(stat.tgid)
                    .or_insert((i, 0.0, EventCounts::ZERO));
                if *pid == stat.tgid {
                    g.0 = i;
                }
                g.1 += pct;
                g.2.accumulate(counts);
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (tgid, (rep, pct, counts)) in groups {
                rows.push(self.build_row(k, tgid, &entries[rep].1, pct, counts, now));
            }
            rows
        };

        // Sort.
        match &self.options.sort {
            SortKey::CpuPct => rows.sort_by(|a, b| {
                b.cpu_pct
                    .partial_cmp(&a.cpu_pct)
                    .unwrap()
                    .then_with(|| a.pid.cmp(&b.pid))
            }),
            SortKey::Pid => rows.sort_by_key(|r| r.pid),
            SortKey::Column(h) => {
                // Resolve the header once; a never-interned header has no
                // values, so rows fall back to pid order.
                let id = symbols::lookup(h);
                let value = |r: &Row| {
                    id.and_then(|id| r.value_by_sym(id))
                        .unwrap_or(f64::NEG_INFINITY)
                };
                rows.sort_by(|a, b| {
                    value(b)
                        .partial_cmp(&value(a))
                        .unwrap()
                        .then_with(|| a.pid.cmp(&b.pid))
                })
            }
        }
        self.entries = entries;

        Frame {
            time: now,
            headers: self.plan.headers.clone(),
            rows,
            unobservable,
        }
    }

    fn build_row(
        &self,
        k: &Kernel,
        display_pid: Pid,
        stat: &ProcStat,
        cpu_pct: f64,
        counts: EventCounts,
        now: tiptop_machine::time::SimTime,
    ) -> Row {
        let delta_t = self.options.delay.as_secs_f64();
        let user = k.username(stat.uid);
        // Kernel-state cells (task state, last PU) must be captured now —
        // the kernel has moved on by the time anyone renders — but cell
        // *formatting* is deferred to first access via the shared plan, so
        // aggregating consumers never pay for it.
        let mut texts: Vec<String> = Vec::new();
        if self.plan.has_texts {
            for col in &self.screen.columns {
                match col.kind {
                    ColumnKind::State => texts.push(stat.state.code().to_string()),
                    ColumnKind::Processor => texts.push(
                        stat.processor
                            .map(|p| p.0.to_string())
                            .unwrap_or_else(|| "-".into()),
                    ),
                    _ => {}
                }
            }
        }
        let mut values = Values::new();
        let mut metric_i = 0usize;
        for (col, sym) in self.screen.columns.iter().zip(&self.plan.metric_syms) {
            if let ColumnKind::Metric { expr, .. } = &col.kind {
                let v = match &self.plan.metric_progs[metric_i] {
                    MetricProg::Fast(prog) => prog.eval(&mut |slot| match slot {
                        VarSlot::Event(ev) => counts.get(*ev) as f64,
                        VarSlot::CpuPct => cpu_pct,
                        VarSlot::DeltaT => delta_t,
                        VarSlot::Time => now.as_secs_f64(),
                    }),
                    MetricProg::Slow => expr
                        .eval(&|name: &str| {
                            if let Some(ev) = parse_event(name) {
                                return Some(counts.get(ev) as f64);
                            }
                            match name {
                                "%CPU" | "CPU_PCT" => Some(cpu_pct),
                                "DELTA_T" => Some(delta_t),
                                "TIME" => Some(now.as_secs_f64()),
                                _ => None,
                            }
                        })
                        .unwrap_or(f64::NAN),
                };
                metric_i += 1;
                values.push((sym.expect("metric columns carry a sym"), v));
            }
        }
        // A metric column named "%CPU" (if a screen defines one) shadows
        // the built-in entry, matching the old map-overwrite behavior.
        if !values.iter().any(|(c, _)| *c == self.plan.cpu_sym) {
            values.push((self.plan.cpu_sym, cpu_pct));
        }
        Row::deferred(
            display_pid,
            user,
            stat.comm.clone(),
            cpu_pct,
            values,
            self.plan.cell_plan.clone(),
            texts,
        )
    }

    /// Tear down all counters (end of run).
    pub fn shutdown(&mut self, k: &mut Kernel) {
        self.collector.detach_all(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ColumnSpec, NumFormat};
    use crate::expr::Expr;

    #[test]
    fn screens_share_a_plan_only_when_equal() {
        let plan = |s: ScreenConfig| Tiptop::new(TiptopOptions::default(), s).cell_plan();
        let default = plan(ScreenConfig::default_screen());
        assert!(Arc::ptr_eq(&default, &plan(ScreenConfig::default_screen())));
        assert!(!Arc::ptr_eq(
            &default,
            &plan(ScreenConfig::fp_assist_screen())
        ));
        let mut renamed = ScreenConfig::default_screen();
        renamed.name = "renamed".into();
        assert!(!Arc::ptr_eq(&default, &plan(renamed)));
        // A NaN constant never equals itself, so its screen is never found
        // in the cache: each monitor builds its own plan.
        let mut nan = ScreenConfig::default_screen();
        nan.columns.push(ColumnSpec {
            header: "NAN".into(),
            width: 5,
            kind: ColumnKind::Metric {
                expr: Expr::Num(f64::NAN),
                format: NumFormat::Float(1),
            },
        });
        assert!(!Arc::ptr_eq(&plan(nan.clone()), &plan(nan)));
    }
}
