//! Frame rendering: the live screen (ncurses stand-in) and batch-mode text.
//!
//! Tiptop "has no graphics capability, our focus is only the collection of
//! the raw data" (§2.1); the live mode pretty-prints aligned columns, the
//! batch mode streams the same rows as plain text for downstream filters.
//! Here a [`Frame`] carries both the typed values (for experiments and
//! tests) and the rendered text.
//!
//! The layout is tuned for the cluster hot path (thousands of frames per
//! second through the merge): headers are an `Arc` slice shared by every
//! frame a monitor produces (the screen never changes mid-run), a row's
//! user and command are the kernel's [`Label`]s (filling them is
//! a refcount bump, not a `String` copy), and typed row values are
//! [`Values`], a small inline vector keyed by interned [`SymId`]s instead
//! of a per-row `HashMap<String, f64>`, so a row of a built-in screen
//! allocates nothing — [`Row::value`] still takes the header text,
//! resolving it through the process-wide [`crate::symbols`] table.

use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use tiptop_kernel::task::Pid;
use tiptop_machine::time::SimTime;

use crate::config::NumFormat;
use crate::symbols::{self, Label, SymId};

/// How one cell of a deferred row materializes from the row's raw data.
/// A monitor builds one spec slice per screen (shared by every row it ever
/// produces) so the hot path carries no per-row formatting work at all.
#[derive(Clone, Debug)]
pub enum CellSpec {
    Pid,
    User,
    CpuPct,
    Comm,
    /// The i-th pre-rendered text of the row (kernel-state columns — task
    /// state, last processor — captured at observe time).
    Text(usize),
    /// The i-th metric value of the row, formatted on demand.
    Metric(usize, NumFormat),
}

/// Entries a [`Values`] holds without a heap block: the widest built-in
/// screen (`fp-assist`) has five metric columns, plus the `%CPU` entry
/// every row carries.
pub const INLINE_VALUES: usize = 6;

/// A row's typed values, `(column id, value)` pairs in screen order:
/// inline up to [`INLINE_VALUES`] entries, on the heap past that. It reads
/// as a slice (`Deref<Target = [(SymId, f64)]>`, `for &(id, v) in
/// &values`), so code written against the `Vec` it replaced keeps working.
#[derive(Clone)]
pub struct Values(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [(SymId, f64); INLINE_VALUES],
    },
    Heap(Vec<(SymId, f64)>),
}

impl Values {
    pub const fn new() -> Self {
        Values(Repr::Inline {
            len: 0,
            buf: [(SymId(0), 0.0); INLINE_VALUES],
        })
    }

    pub fn push(&mut self, entry: (SymId, f64)) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE_VALUES => {
                buf[usize::from(*len)] = entry;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_VALUES);
                heap.extend_from_slice(buf);
                heap.push(entry);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(entry),
        }
    }
}

impl Default for Values {
    fn default() -> Self {
        Values::new()
    }
}

impl Deref for Values {
    type Target = [(SymId, f64)];

    fn deref(&self) -> &[(SymId, f64)] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<'a> IntoIterator for &'a Values {
    type Item = &'a (SymId, f64);
    type IntoIter = std::slice::Iter<'a, (SymId, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Keeps a vector that does not fit inline as the heap block.
impl From<Vec<(SymId, f64)>> for Values {
    fn from(v: Vec<(SymId, f64)>) -> Self {
        if v.len() > INLINE_VALUES {
            return Values(Repr::Heap(v));
        }
        let mut values = Values::new();
        for entry in v {
            values.push(entry);
        }
        values
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One displayed task row: typed metric values plus cell text that is
/// formatted lazily — aggregating consumers (the cluster window sink)
/// never pay for it, while [`Frame::render`] produces byte-identical
/// output on first access.
///
/// A deferred row of a built-in screen owns no heap block: its values are
/// inline ([`Values`]), its labels are shared, its cell plan is the
/// screen's, and its texts and cells stay empty until a screen with
/// kernel-state columns or a render asks for them.
///
/// `user` and `comm` are [`Label`]s shared with the kernel's task and user
/// tables: they read and compare like strings (`row.comm == "mcf"`), and
/// [`Label::sym`] gives an interned id when a consumer wants one.
#[derive(Clone, Debug)]
pub struct Row {
    pub pid: Pid,
    pub user: Label,
    pub comm: Label,
    pub cpu_pct: f64,
    /// Typed values of metric columns (and `%CPU`), keyed by the interned
    /// id of the column header (see [`crate::symbols`]). A handful of
    /// entries per row, so lookups scan linearly — no per-row map.
    pub values: Values,
    /// Deferred-formatting recipe; `None` for eagerly-built rows.
    plan: Option<Arc<[CellSpec]>>,
    /// Kernel-state cell texts captured at observe time ([`CellSpec::Text`]
    /// operands); empty for screens without such columns.
    texts: Vec<String>,
    cells: OnceLock<Vec<String>>,
}

impl Row {
    /// A row with eagerly-rendered cells (test and baseline-monitor sugar).
    pub fn new(
        pid: Pid,
        user: impl Into<Label>,
        comm: impl Into<Label>,
        cpu_pct: f64,
        cells: Vec<String>,
        values: Vec<(SymId, f64)>,
    ) -> Row {
        let lock = OnceLock::new();
        let _ = lock.set(cells);
        Row {
            pid,
            user: user.into(),
            comm: comm.into(),
            cpu_pct,
            values: values.into(),
            plan: None,
            texts: Vec::new(),
            cells: lock,
        }
    }

    /// A row whose cells format on first access from `plan` (shared per
    /// screen) and `texts` (per-row kernel-state captures) — the cluster
    /// hot path's constructor.
    pub fn deferred(
        pid: Pid,
        user: Label,
        comm: Label,
        cpu_pct: f64,
        values: Values,
        plan: Arc<[CellSpec]>,
        texts: Vec<String>,
    ) -> Row {
        Row {
            pid,
            user,
            comm,
            cpu_pct,
            values,
            plan: Some(plan),
            texts,
            cells: OnceLock::new(),
        }
    }

    /// Rendered cell text, one per column — formatted on first call for
    /// deferred rows.
    pub fn cells(&self) -> &[String] {
        self.cells.get_or_init(|| {
            let Some(plan) = &self.plan else {
                return Vec::new();
            };
            plan.iter()
                .map(|spec| match spec {
                    CellSpec::Pid => self.pid.0.to_string(),
                    CellSpec::User => self.user.to_string(),
                    CellSpec::CpuPct => format!("{:.1}", self.cpu_pct),
                    CellSpec::Comm => self.comm.to_string(),
                    CellSpec::Text(i) => self.texts[*i].clone(),
                    CellSpec::Metric(i, format) => {
                        format.render(self.values.get(*i).map(|(_, v)| *v).unwrap_or(f64::NAN))
                    }
                })
                .collect()
        })
    }

    /// The cells if they have already been formatted (heap accounting).
    pub fn materialized_cells(&self) -> Option<&[String]> {
        self.cells.get().map(|v| &**v)
    }

    /// Typed value of a column, if numeric — looked up by header text.
    pub fn value(&self, header: &str) -> Option<f64> {
        let id = symbols::lookup(header)?;
        self.value_by_sym(id)
    }

    /// Typed value of a column by its interned id (the allocation-free
    /// lookup the cluster aggregation path uses).
    pub fn value_by_sym(&self, id: SymId) -> Option<f64> {
        self.values.iter().find(|(c, _)| *c == id).map(|(_, v)| *v)
    }
}

/// Build a `values` vector from header text (test and construction sugar;
/// hot paths intern once and push `(SymId, f64)` pairs directly).
pub fn values_of<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Vec<(SymId, f64)> {
    pairs
        .into_iter()
        .map(|(name, v)| (symbols::intern(name), v))
        .collect()
}

/// One refresh of the screen.
#[derive(Clone, Debug)]
pub struct Frame {
    pub time: SimTime,
    /// Column headers with display widths. Shared: a monitor builds its
    /// header slice once and every frame refbumps it.
    pub headers: Arc<[(String, usize)]>,
    pub rows: Vec<Row>,
    /// Tasks visible in /proc but not observable (other users, no privilege).
    pub unobservable: usize,
}

impl Frame {
    /// The row displaying `pid`, if any.
    pub fn row_for(&self, pid: Pid) -> Option<&Row> {
        self.rows.iter().find(|r| r.pid == pid)
    }

    /// The row for the first task whose command matches `comm`.
    pub fn row_for_comm(&self, comm: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.comm == comm)
    }

    fn header_line(&self) -> String {
        let mut line = String::new();
        for (h, w) in self.headers.iter() {
            let _ = write!(line, "{h:>w$} ", w = *w);
        }
        line.trim_end().to_string()
    }

    fn row_line(&self, row: &Row) -> String {
        let mut line = String::new();
        for (cell, (_, w)) in row.cells().iter().zip(self.headers.iter()) {
            let _ = write!(line, "{cell:>w$} ", w = *w);
        }
        line.trim_end().to_string()
    }

    /// Live-mode screen: clock line, header, aligned rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tiptop - {:>10.3}s  {} tasks shown ({} unobservable)",
            self.time.as_secs_f64(),
            self.rows.len(),
            self.unobservable
        );
        let _ = writeln!(out, "{}", self.header_line());
        for row in &self.rows {
            let _ = writeln!(out, "{}", self.row_line(row));
        }
        out
    }

    /// Batch-mode lines (`tiptop -b`): one timestamped line per task.
    pub fn batch_lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| format!("{:.3} {}", self.time.as_secs_f64(), self.row_line(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        let headers = vec![
            ("PID".to_string(), 6),
            ("%CPU".to_string(), 5),
            ("IPC".to_string(), 5),
            ("COMMAND".to_string(), 12),
        ];
        let row = |pid: u32, cpu: f64, ipc: f64, comm: &str| {
            Row::new(
                Pid(pid),
                "user1",
                comm,
                cpu,
                vec![
                    pid.to_string(),
                    format!("{cpu:.1}"),
                    format!("{ipc:.2}"),
                    comm.to_string(),
                ],
                values_of([("%CPU", cpu), ("IPC", ipc)]),
            )
        };
        Frame {
            time: SimTime::from_secs(5),
            headers: headers.into(),
            rows: vec![
                row(101, 100.0, 1.97, "mcf"),
                row(102, 43.7, 1.62, "idleish"),
            ],
            unobservable: 1,
        }
    }

    #[test]
    fn rendered_screen_is_aligned_and_complete() {
        let f = frame();
        let s = f.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("2 tasks shown (1 unobservable)"));
        assert!(lines[1].ends_with("COMMAND"));
        assert!(lines[2].contains("1.97"));
        assert!(lines[3].contains("43.7"));
        // Columns align: 'PID' right-aligned in width 6.
        assert!(lines[1].starts_with("   PID"));
    }

    #[test]
    fn batch_lines_are_timestamped() {
        let f = frame();
        let lines = f.batch_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("5.000 "));
        assert!(lines[0].contains("mcf"));
    }

    #[test]
    fn deferred_cells_format_identically_and_lazily() {
        let plan: Arc<[CellSpec]> = vec![
            CellSpec::Pid,
            CellSpec::User,
            CellSpec::CpuPct,
            CellSpec::Text(0),
            CellSpec::Metric(0, NumFormat::Float(2)),
            CellSpec::Comm,
        ]
        .into();
        let row = Row::deferred(
            Pid(101),
            "user1".into(),
            "mcf".into(),
            100.0,
            values_of([("IPC", 1.97)]).into(),
            plan,
            vec!["R".to_string()],
        );
        assert!(row.materialized_cells().is_none(), "nothing formatted yet");
        assert_eq!(row.cells(), ["101", "user1", "100.0", "R", "1.97", "mcf"]);
        assert!(row.materialized_cells().is_some(), "formatted exactly once");
        // Out-of-range metric indices render like NaN, not a panic.
        let bare = Row::deferred(
            Pid(1),
            "".into(),
            "".into(),
            0.0,
            Values::new(),
            vec![CellSpec::Metric(7, NumFormat::Int)].into(),
            Vec::new(),
        );
        assert_eq!(bare.cells(), ["-"]);
    }

    #[test]
    fn typed_lookup() {
        let f = frame();
        assert_eq!(f.row_for(Pid(102)).unwrap().value("IPC"), Some(1.62));
        assert!(f.row_for(Pid(999)).is_none());
        assert_eq!(f.row_for_comm("mcf").unwrap().pid, Pid(101));
        // Never-interned headers resolve to "no value", not a panic.
        assert_eq!(f.rows[0].value("NO-SUCH-COLUMN-EVER"), None);
    }

    #[test]
    fn values_stay_inline_up_to_capacity_then_spill() {
        let entry = |i: u32| (SymId(i), f64::from(i));
        let mut values = Values::new();
        let all: Vec<_> = (0..=INLINE_VALUES as u32).map(entry).collect();
        for (n, &e) in all.iter().enumerate() {
            values.push(e);
            assert_eq!(&*values, &all[..=n], "pushed across the spill");
        }
        assert_eq!(&*Values::from(all.clone()), &all[..]);
        assert_eq!(&*Values::from(all[..2].to_vec()), &all[..2]);
        let sum: f64 = (&values).into_iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, all.iter().map(|&(_, v)| v).sum::<f64>());
        assert_eq!(
            format!("{:?}", Values::from(vec![entry(1)])),
            "[(SymId(1), 1.0)]"
        );
    }
}
