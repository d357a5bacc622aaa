//! The merged stream's consumers: the [`ClusterFrameSink`] trait, the
//! collect sink and the bounded-memory window sink.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use tiptop_machine::time::SimTime;

#[cfg(doc)]
use super::ClusterSession;
use super::{ClusterFrame, HandoverRecord};
use crate::batch::FrameBatch;
use crate::render::Row;
use crate::symbols::{self, Label, SymId};

/// Streaming consumer of the merged cluster stream. Frames arrive in
/// `(time, machine_index)` order regardless of the worker-thread count;
/// same-instant frames of one machine keep their monitor order.
pub trait ClusterFrameSink {
    fn on_frame(&mut self, frame: ClusterFrame);

    /// Deliver frames `range` of a columnar batch: the next frames of the
    /// merged stream, in order. The cluster driver delivers frame by frame
    /// and never calls this; it is for sinks that forward batches. The
    /// default materializes each frame through [`FrameBatch::take_frame`]
    /// and hands it to [`ClusterFrameSink::on_frame`].
    fn on_batch(&mut self, batch: &mut FrameBatch, range: Range<usize>) {
        for i in range {
            self.on_frame(batch.take_frame(i));
        }
    }
}

/// Any closure can be a sink.
impl<F: FnMut(ClusterFrame)> ClusterFrameSink for F {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self(frame)
    }
}

/// The simplest sink: keep the whole merged stream. A scripted run delivers
/// before it errors, so after a failed [`ClusterSession::run`] this sink
/// holds every frame merged before the error. For runs long enough that
/// this buffer matters, use [`ClusterWindowSink`] instead.
#[derive(Debug, Default)]
pub struct ClusterCollectSink {
    frames: Vec<ClusterFrame>,
}

impl ClusterCollectSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn frames(&self) -> &[ClusterFrame] {
        &self.frames
    }

    pub fn into_frames(self) -> Vec<ClusterFrame> {
        self.frames
    }
}

impl ClusterFrameSink for ClusterCollectSink {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.frames.push(frame);
    }
}

/// Per-`(machine, monitor)` aggregates of one [`ClusterWindow`].
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Frames this source contributed to the window.
    pub frames: usize,
    /// Task rows across those frames that entered the aggregates.
    pub rows: usize,
    /// Rows *excluded* from the aggregates because they are the
    /// destination side of a registered migration handover (see
    /// [`ClusterWindowSink::dedupe_handovers`]); 0 unless deduping.
    pub handover_rows: usize,
    /// Per-column `(id, sum, samples)` over every finite row value, keyed
    /// by the column's interned id in first-seen order. A screen has a
    /// handful of columns, so lookups scan linearly, like [`Row::values`]:
    /// no map node per column per source per window. Boxed at its exact
    /// length: a long run retains one of these per source per window.
    sums: Box<[(SymId, f64, usize)]>,
}

impl WindowStats {
    /// Mean of a typed column (e.g. `"IPC"`, `"%CPU"`) over every row of
    /// every frame in the window; `None` if the column never appeared.
    pub fn mean(&self, column: &str) -> Option<f64> {
        let id = symbols::lookup(column)?;
        self.sums
            .iter()
            .find(|(c, _, n)| *c == id && *n > 0)
            .map(|(_, sum, n)| sum / *n as f64)
    }

    /// Column names observed in this window, alphabetically.
    pub fn columns(&self) -> impl Iterator<Item = Arc<str>> {
        let mut names: Vec<Arc<str>> = self
            .sums
            .iter()
            .map(|(id, _, _)| symbols::resolve(*id))
            .collect();
        names.sort();
        names.into_iter()
    }
}

/// One tumbling window of the merged stream, folded to aggregates.
#[derive(Clone, Debug)]
pub struct ClusterWindow {
    /// 0-based window number.
    pub index: usize,
    /// Time of the first / last frame aggregated into the window.
    pub start: SimTime,
    pub end: SimTime,
    /// Total frames folded in (the window size, except for the final
    /// partial window).
    pub frames: usize,
    /// Aggregates keyed by `(machine, monitor-name)`. The labels are
    /// shared with the stream's frames, and order by their text.
    pub sources: BTreeMap<(Label, Label), WindowStats>,
}

/// Bounded-memory sink for long cluster runs: folds each frame into the
/// open window's per-source column aggregates *as it arrives* — no raw
/// frame is ever buffered — closing the window ([`ClusterWindow`]) every
/// `window` frames. The open-window state is `O(sources x columns)` and
/// reused from window to window. Each closed window retains one
/// [`WindowStats`] per source that contributed to it, so the summaries
/// are `O(total / window)` when a few sources fill each window, but
/// `O(frames)` when a window's frames come from distinct sources — as on a
/// 1,000-machine fleet with 256-frame windows. A retained source-window
/// of the default screen holds its map entry, whose key shares the
/// stream's two labels, and five column sums at exact size. A fleet
/// observed for hours never holds its stream, unlike
/// [`ClusterCollectSink`], but it does hold its summaries.
///
/// Callers who need the raw frames spilled elsewhere (rendered to a file,
/// forwarded downstream) can chain a closure sink in front; this sink's
/// job is the bounded aggregate view.
///
/// # Migration handovers
///
/// At a migration's handover frame the job is visible on *both* machines —
/// its final row on the source and its first (zero-elapsed) row on the
/// destination — so a fleet-wide aggregate naively counts it twice at that
/// one instant. The raw stream deliberately keeps both rows (the handover
/// is the observable artifact); register the run's handovers with
/// [`ClusterWindowSink::dedupe_handovers`] and the *aggregates* count the
/// job once, attributing the instant to the source (where it actually ran)
/// and reporting the skipped destination rows in
/// [`WindowStats::handover_rows`].
#[derive(Debug)]
pub struct ClusterWindowSink {
    window: usize,
    peak: usize,
    windows: Vec<ClusterWindow>,
    /// Destination-side rows to exclude from aggregates, keyed by handover
    /// instant: `(interned destination machine, command)`. Entries are
    /// dropped as soon as the stream advances past their instant (frames
    /// arrive in nondecreasing time), so a long reactive run with many
    /// migrations never accumulates stale instants.
    dedupe: BTreeMap<SimTime, Vec<(SymId, String)>>,
    /// The window currently being folded (no frame yet if `frames` is 0).
    open: OpenWindow,
}

/// Incremental state of the window being folded, reused across windows.
#[derive(Debug, Default)]
struct OpenWindow {
    start: SimTime,
    end: SimTime,
    frames: usize,
    /// Every source seen so far, in first-seen order, with its labels
    /// (the sink's name cache) and its open aggregates.
    sources: Vec<OpenSource>,
    /// `(machine, monitor)` ids to their index in `sources`, ascending by
    /// ids: a frame finds its source by binary search, and only a source
    /// never seen before inserts.
    slots: Vec<((SymId, SymId), usize)>,
    /// Indices of the sources folded into this window, in first-fold
    /// order.
    active: Vec<usize>,
}

/// One `(machine, monitor)` source of the stream and its aggregates in
/// the open window.
#[derive(Debug)]
struct OpenSource {
    names: (Label, Label),
    active: bool,
    frames: usize,
    rows: usize,
    handover_rows: usize,
    sums: Vec<(SymId, f64, usize)>,
}

impl OpenWindow {
    /// The open aggregates of the `(machine, monitor)` source, joining it
    /// to this window.
    fn source(&mut self, machine: &Label, monitor: &Label) -> &mut OpenSource {
        let key = (machine.sym(), monitor.sym());
        let i = match self.slots.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(at) => self.slots[at].1,
            Err(at) => {
                self.sources.push(OpenSource {
                    names: (machine.clone(), monitor.clone()),
                    active: false,
                    frames: 0,
                    rows: 0,
                    handover_rows: 0,
                    sums: Vec::new(),
                });
                self.slots.insert(at, (key, self.sources.len() - 1));
                self.sources.len() - 1
            }
        };
        let src = &mut self.sources[i];
        if !src.active {
            src.active = true;
            self.active.push(i);
        }
        src
    }
}

impl OpenSource {
    /// Add one finite sample of column `col`.
    fn add(&mut self, col: SymId, v: f64) {
        match self.sums.iter_mut().find(|(c, _, _)| *c == col) {
            Some((_, sum, n)) => {
                *sum += v;
                *n += 1;
            }
            None => self.sums.push((col, v, 1)),
        }
    }

    /// This window's aggregates, leaving the source empty (its buffer
    /// kept) for the next window.
    fn close(&mut self) -> WindowStats {
        let stats = WindowStats {
            frames: self.frames,
            rows: self.rows,
            handover_rows: self.handover_rows,
            sums: self.sums.as_slice().into(),
        };
        self.active = false;
        self.frames = 0;
        self.rows = 0;
        self.handover_rows = 0;
        self.sums.clear();
        stats
    }
}

impl ClusterWindowSink {
    /// `window` is the number of frames folded into each summary
    /// (must be ≥ 1).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one frame");
        ClusterWindowSink {
            window,
            peak: 0,
            windows: Vec::new(),
            dedupe: BTreeMap::new(),
            open: OpenWindow::default(),
        }
    }

    /// Register migration handovers so fleet-wide aggregates count each
    /// migrating job **once** at its handover instant: the destination-side
    /// row (the zero-elapsed first observation) is excluded from the
    /// column sums and counted in [`WindowStats::handover_rows`] instead.
    /// Feed it [`ClusterSession::handovers`] — for scripted migrations the
    /// records exist right after `build()`; a reactive run's records only
    /// exist after the run, so reactive consumers dedupe in post.
    ///
    /// Exclusion is keyed by `(instant, destination machine, command)`:
    /// keep commands unique per machine at a handover instant (the
    /// repository-wide tag == comm convention does this) or unrelated
    /// same-named rows on the destination would be skipped too. It also
    /// assumes the *source* machine observes at the handover instant —
    /// true whenever both machines' monitor intervals divide the scripted
    /// migration time (the common shared-interval fleet). If only the
    /// destination happens to observe then, there is no double-count and
    /// its row is still excluded, leaving the job unaggregated for that
    /// one instant.
    pub fn dedupe_handovers(mut self, handovers: impl IntoIterator<Item = HandoverRecord>) -> Self {
        for h in handovers {
            self.dedupe
                .entry(h.at)
                .or_default()
                .push((symbols::intern(&h.to), h.comm));
        }
        self
    }

    /// The most frames ever folded into one open window (≤ the window
    /// size, by construction — the memory-bound guarantee, asserted in
    /// tests). No raw frame is buffered at all; this counts the frames
    /// the open aggregate currently summarizes.
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Handover-dedupe instants still registered (not yet passed by the
    /// stream) — bounded-memory proof hook for tests.
    pub fn pending_dedupe_instants(&self) -> usize {
        self.dedupe.len()
    }

    /// Windows folded so far (the still-buffered tail is not included
    /// until [`ClusterWindowSink::finish`]).
    pub fn windows(&self) -> &[ClusterWindow] {
        &self.windows
    }

    /// Flush the partial final window and return every summary.
    pub fn finish(mut self) -> Vec<ClusterWindow> {
        self.close_window();
        self.windows
    }

    /// Fold one frame's rows into the open window. A row's command is
    /// compared only if this instant has registered handovers.
    fn fold(&mut self, machine: &Label, source: &Label, time: SimTime, rows: &[Row]) {
        // Drop dedupe instants the stream has moved past — frames arrive
        // in nondecreasing time, so an earlier instant can never match
        // again. This is what keeps a long reactive run's dedupe map from
        // growing without bound.
        while self
            .dedupe
            .first_key_value()
            .is_some_and(|(at, _)| *at < time)
        {
            self.dedupe.pop_first();
        }

        let ow = &mut self.open;
        if ow.frames == 0 {
            ow.start = time;
        }
        ow.end = time;
        ow.frames += 1;
        self.peak = self.peak.max(ow.frames);
        let full = ow.frames >= self.window;

        let dedupe = self.dedupe.get(&time);
        let stats = ow.source(machine, source);
        let machine = machine.sym();
        stats.frames += 1;
        for row in rows {
            let is_handover =
                dedupe.is_some_and(|d| d.iter().any(|(to, c)| *to == machine && row.comm == *c));
            if is_handover {
                stats.handover_rows += 1;
                continue;
            }
            stats.rows += 1;
            for &(col, v) in &row.values {
                if v.is_finite() {
                    stats.add(col, v);
                }
            }
        }

        if full {
            self.close_window();
        }
    }

    /// Close the open window: each of its sources' labels are shared from
    /// the sink's cache, and its aggregates are copied out at exact size.
    fn close_window(&mut self) {
        let ow = &mut self.open;
        if ow.frames == 0 {
            return;
        }
        let sources = ow
            .active
            .drain(..)
            .map(|i| {
                let src = &mut ow.sources[i];
                (src.names.clone(), src.close())
            })
            .collect();
        self.windows.push(ClusterWindow {
            index: self.windows.len(),
            start: ow.start,
            end: ow.end,
            frames: ow.frames,
            sources,
        });
        ow.frames = 0;
    }
}

impl ClusterFrameSink for ClusterWindowSink {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.fold(
            &frame.machine,
            &frame.source,
            frame.frame.time,
            &frame.frame.rows,
        );
    }
}
