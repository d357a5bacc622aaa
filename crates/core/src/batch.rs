//! Columnar frame batches: frames stored in columns — per-frame metadata
//! keyed by interned [`SymId`]s (machine id, monitor name) beside one flat
//! row column — for sinks that take a run of the merged stream at once
//! through [`ClusterFrameSink::on_batch`].
//!
//! No cluster driver produces batches any more: the round driver delivers
//! each frame through [`ClusterFrameSink::on_frame`]. The type stays for
//! sinks that implement or forward `on_batch`, whose default materializes
//! each [`ClusterFrame`] via [`FrameBatch::take_frame`], moving the rows
//! out without copying.
//!
//! [`ClusterFrameSink::on_batch`]: crate::cluster::ClusterFrameSink::on_batch
//! [`ClusterFrameSink::on_frame`]: crate::cluster::ClusterFrameSink::on_frame

use std::sync::Arc;

use tiptop_machine::time::SimTime;

use crate::cluster::ClusterFrame;
use crate::render::{Frame, Row};
use crate::symbols::{self, SymId};

/// Per-frame metadata inside a [`FrameBatch`]; rows live in the batch's
/// flat row column.
#[derive(Debug)]
struct FrameMeta {
    machine: SymId,
    machine_index: usize,
    source: SymId,
    seq: usize,
    time: SimTime,
    unobservable: usize,
    headers: Arc<[(String, usize)]>,
    rows_start: usize,
    rows_end: usize,
}

/// A batch of consecutive frames of the merged stream, stored columnar:
/// frame metadata (interned labels, times, row ranges) in one vector, all
/// rows flattened into another, in `(time, machine_index)` order.
#[derive(Debug, Default)]
pub struct FrameBatch {
    metas: Vec<FrameMeta>,
    rows: Vec<Row>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Append one frame, moving its rows into the flat column.
    pub fn push(
        &mut self,
        machine: SymId,
        machine_index: usize,
        source: SymId,
        seq: usize,
        frame: Frame,
    ) {
        let Frame {
            time,
            headers,
            rows,
            unobservable,
        } = frame;
        let rows_start = self.rows.len();
        self.rows.extend(rows);
        self.metas.push(FrameMeta {
            machine,
            machine_index,
            source,
            seq,
            time,
            unobservable,
            headers,
            rows_start,
            rows_end: self.rows.len(),
        });
    }

    /// Observation time of frame `i`.
    pub fn time(&self, i: usize) -> SimTime {
        self.metas[i].time
    }

    /// Machine declaration index of frame `i` (the merge tie-breaker).
    pub fn machine_index(&self, i: usize) -> usize {
        self.metas[i].machine_index
    }

    /// Materialize frame `i` as a labelled [`ClusterFrame`], moving its
    /// rows out of the column (each row is taken once; taking a frame twice
    /// yields empty rows). Labels resolve through the process-wide symbol
    /// table.
    pub fn take_frame(&mut self, i: usize) -> ClusterFrame {
        let m = &self.metas[i];
        let rows = self.rows[m.rows_start..m.rows_end]
            .iter_mut()
            .map(take_row)
            .collect();
        ClusterFrame {
            machine: symbols::resolve(m.machine).into(),
            machine_index: m.machine_index,
            source: symbols::resolve(m.source).into(),
            seq: m.seq,
            frame: Frame {
                time: m.time,
                headers: m.headers.clone(),
                rows,
                unobservable: m.unobservable,
            },
        }
    }
}

fn take_row(row: &mut Row) -> Row {
    std::mem::replace(
        row,
        Row::new(
            tiptop_kernel::task::Pid(0),
            String::new(),
            String::new(),
            0.0,
            Vec::new(),
            Vec::new(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::values_of;
    use tiptop_kernel::task::Pid;

    fn frame(t: u64, comms: &[&str]) -> Frame {
        let rows = comms
            .iter()
            .enumerate()
            .map(|(i, c)| {
                Row::new(
                    Pid(i as u32 + 1),
                    "u",
                    *c,
                    50.0,
                    vec![c.to_string()],
                    values_of([("IPC", 1.5)]),
                )
            })
            .collect();
        Frame {
            time: SimTime::from_secs(t),
            headers: vec![("COMMAND".to_string(), 12)].into(),
            rows,
            unobservable: 0,
        }
    }

    #[test]
    fn batch_roundtrips_frames_in_order() {
        let m = symbols::intern("batch-test-m0");
        let src = symbols::intern("tiptop");
        let mut b = FrameBatch::new();
        assert!(b.is_empty());
        b.push(m, 0, src, 0, frame(1, &["a", "b"]));
        b.push(m, 0, src, 1, frame(2, &["a"]));
        assert_eq!(b.len(), 2);
        assert_eq!((b.time(0), b.machine_index(0)), (SimTime::from_secs(1), 0));

        let f0 = b.take_frame(0);
        assert_eq!(f0.machine, "batch-test-m0");
        assert_eq!(f0.source, "tiptop");
        assert_eq!(f0.seq, 0);
        assert_eq!(f0.frame.rows.len(), 2);
        assert_eq!(f0.frame.rows[1].comm, "b");
        let f1 = b.take_frame(1);
        assert_eq!(f1.frame.time, SimTime::from_secs(2));
        assert_eq!(f1.frame.rows[0].cells(), vec!["a".to_string()]);
    }
}
