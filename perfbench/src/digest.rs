//! Output digests: a word-at-a-time checksum over the merged frame stream
//! (or over the window aggregates a windowed sink keeps), so one number
//! pins a whole run's output.

use tiptop_core::cluster::{ClusterFrame, ClusterFrameSink, ClusterWindow};
use tiptop_core::reactive::AppliedDecision;
use tiptop_core::render::Frame;

/// A 64-bit streaming checksum; not cryptographic, only a change detector.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    fn frame(&mut self, f: &Frame) {
        self.u64(f.time.0);
        for (name, width) in f.headers.iter() {
            self.str(name);
            self.u64(*width as u64);
        }
        for row in &f.rows {
            self.u64(row.pid.0 as u64);
            self.str(&row.user);
            self.str(&row.comm);
            self.f64(row.cpu_pct);
            for &(_, v) in &row.values {
                self.f64(v);
            }
        }
        self.u64(f.unobservable as u64);
    }

    /// Fold in the decisions of a reactive run.
    pub fn decisions(&mut self, decisions: &[AppliedDecision]) {
        for d in decisions {
            self.str(&d.policy);
            self.str(&d.tag);
            self.str(&d.from);
            self.str(&d.to);
            self.str(d.mode.label());
            self.u64(d.decided_at.0);
            self.u64(d.applied_at.0);
        }
    }

    /// Fold in a windowed sink's closed windows.
    pub fn windows(&mut self, windows: &[ClusterWindow]) {
        for w in windows {
            self.u64(w.index as u64);
            self.u64(w.start.0);
            self.u64(w.end.0);
            self.u64(w.frames as u64);
            for ((machine, monitor), stats) in &w.sources {
                self.str(machine);
                self.str(monitor);
                self.u64(stats.frames as u64);
                self.u64(stats.rows as u64);
                self.u64(stats.handover_rows as u64);
                for column in stats.columns() {
                    self.str(&column);
                    self.f64(stats.mean(&column).unwrap_or(f64::NAN));
                }
            }
        }
    }
}

/// A sink that folds every merged frame, labels and all, into a digest
/// and keeps nothing else.
#[derive(Default)]
pub struct DigestSink {
    pub digest: Digest,
}

impl ClusterFrameSink for DigestSink {
    fn on_frame(&mut self, cf: ClusterFrame) {
        let d = &mut self.digest;
        d.str(&cf.machine);
        d.u64(cf.machine_index as u64);
        d.str(&cf.source);
        d.u64(cf.seq as u64);
        d.frame(&cf.frame);
    }
}
