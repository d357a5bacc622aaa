//! Reporting helpers shared by every experiment: labelled series, aligned
//! tables and quick ASCII plots.

use std::fmt::Write as _;

/// A labelled `(x, y)` series — one curve of a figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64
    }

    /// Mean of y over samples whose x lies in `[x0, x1)`.
    pub fn mean_in(&self, x0: f64, x1: f64) -> f64 {
        let ys: Vec<f64> = self
            .points
            .iter()
            .filter(|(x, _)| *x >= x0 && *x < x1)
            .map(|(_, y)| *y)
            .collect();
        if ys.is_empty() {
            0.0
        } else {
            ys.iter().sum::<f64>() / ys.len() as f64
        }
    }

    pub fn min_y(&self) -> f64 {
        self.points
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn max_y(&self) -> f64 {
        self.points
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn last_x(&self) -> f64 {
        self.points.last().map(|(x, _)| *x).unwrap_or(0.0)
    }

    /// Population standard deviation of y (0 for empty).
    pub fn stddev_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .points
            .iter()
            .map(|(_, y)| (y - m) * (y - m))
            .sum::<f64>()
            / self.points.len() as f64;
        var.sqrt()
    }
}

/// One figure panel: a labelled set of curves (e.g. one machine's view of a
/// benchmark).
#[derive(Clone, Debug)]
pub struct Panel {
    pub label: String,
    pub series: Vec<Series>,
}

/// A multi-panel figure — the Figs 3/6–8 shape: the same curves regenerated
/// once per machine (or per configuration), rendered together.
#[derive(Clone, Debug, Default)]
pub struct PanelSet {
    pub title: String,
    pub panels: Vec<Panel>,
}

impl PanelSet {
    pub fn new(title: impl Into<String>) -> Self {
        PanelSet {
            title: title.into(),
            panels: Vec::new(),
        }
    }

    pub fn panel(&mut self, label: impl Into<String>, series: Vec<Series>) {
        self.panels.push(Panel {
            label: label.into(),
            series,
        });
    }

    pub fn panel_series(&self, label: &str) -> Option<&[Series]> {
        self.panels
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.series.as_slice())
    }

    /// One ASCII plot per panel, under a common figure title.
    pub fn render(&self, width: usize, height: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        for p in &self.panels {
            out.push_str(&ascii_plot(&p.label, &p.series, width, height));
        }
        out
    }
}

/// A quick dot-matrix ASCII plot of one or more series (distinct glyphs per
/// series), with y-axis labels. Good enough to eyeball figure shapes in a
/// terminal.
pub fn ascii_plot(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y1 = y1.max(y);
            y0 = y0.min(y);
        }
    }
    if !x0.is_finite() || !y1.is_finite() || x1 <= x0 {
        return format!("{title}: (no data)\n");
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = g;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{}={}", glyphs[i % glyphs.len()], s.label))
        .collect();
    let _ = writeln!(out, "  [{}]", legend.join("  "));
    for (i, row) in grid.iter().enumerate() {
        let yv = y1 - (y1 - y0) * i as f64 / (height - 1) as f64;
        let _ = writeln!(out, "{yv:>8.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "         +{}\n          x: {:.1} .. {:.1}",
        "-".repeat(width),
        x0,
        x1
    );
    out
}

/// An aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TableReport {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TableReport {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let s = Series::new("s", vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.mean_in(0.5, 2.5), 2.5);
        assert_eq!(s.min_y(), 1.0);
        assert_eq!(s.max_y(), 3.0);
        assert_eq!(s.last_x(), 2.0);
    }

    #[test]
    fn panel_set_renders_and_dumps_per_panel() {
        let mut fig = PanelSet::new("Fig X");
        fig.panel(
            "Nehalem",
            vec![Series::new("IPC", vec![(0.0, 1.0), (1.0, 2.0)])],
        );
        fig.panel(
            "PPC970",
            vec![Series::new("IPC", vec![(0.0, 0.5), (1.0, 0.6)])],
        );
        let text = fig.render(30, 8);
        assert!(text.contains("=== Fig X ==="));
        assert!(text.contains("Nehalem") && text.contains("PPC970"));
        assert_eq!(fig.panel_series("PPC970").unwrap().len(), 1);
    }

    #[test]
    fn series_stddev() {
        let flat = Series::new("flat", vec![(0.0, 2.0), (1.0, 2.0)]);
        assert_eq!(flat.stddev_y(), 0.0);
        let swing = Series::new("swing", vec![(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(swing.stddev_y(), 1.0);
        assert_eq!(Series::new("e", vec![]).stddev_y(), 0.0);
    }

    #[test]
    fn plot_renders_all_series() {
        let a = Series::new("up", (0..10).map(|i| (i as f64, i as f64)).collect());
        let b = Series::new(
            "down",
            (0..10).map(|i| (i as f64, 9.0 - i as f64)).collect(),
        );
        let p = ascii_plot("cross", &[a, b], 40, 10);
        assert!(p.contains("*=up"));
        assert!(p.contains("+=down"));
        assert!(p.contains('*') && p.contains('+'));
    }

    #[test]
    fn plot_handles_empty() {
        assert!(ascii_plot("none", &[], 10, 5).contains("no data"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TableReport::new("T", &["name", "ipc"]);
        t.row(vec!["x87".into(), "1.33".into()]);
        t.row(vec!["sse-long".into(), "0.01".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_mismatched_rows() {
        let mut t = TableReport::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
