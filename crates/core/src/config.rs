//! Screen and column configuration.
//!
//! A *screen* is an ordered list of columns; numeric columns are defined by
//! metric [`Expr`]essions over counter deltas, so users can add any ratio
//! their hardware can count (§2.2: "The collected events and displayed
//! ratios are fully customizable"). The default screen reproduces the
//! paper's Figure 1 layout:
//!
//! ```text
//! PID USER %CPU Mcycle Minst IPC DMIS COMMAND
//! ```
//!
//! Screens can be built programmatically or parsed from a small text format
//! (one column per line):
//!
//! ```text
//! screen "default"
//! col PID
//! col USER
//! col %CPU
//! col "Mcycle" 8 M  = CYCLES
//! col "Minst"  8 M  = INSTRUCTIONS
//! col "IPC"    5 .2 = INSTRUCTIONS / CYCLES
//! col "DMIS"   5 .1 = 100 * CACHE_MISSES / INSTRUCTIONS
//! col COMMAND
//! ```

use std::collections::BTreeSet;
use std::sync::LazyLock;

use tiptop_machine::pmu::HwEvent;

use crate::events::parse_event;
use crate::expr::Expr;

/// How a numeric cell is formatted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumFormat {
    /// Fixed decimals, e.g. `1.97`.
    Float(u8),
    /// Integer.
    Int,
    /// Divide by 10⁶ and print as integer — the paper's `Mcycle`/`Minst`.
    Millions,
}

impl NumFormat {
    pub fn render(self, v: f64) -> String {
        if v.is_nan() || v.is_infinite() {
            return "-".to_string();
        }
        match self {
            NumFormat::Float(d) => format!("{v:.*}", d as usize),
            NumFormat::Int => format!("{:.0}", v),
            NumFormat::Millions => format!("{:.0}", v / 1e6),
        }
    }
}

/// What a column shows.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnKind {
    Pid,
    User,
    CpuPct,
    State,
    /// PU the task last ran on.
    Processor,
    Comm,
    /// A metric over counter deltas.
    Metric {
        expr: Expr,
        format: NumFormat,
    },
}

/// One column of a screen.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnSpec {
    pub header: String,
    pub width: usize,
    pub kind: ColumnKind,
}

impl ColumnSpec {
    pub fn metric(
        header: impl Into<String>,
        width: usize,
        format: NumFormat,
        expr_src: &str,
    ) -> Result<ColumnSpec, String> {
        let expr = Expr::parse(expr_src).map_err(|e| e.to_string())?;
        Ok(ColumnSpec {
            header: header.into(),
            width,
            kind: ColumnKind::Metric { expr, format },
        })
    }
}

/// A complete screen.
#[derive(Clone, Debug, PartialEq)]
pub struct ScreenConfig {
    pub name: String,
    pub columns: Vec<ColumnSpec>,
}

impl ScreenConfig {
    /// The paper's Figure 1 screen. Its metrics are parsed once per
    /// process; every call returns a copy.
    pub fn default_screen() -> ScreenConfig {
        static DEFAULT: LazyLock<ScreenConfig> = LazyLock::new(ScreenConfig::figure_1);
        DEFAULT.clone()
    }

    fn figure_1() -> ScreenConfig {
        ScreenConfig {
            name: "default".to_string(),
            columns: vec![
                ColumnSpec {
                    header: "PID".into(),
                    width: 6,
                    kind: ColumnKind::Pid,
                },
                ColumnSpec {
                    header: "USER".into(),
                    width: 8,
                    kind: ColumnKind::User,
                },
                ColumnSpec {
                    header: "%CPU".into(),
                    width: 5,
                    kind: ColumnKind::CpuPct,
                },
                ColumnSpec::metric("Mcycle", 8, NumFormat::Millions, "CYCLES").unwrap(),
                ColumnSpec::metric("Minst", 8, NumFormat::Millions, "INSTRUCTIONS").unwrap(),
                ColumnSpec::metric("IPC", 5, NumFormat::Float(2), "INSTRUCTIONS / CYCLES").unwrap(),
                ColumnSpec::metric(
                    "DMIS",
                    5,
                    NumFormat::Float(1),
                    "100 * CACHE_MISSES / INSTRUCTIONS",
                )
                .unwrap(),
                ColumnSpec {
                    header: "COMMAND".into(),
                    width: 12,
                    kind: ColumnKind::Comm,
                },
            ],
        }
    }

    /// Plain `top`'s screen: pid, user, `%CPU`, command — the default
    /// screen without its metric columns. It reads no counters, which is
    /// the paper's motivating blind spot: nothing below the scheduler.
    pub fn top_screen() -> ScreenConfig {
        let mut s = Self::default_screen();
        s.name = "top".to_string();
        s.columns
            .retain(|c| !matches!(c.kind, ColumnKind::Metric { .. }));
        s
    }

    /// The §3.1 screen: default plus the `%ASS` FP-assist column the author
    /// added to trace the R anomaly ("We added a new column to tiptop in
    /// order to trace simultaneously IPC and FP assist events").
    pub fn fp_assist_screen() -> ScreenConfig {
        let mut s = Self::default_screen();
        s.name = "fp-assist".to_string();
        let comm = s.columns.pop().unwrap();
        s.columns.push(
            ColumnSpec::metric(
                "%ASS",
                6,
                NumFormat::Float(2),
                "100 * FP_ASSIST / INSTRUCTIONS",
            )
            .unwrap(),
        );
        s.columns.push(comm);
        s
    }

    /// A memory-hierarchy screen used by the §3.4 interference experiments.
    pub fn cache_screen() -> ScreenConfig {
        ScreenConfig {
            name: "cache".to_string(),
            columns: vec![
                ColumnSpec {
                    header: "PID".into(),
                    width: 6,
                    kind: ColumnKind::Pid,
                },
                ColumnSpec {
                    header: "P".into(),
                    width: 2,
                    kind: ColumnKind::Processor,
                },
                ColumnSpec {
                    header: "%CPU".into(),
                    width: 5,
                    kind: ColumnKind::CpuPct,
                },
                ColumnSpec::metric("IPC", 5, NumFormat::Float(2), "INSTRUCTIONS / CYCLES").unwrap(),
                ColumnSpec::metric(
                    "L2/100",
                    7,
                    NumFormat::Float(2),
                    "100 * L2_MISSES / INSTRUCTIONS",
                )
                .unwrap(),
                ColumnSpec::metric(
                    "L3/100",
                    7,
                    NumFormat::Float(2),
                    "100 * CACHE_MISSES / INSTRUCTIONS",
                )
                .unwrap(),
                ColumnSpec {
                    header: "COMMAND".into(),
                    width: 12,
                    kind: ColumnKind::Comm,
                },
            ],
        }
    }

    /// Hardware events all metric columns need (the set of counters the
    /// collector opens per task).
    pub fn required_events(&self) -> Vec<HwEvent> {
        let mut set = BTreeSet::new();
        for col in &self.columns {
            if let ColumnKind::Metric { expr, .. } = &col.kind {
                for ident in expr.idents() {
                    if let Some(e) = parse_event(&ident) {
                        set.insert(e.index());
                    }
                    // Non-event identifiers (DELTA_T, %CPU, TIME) are
                    // builtins supplied by the app, not counters.
                }
            }
        }
        set.into_iter()
            .map(|i| tiptop_machine::pmu::ALL_EVENTS[i])
            .collect()
    }

    /// Parse the text format described in the module docs.
    pub fn parse(text: &str) -> Result<ScreenConfig, String> {
        let mut name = "custom".to_string();
        let mut columns = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: String| format!("line {}: {m}", lineno + 1);
            if let Some(rest) = line.strip_prefix("screen") {
                name = rest.trim().trim_matches('"').to_string();
                continue;
            }
            let rest = line
                .strip_prefix("col")
                .ok_or_else(|| err(format!("expected 'col' or 'screen', got '{line}'")))?
                .trim();
            // Builtin columns.
            let builtin = match rest {
                "PID" => Some((ColumnKind::Pid, 6)),
                "USER" => Some((ColumnKind::User, 8)),
                "%CPU" => Some((ColumnKind::CpuPct, 5)),
                "STATE" => Some((ColumnKind::State, 2)),
                "P" | "PROCESSOR" => Some((ColumnKind::Processor, 2)),
                "COMMAND" => Some((ColumnKind::Comm, 12)),
                _ => None,
            };
            if let Some((kind, width)) = builtin {
                columns.push(ColumnSpec {
                    header: rest.to_string(),
                    width,
                    kind,
                });
                continue;
            }
            // Metric columns: "HDR" WIDTH FMT = EXPR
            let (head, expr_src) = rest
                .split_once('=')
                .ok_or_else(|| err("metric column needs '= expr'".to_string()))?;
            let mut parts = head.split_whitespace();
            let header = parts
                .next()
                .ok_or_else(|| err("missing header".to_string()))?
                .trim_matches('"')
                .to_string();
            let width: usize = parts
                .next()
                .ok_or_else(|| err("missing width".to_string()))?
                .parse()
                .map_err(|_| err("bad width".to_string()))?;
            let fmt_s = parts
                .next()
                .ok_or_else(|| err("missing format".to_string()))?;
            let format = if fmt_s == "M" {
                NumFormat::Millions
            } else if fmt_s == "i" {
                NumFormat::Int
            } else if let Some(d) = fmt_s.strip_prefix('.') {
                NumFormat::Float(d.parse().map_err(|_| err("bad decimals".to_string()))?)
            } else {
                return Err(err(format!("unknown format '{fmt_s}' (use M, i, or .N)")));
            };
            let expr = Expr::parse(expr_src.trim()).map_err(|e| err(e.to_string()))?;
            columns.push(ColumnSpec {
                header,
                width,
                kind: ColumnKind::Metric { expr, format },
            });
        }
        if columns.is_empty() {
            return Err("no columns defined".to_string());
        }
        Ok(ScreenConfig { name, columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_screen_matches_fig1_layout() {
        let s = ScreenConfig::default_screen();
        let headers: Vec<&str> = s.columns.iter().map(|c| c.header.as_str()).collect();
        assert_eq!(
            headers,
            vec!["PID", "USER", "%CPU", "Mcycle", "Minst", "IPC", "DMIS", "COMMAND"]
        );
    }

    #[test]
    fn required_events_cover_all_metric_columns() {
        let s = ScreenConfig::default_screen();
        let evs = s.required_events();
        assert!(evs.contains(&HwEvent::Cycles));
        assert!(evs.contains(&HwEvent::Instructions));
        assert!(evs.contains(&HwEvent::CacheMisses));
        assert_eq!(evs.len(), 3, "no spurious counters: {evs:?}");
    }

    #[test]
    fn fp_screen_adds_assist_counter() {
        let s = ScreenConfig::fp_assist_screen();
        assert!(s.required_events().contains(&HwEvent::FpAssists));
        assert_eq!(
            s.columns.last().unwrap().header,
            "COMMAND",
            "COMMAND stays last"
        );
    }

    #[test]
    fn formats_render() {
        assert_eq!(NumFormat::Float(2).render(1.966), "1.97");
        assert_eq!(NumFormat::Millions.render(26_456_000_000.0), "26456");
        assert_eq!(NumFormat::Int.render(42.4), "42");
        assert_eq!(NumFormat::Float(2).render(f64::NAN), "-");
        assert_eq!(NumFormat::Float(2).render(f64::INFINITY), "-");
    }

    #[test]
    fn parse_round_trips_the_default_layout() {
        let text = r#"
screen "default"
col PID
col USER
col %CPU
col "Mcycle" 8 M  = CYCLES
col "Minst"  8 M  = INSTRUCTIONS
col "IPC"    5 .2 = INSTRUCTIONS / CYCLES
col "DMIS"   5 .1 = 100 * CACHE_MISSES / INSTRUCTIONS
col COMMAND
"#;
        let s = ScreenConfig::parse(text).unwrap();
        assert_eq!(s, ScreenConfig::default_screen());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ScreenConfig::parse("nonsense").is_err());
        assert!(
            ScreenConfig::parse("col \"X\" 5 .2").is_err(),
            "missing expr"
        );
        assert!(
            ScreenConfig::parse("col \"X\" w .2 = 1").is_err(),
            "bad width"
        );
        assert!(
            ScreenConfig::parse("col \"X\" 5 q = 1").is_err(),
            "bad format"
        );
        assert!(
            ScreenConfig::parse("# only comments\n").is_err(),
            "no columns"
        );
        assert!(
            ScreenConfig::parse("col \"X\" 5 .2 = 1 +").is_err(),
            "bad expr"
        );
    }

    #[test]
    fn parse_supports_custom_raw_events() {
        let s = ScreenConfig::parse("col PID\ncol \"ASS\" 6 .2 = 100 * FP_ASSIST / INSTRUCTIONS\n")
            .unwrap();
        assert!(s.required_events().contains(&HwEvent::FpAssists));
    }
}
