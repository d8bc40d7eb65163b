//! Text rendering of statistics and experiment tables.
//!
//! The Rainbow GUI displays "transaction processing output" (Figure 5) and
//! lets the user view statistics via the *Tx Processing* menu. This module
//! renders the same information as plain text so examples, benches and test
//! logs can show it, and provides a small fixed-width table builder used by
//! every experiment binary so their output is uniform and easy to diff
//! between runs.

use crate::runners::SweepReport;
use rainbow_common::stats::StatsSnapshot;
use rainbow_common::txn::AbortLayer;
use rainbow_common::{RainbowError, RainbowResult};
use std::fmt::Write as _;

/// Renders the Figure-5-style transaction processing output panel.
pub fn render_stats_panel(title: &str, stats: &StatsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Rainbow Tx Processing Output: {title} ===");
    let _ = writeln!(out, "submitted transactions      : {}", stats.submitted);
    let _ = writeln!(out, "committed transactions      : {}", stats.committed);
    let _ = writeln!(out, "aborted transactions        : {}", stats.aborted);
    let _ = writeln!(out, "orphan transactions         : {}", stats.orphans);
    let _ = writeln!(out, "restarted transactions      : {}", stats.restarted);
    let _ = writeln!(
        out,
        "commit rate                 : {:.3}",
        stats.commit_rate()
    );
    let _ = writeln!(
        out,
        "abort rate                  : {:.3}",
        stats.abort_rate()
    );
    for layer in [
        AbortLayer::Rcp,
        AbortLayer::Ccp,
        AbortLayer::Acp,
        AbortLayer::Other,
    ] {
        let _ = writeln!(
            out,
            "  abort rate due to {:<9}: {:.3} ({} aborts)",
            layer.to_string(),
            stats.abort_rate_for(layer),
            stats.aborts.layer(layer)
        );
    }
    let _ = writeln!(
        out,
        "throughput (commit/s)       : {:.1}",
        stats.throughput()
    );
    let _ = writeln!(
        out,
        "response time mean/p95/p99  : {:.2} / {:.2} / {:.2} ms",
        stats.response_time.mean_us / 1000.0,
        stats.response_time.p95_us as f64 / 1000.0,
        stats.response_time.p99_us as f64 / 1000.0
    );
    let _ = writeln!(out, "messages sent               : {}", stats.messages.sent);
    let _ = writeln!(
        out,
        "messages per second         : {:.1}",
        stats.messages_per_sec()
    );
    let _ = writeln!(
        out,
        "messages per transaction    : {:.2}",
        stats.messages_per_txn()
    );
    let _ = writeln!(
        out,
        "round-trip messages         : {}",
        stats.messages.round_trips
    );
    let _ = writeln!(
        out,
        "load imbalance (cv)         : {:.3}",
        stats.load.imbalance()
    );
    if !stats.phases.is_empty() {
        let _ = writeln!(out, "phase latency p50/p95/p99/p999 (ms):");
        for (name, phase) in &stats.phases {
            let _ = writeln!(
                out,
                "  {name:<12} {:.3} / {:.3} / {:.3} / {:.3}  (n={})",
                phase.p50_us as f64 / 1000.0,
                phase.p95_us as f64 / 1000.0,
                phase.p99_us as f64 / 1000.0,
                phase.p999_us as f64 / 1000.0,
                phase.count
            );
        }
    }
    if !stats.messages.by_kind.is_empty() {
        let _ = writeln!(out, "messages by kind:");
        for (kind, count) in &stats.messages.by_kind {
            let _ = writeln!(out, "  {kind:<20} {count}");
        }
    }
    out
}

/// Renders a protocol sweep as the standard fixed-width table: one row per
/// (protocol, workload, fault) cell with the availability and latency
/// columns the replication experiments compare.
pub fn sweep_table(title: &str, report: &SweepReport) -> ExperimentTable {
    let mut headers = vec![
        "RCP",
        "workload",
        "fault",
        "commit%",
        "committed",
        "aborted",
        "orphans",
        "rt-p50 ms",
        "rt-p95 ms",
        "msgs/txn",
        "top abort cause",
    ];
    // Per-phase p95 columns, in breakdown order. Cells measured without
    // tracing render "-".
    let phase_headers: Vec<String> = rainbow_trace::Phase::ALL
        .iter()
        .map(|p| format!("{} p95 ms", p.name()))
        .collect();
    headers.extend(phase_headers.iter().map(|h| h.as_str()));
    let mut table = ExperimentTable::new(title, &headers);
    for cell in &report.cells {
        let top_cause = cell
            .abort_causes
            .iter()
            .max_by_key(|(_, count)| **count)
            .map(|(cause, count)| format!("{cause} ({count})"))
            .unwrap_or_else(|| "-".into());
        let mut row = vec![
            cell.protocol.clone(),
            cell.profile.clone(),
            cell.fault.clone(),
            format!("{:.1}", cell.commit_rate * 100.0),
            cell.committed.to_string(),
            cell.aborted.to_string(),
            cell.orphans.to_string(),
            format!("{:.2}", cell.latency.p50_ms),
            format!("{:.2}", cell.latency.p95_ms),
            format!("{:.1}", cell.messages_per_txn),
            top_cause,
        ];
        for phase in rainbow_trace::Phase::ALL {
            row.push(match cell.phases.get(phase.name()) {
                Some(stats) => format!("{:.3}", stats.p95_us as f64 / 1000.0),
                None => "-".into(),
            });
        }
        table.row(&row);
    }
    table
}

/// Serializes a protocol sweep to the pretty JSON written to
/// `BENCH_protocols.json`; each cell's `phases` holds its per-phase latency
/// percentiles.
pub fn sweep_to_json(report: &SweepReport) -> RainbowResult<String> {
    serde_json::to_string_pretty(report).map_err(|e| RainbowError::Serialization(e.to_string()))
}

/// A fixed-width table used by the experiment binaries to print the series
/// the paper's evaluation would report.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ExperimentTable {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are stringified by the caller).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there is no data row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "--- {} ---", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .take(columns)
                .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::stats::{AbortBreakdown, LatencyStats};
    use std::time::Duration;

    fn sample_stats() -> StatsSnapshot {
        let mut aborts = AbortBreakdown::default();
        aborts.record(AbortLayer::Ccp, "deadlock");
        let mut snapshot = StatsSnapshot {
            submitted: 10,
            committed: 8,
            aborted: 2,
            orphans: 0,
            restarted: 1,
            aborts,
            elapsed_secs: 2.0,
            response_time: LatencyStats::from_samples(&[
                Duration::from_millis(5),
                Duration::from_millis(10),
            ]),
            ..Default::default()
        };
        snapshot.messages.sent = 120;
        snapshot.messages.by_kind.insert("ACP_PREPARE".into(), 24);
        snapshot.load.served_requests.insert(0, 60);
        snapshot.load.served_requests.insert(1, 60);
        snapshot
    }

    #[test]
    fn stats_panel_contains_every_headline_number() {
        let panel = render_stats_panel("unit test", &sample_stats());
        assert!(panel.contains("committed transactions      : 8"));
        assert!(panel.contains("aborted transactions        : 2"));
        assert!(panel.contains("commit rate                 : 0.800"));
        assert!(panel.contains("CCP"));
        assert!(panel.contains("messages sent               : 120"));
        assert!(panel.contains("ACP_PREPARE"));
        assert!(panel.contains("throughput"));
    }

    #[test]
    fn experiment_table_renders_aligned_columns() {
        let mut table = ExperimentTable::new("quorum traffic", &["degree", "msgs/txn", "winner"]);
        assert!(table.is_empty());
        table.row(&["1".into(), "3.0".into(), "ROWA".into()]);
        table.row(&["5".into(), "17.5".into(), "QC".into()]);
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("--- quorum traffic ---"));
        assert!(rendered.contains("degree"));
        assert!(rendered.contains("msgs/txn"));
        assert!(rendered.contains("ROWA"));
        assert!(rendered.contains("17.5"));
        // Header separator present.
        assert!(rendered.contains("------"));
    }

    #[test]
    fn sweep_table_and_json_expose_every_cell() {
        use crate::runners::{LatencySummary, SweepCell, SweepReport};
        let cell = SweepCell {
            protocol: "QC".into(),
            profile: "write-heavy".into(),
            fault: "1-site-down".into(),
            affected_sites: vec![4],
            transactions: 40,
            committed: 36,
            aborted: 4,
            orphans: 0,
            commit_rate: 0.9,
            throughput: 55.0,
            abort_causes: [("rcp-quorum-unavailable".to_string(), 4u64)]
                .into_iter()
                .collect(),
            latency: LatencySummary {
                mean_ms: 4.0,
                p50_ms: 3.5,
                p95_ms: 9.0,
                p99_ms: 12.0,
            },
            messages_per_txn: 17.5,
            phases: [(
                "quorum-read".to_string(),
                LatencyStats {
                    count: 80,
                    p50_us: 900,
                    p95_us: 2500,
                    p99_us: 3100,
                    p999_us: 4200,
                    ..Default::default()
                },
            )]
            .into_iter()
            .collect(),
        };
        let phases = cell.phases.clone();
        let report = SweepReport {
            sites: 5,
            items: 10,
            replication_degree: 5,
            transactions_per_cell: 40,
            mpl: 6,
            seed: 42,
            cells: vec![cell],
        };
        let rendered = sweep_table("sweep", &report).render();
        assert!(rendered.contains("QC"));
        assert!(rendered.contains("1-site-down"));
        assert!(rendered.contains("90.0"));
        assert!(rendered.contains("rcp-quorum-unavailable (4)"));
        // Phase columns: the measured quorum-read p95 in ms, "-" for the
        // phases this cell has no histogram for.
        assert!(rendered.contains("quorum-read p95 ms"));
        assert!(rendered.contains("2.500"));
        assert!(rendered.contains("wal-force p95 ms"));

        let json = sweep_to_json(&report).unwrap();
        assert!(json.contains("\"commit_rate\""));
        assert!(json.contains("\"p95_ms\""));
        assert!(json.contains("\"protocol\""));
        // The JSON round-trips through the sweep types.
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].protocol, "QC");
        assert_eq!(back.cells[0].latency.p95_ms, 9.0);
        // Every phase percentile survives the round trip: the sweep JSON is
        // the one record of where each cell spent its time.
        assert_eq!(back.cells[0].phases, phases);
    }

    #[test]
    fn table_handles_rows_wider_than_headers() {
        let mut table = ExperimentTable::new("t", &["a"]);
        table.row(&["a-very-long-cell".into()]);
        let rendered = table.render();
        assert!(rendered.contains("a-very-long-cell"));
    }
}
