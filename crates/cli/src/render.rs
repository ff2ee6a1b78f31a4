//! Plain-text rendering for CLI output: the column [`Table`] plus the
//! pure [`render_response`] function that turns every `carta.api.v1`
//! [`Response`] into the text the CLI has always printed.

use carta_api::prelude::{
    AnalyzeReport, AudsleyRow, FuzzSummary, LoadSummary, OptimizeSummary, ProbAnalyzeReport,
    Response, SimulateSummary,
};
use carta_can::prob::ProbOutcome;
use carta_engine::prelude::CacheStats;
use carta_explore::diff::{AnalysisDiff, VerdictChange};
use carta_explore::network_choice::{cheapest_sufficient, BitRateOption};
use carta_explore::prelude::{LossCurve, ProbLossCurve, SensitivitySeries};
use carta_kmatrix::lint::Finding;
use std::fmt::Write as _;

type RenderResult = Result<String, std::fmt::Error>;

/// Renders a response as the CLI's plain text. Pure: the same
/// [`Response`] always yields the same bytes.
///
/// # Errors
///
/// Only formatter errors, which cannot occur when writing to `String`.
pub fn render_response(resp: &Response) -> RenderResult {
    match resp {
        Response::Matrix { csv } => Ok(csv.clone()),
        Response::Load(l) => render_load(l),
        Response::Analyze(a) => render_analyze(a),
        Response::Loss(curve) => render_loss(curve),
        Response::ProbAnalyze(a) => render_prob_analyze(a),
        Response::ProbLoss(curve) => render_prob_loss(curve),
        Response::Sensitivity(series) => Ok(render_sensitivity(series)),
        Response::Audsley(order) => Ok(render_audsley(order.as_deref())),
        Response::Optimize(o) => render_optimize(o),
        Response::Simulate(s) => render_simulate(s),
        Response::Dimension(options) => render_dimension(options),
        Response::Lint(findings) => render_lint(findings),
        Response::Diff(diff) => render_diff(diff),
        Response::Fuzz(f) => render_fuzz(f),
        Response::FuzzReplay(r) => Ok(format!(
            "repro ({}, seed {}) passes — the defect no longer reproduces\n",
            r.law, r.seed
        )),
    }
}

fn render_load(l: &LoadSummary) -> RenderResult {
    let mut out = String::new();
    writeln!(out, "messages: {}", l.messages)?;
    writeln!(out, "bit rate: {} kbit/s", l.bit_rate / 1000)?;
    writeln!(out, "backend: {}", l.backend)?;
    writeln!(
        out,
        "load (worst-case stuffing): {:.1} %",
        l.worst_util_percent
    )?;
    writeln!(
        out,
        "load (no stuffing):         {:.1} %",
        l.best_util_percent
    )?;
    writeln!(
        out,
        "note: the load model cannot decide schedulability — run `carta analyze`"
    )?;
    Ok(out)
}

fn render_analyze(a: &AnalyzeReport) -> RenderResult {
    let report = &a.report;
    let mut table = Table::new(["message", "id", "WCRT", "BCRT", "deadline", "verdict"]);
    for m in &report.messages {
        table.row([
            m.name.to_string(),
            m.id.to_string(),
            m.outcome
                .wcrt()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            m.outcome
                .bcrt()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            m.deadline.to_string(),
            if m.outcome.diagnostic().is_some() {
                "DIVERGED".into()
            } else if m.misses_deadline() {
                "LOST".into()
            } else {
                "ok".to_string()
            },
        ]);
    }
    let mut out = table.render();
    writeln!(
        out,
        "\nscenario `{}`: {} of {} messages can be lost",
        a.scenario,
        report.missed_count(),
        report.messages.len()
    )?;
    if report.is_degraded() {
        writeln!(
            out,
            "\nDEGRADED REPORT: {} message(s) have no response bound; all other bounds remain \
             sound",
            report.diagnostics().count()
        )?;
        for d in report.diagnostics() {
            writeln!(
                out,
                "  `{}` (priority level {}): {} — busy window {} over {} instance(s)",
                d.entity, d.priority_level, d.cause, d.busy_window, d.instances
            )?;
            writeln!(
                out,
                "    interference: {}",
                d.interference
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
    }
    Ok(out)
}

fn render_loss(curve: &LossCurve) -> RenderResult {
    let mut table = Table::new(["jitter %", "lost", "of", "fraction"]);
    for p in &curve.points {
        table.row([
            format!("{:.0}", p.jitter_ratio * 100.0),
            p.missed.to_string(),
            p.total.to_string(),
            format!("{:.1} %", p.fraction() * 100.0),
        ]);
    }
    let mut out = table.render();
    if let Some(z) = curve.zero_loss_up_to() {
        writeln!(out, "\nzero loss up to {:.0} % jitter", z * 100.0)?;
    } else {
        writeln!(out, "\nloss already at zero jitter")?;
    }
    Ok(out)
}

/// Compact, deterministic rendering of a probability: `0` and `1`
/// exactly, fixed-point for probable events, scientific for rare ones.
fn format_prob(p: f64) -> String {
    if p == 0.0 {
        "0".into()
    } else if p == 1.0 {
        "1".into()
    } else if p >= 1e-3 {
        format!("{p:.4}")
    } else {
        format!("{p:.2e}")
    }
}

fn render_prob_analyze(a: &ProbAnalyzeReport) -> RenderResult {
    let report = &a.report;
    let mut table = Table::new([
        "message",
        "id",
        "p50",
        "p95",
        "p99",
        "deadline",
        "miss prob",
        "verdict",
    ]);
    for m in &report.messages {
        match &m.outcome {
            ProbOutcome::Dist(dist) => table.row([
                m.name.to_string(),
                m.id.to_string(),
                dist.p50.to_string(),
                dist.p95.to_string(),
                dist.p99.to_string(),
                m.deadline.to_string(),
                format_prob(dist.miss_probability),
                if dist.miss_probability >= 1.0 {
                    "LOST".into()
                } else if dist.miss_probability > 0.0 {
                    "risk".into()
                } else {
                    "ok".to_string()
                },
            ]),
            ProbOutcome::Overload(_) => table.row([
                m.name.to_string(),
                m.id.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                m.deadline.to_string(),
                "1".into(),
                "DIVERGED".into(),
            ]),
        };
    }
    let mut out = table.render();
    writeln!(
        out,
        "\nscenario `{}`: expected lost messages: {} of {} (certain {}, possible {})",
        a.scenario,
        format_prob(report.expected_missed()),
        report.messages.len(),
        report.certain_missed(),
        report.possible_missed()
    )?;
    writeln!(
        out,
        "binning quantum {} — support within [BCRT, WCRT]; a miss probability is 0 \
         where the worst case meets the deadline, elsewhere an estimate, not an upper bound",
        report.quantum
    )?;
    Ok(out)
}

fn render_prob_loss(curve: &ProbLossCurve) -> RenderResult {
    let mut table = Table::new(["jitter %", "expected", "certain", "possible", "of"]);
    for p in &curve.points {
        table.row([
            format!("{:.0}", p.jitter_ratio * 100.0),
            format_prob(p.expected_missed),
            p.certain_missed.to_string(),
            p.possible_missed.to_string(),
            p.total.to_string(),
        ]);
    }
    let mut out = table.render();
    if let Some(z) = curve.zero_risk_up_to() {
        writeln!(out, "\nzero loss risk up to {:.0} % jitter", z * 100.0)?;
    } else {
        writeln!(out, "\nloss risk already at zero jitter")?;
    }
    Ok(out)
}

fn render_sensitivity(series: &[SensitivitySeries]) -> String {
    let mut table = Table::new(["message", "class", "WCRT @0%", "WCRT @60%"]);
    for s in series {
        let first = s.points.first().and_then(|(_, r)| *r);
        let last = s.points.last().and_then(|(_, r)| *r);
        table.row([
            s.message.clone(),
            s.classify().to_string(),
            first
                .map(|t| t.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            last.map(|t| t.to_string())
                .unwrap_or_else(|| "unbounded".into()),
        ]);
    }
    table.render()
}

fn render_audsley(order: Option<&[AudsleyRow]>) -> String {
    match order {
        None => "no fixed-priority identifier assignment is feasible\n".into(),
        Some(rows) => {
            let mut table = Table::new(["rank", "message", "new id"]);
            for (rank, row) in rows.iter().enumerate() {
                table.row([
                    (rank + 1).to_string(),
                    row.message.clone(),
                    row.new_id.clone(),
                ]);
            }
            let mut out = String::from("feasible assignment found:\n\n");
            out.push_str(&table.render());
            out
        }
    }
}

fn render_optimize(o: &OptimizeSummary) -> RenderResult {
    let mut out = String::new();
    writeln!(
        out,
        "SPEA2 finished: {} evaluations, winner objectives {:?}",
        o.evaluations, o.objectives
    )?;
    writeln!(out, "{}", cache_stats_line(&o.cache))?;
    let mut table = Table::new(["jitter %", "loss before", "loss after"]);
    for (b, a) in o.loss_before.points.iter().zip(&o.loss_after.points) {
        table.row([
            format!("{:.0}", b.jitter_ratio * 100.0),
            format!("{:.1} %", b.fraction() * 100.0),
            format!("{:.1} %", a.fraction() * 100.0),
        ]);
    }
    out.push_str(&table.render());
    writeln!(out, "\nuse --emit-csv to write the optimized K-Matrix")?;
    Ok(out)
}

fn render_simulate(s: &SimulateSummary) -> RenderResult {
    let mut table = Table::new(["message", "queued", "done", "lost", "max resp", "misses"]);
    for m in &s.stats {
        table.row([
            m.name.clone(),
            m.queued.to_string(),
            m.completed.to_string(),
            m.overwritten.to_string(),
            m.max_response
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            m.deadline_misses.to_string(),
        ]);
    }
    let mut out = table.render();
    writeln!(
        out,
        "\n{} ms simulated, observed utilization {:.1} %, {} error hits",
        s.millis,
        s.observed_utilization * 100.0,
        s.error_hits
    )?;
    if let Some(gantt) = &s.gantt {
        out.push('\n');
        out.push_str(gantt);
    }
    Ok(out)
}

fn render_dimension(options: &[BitRateOption]) -> RenderResult {
    let mut table = Table::new([
        "kbit/s",
        "load",
        "schedulable",
        "jitter slack",
        "ECU headroom",
    ]);
    for o in options {
        table.row([
            (o.bit_rate / 1000).to_string(),
            format!("{:.1} %", o.load * 100.0),
            o.schedulable.to_string(),
            o.jitter_slack
                .map(|s| format!("{:.0} %", s * 100.0))
                .unwrap_or_else(|| "-".into()),
            o.ecu_headroom.to_string(),
        ]);
    }
    let mut out = table.render();
    match cheapest_sufficient(options, 0.10) {
        Some(pick) => writeln!(
            out,
            "\ncheapest candidate with ≥ 10 % jitter reserve: {} kbit/s",
            pick.bit_rate / 1000
        )?,
        None => writeln!(out, "\nno candidate offers a 10 % jitter reserve")?,
    }
    Ok(out)
}

fn render_lint(findings: &[Finding]) -> RenderResult {
    if findings.is_empty() {
        return Ok("no findings\n".into());
    }
    let mut out = String::new();
    for f in findings {
        writeln!(out, "{f}")?;
    }
    Ok(out)
}

fn render_diff(diff: &AnalysisDiff) -> RenderResult {
    let mut table = Table::new(["message", "before", "after", "change"]);
    for r in &diff.rows {
        // Keep the table focused: skip unchanged-ok rows with identical WCRT.
        if r.change == VerdictChange::StillOk && r.before == r.after {
            continue;
        }
        table.row([
            r.message.clone(),
            r.before
                .map(|t| t.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            r.after
                .map(|t| t.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            r.change.to_string(),
        ]);
    }
    let mut out = String::new();
    if table.is_empty() {
        writeln!(out, "no per-message changes")?;
    } else {
        out.push_str(&table.render());
    }
    if !diff.added.is_empty() {
        writeln!(out, "added: {}", diff.added.join(", "))?;
    }
    if !diff.removed.is_empty() {
        writeln!(out, "removed: {}", diff.removed.join(", "))?;
    }
    writeln!(
        out,
        "\n{} regression(s), {} fix(es) — {}",
        diff.regressions().len(),
        diff.fixes().len(),
        if diff.is_safe() {
            "safe change"
        } else {
            "NOT safe"
        }
    )?;
    Ok(out)
}

/// Renders the fuzz outcome table, plus the all-laws-held footer on a
/// clean pass. The violating path's repro-file lines are appended by
/// the CLI, which owns the file I/O.
pub fn render_fuzz(f: &FuzzSummary) -> RenderResult {
    let mut table = Table::new(["law", "cases", "verdict"]);
    for o in &f.report.outcomes {
        table.row([
            o.law.clone(),
            o.cases_run.to_string(),
            if o.repro.is_some() {
                "VIOLATED".into()
            } else {
                "ok".to_string()
            },
        ]);
    }
    let mut out = table.render();
    if f.report.passed() {
        writeln!(
            out,
            "\nall {} laws held over {} cases each (seed {})",
            f.report.outcomes.len(),
            f.cases,
            f.report.seed
        )?;
    }
    Ok(out)
}

/// The one-line engine cache summary every subcommand prints the same
/// way (hit rate, hits, fresh analyses, contended/evicted shards).
pub fn cache_stats_line(stats: &CacheStats) -> String {
    format!(
        "engine cache: {:.0} % hit rate ({} hits, {} analyses); rta: {} compiles, {:.0} % warm starts",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses,
        stats.compiles,
        stats.warm_start_rate() * 100.0
    )
}

/// A simple left-padded column table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[allow(dead_code)] // exercised by tests; kept for API symmetry
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows were added.
    #[allow(dead_code)] // exercised by tests; kept for API symmetry
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = Table::new(["name", "wcrt"]);
        t.row(["engine_rpm", "792us"]).row(["x", "1ms"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("engine_rpm  792us"));
        assert!(lines[3].starts_with("x "));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn cache_line_reports_hit_rate() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            compiles: 2,
            warm_starts: 9,
            cold_starts: 3,
        };
        let line = cache_stats_line(&stats);
        assert!(line.contains("75 % hit rate"), "{line}");
        assert!(line.contains("3 hits"), "{line}");
        assert!(line.contains("1 analyses"), "{line}");
        assert!(line.contains("2 compiles"), "{line}");
        assert!(line.contains("75 % warm starts"), "{line}");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().lines().nth(2).expect("row").starts_with('1'));
    }
}
