//! **F4 — Figure 4**: "Jitter-Sensitive and Robust Messages" — the
//! worst-case response time of selected messages as a function of the
//! assumed jitter ratio, with the paper's robust → very sensitive
//! classification.

use crate::plot::{line_chart, Series as PlotSeries};
use crate::{case_study, Record};
use carta_engine::prelude::Evaluator;
use carta_explore::loss::paper_jitter_grid;
use carta_explore::scenario::Scenario;
use carta_explore::sensitivity::SensitivityClass;
use carta_explore::sweeps::Sweeps;
use std::fmt::{self, Write};

/// Writes the F4 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Figure 4: response time vs jitter ===\n")?;
    let net = case_study();
    let grid = paper_jitter_grid();
    let series = Evaluator::default()
        .response_vs_jitter(&net, &Scenario::worst_case(), &grid, None)
        .expect("valid");

    // Pick representatives of each class, like the paper's figure.
    let mut by_class: std::collections::BTreeMap<SensitivityClass, Vec<&_>> =
        std::collections::BTreeMap::new();
    for s in &series {
        by_class.entry(s.classify()).or_default().push(s);
    }

    write!(out, "{:<26} |", "jitter in % of period")?;
    for r in &grid {
        write!(out, " {:>7.0}", r * 100.0)?;
    }
    writeln!(out, "\n{}", "-".repeat(28 + 8 * grid.len()))?;
    for (class, members) in &by_class {
        for s in members.iter().take(2) {
            write!(out, "{:<26} |", format!("{} [{}]", s.message, class))?;
            for (_, r) in &s.points {
                match r {
                    Some(t) => write!(out, " {:>6.2}ms", t.as_ms_f64())?,
                    None => write!(out, " {:>7}", "inf")?,
                }
            }
            writeln!(out)?;
        }
    }

    // The figure itself: one representative per class.
    let x: Vec<String> = grid.iter().map(|r| format!("{:.0}", r * 100.0)).collect();
    let marks = ['r', 'm', 's', 'V'];
    let mut plot_series = Vec::new();
    for ((class, members), mark) in by_class.iter().zip(marks) {
        if let Some(s) = members.first() {
            plot_series.push(PlotSeries {
                label: format!("{} [{}]", s.message, class),
                mark,
                values: s
                    .points
                    .iter()
                    .map(|(_, r)| r.map(|t| t.as_ms_f64()))
                    .collect(),
            });
        }
    }
    writeln!(out, "\n{}", line_chart(&x, &plot_series, 14, "ms"))?;

    writeln!(out, "class census over all {} messages:", series.len())?;
    for (class, members) in &by_class {
        writeln!(out, "  {class:<20} {:>3}", members.len())?;
    }
    writeln!(
        out,
        "\nshape check (paper): response times grow monotonically with jitter;\n\
         some messages stay flat (robust), others explode (very sensitive)."
    )
}
