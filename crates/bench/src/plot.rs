//! Minimal ASCII line charts for the reproduction record — so the
//! `fig4_sensitivity` and `fig5_loss` sections show an actual *figure*,
//! not only the data rows.

/// One data series: a label, a plot symbol and the y-values (one per
/// shared x grid point). `None` = missing (e.g. unbounded).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Single-character mark used for this series.
    pub mark: char,
    /// Y-values over the shared x grid.
    pub values: Vec<Option<f64>>,
}

/// Renders series sharing an x grid as an ASCII chart with `height`
/// rows. X labels are printed beneath, the legend after.
///
/// # Panics
///
/// Panics if `height < 2`, the series are empty, or their lengths
/// differ from `x_labels`.
pub fn line_chart(x_labels: &[String], series: &[Series], height: usize, y_unit: &str) -> String {
    assert!(height >= 2, "chart needs at least two rows");
    assert!(!series.is_empty(), "chart needs at least one series");
    for s in series {
        assert_eq!(
            s.values.len(),
            x_labels.len(),
            "series `{}` length",
            s.label
        );
    }
    let y_max = series
        .iter()
        .flat_map(|s| s.values.iter().flatten())
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1e-9);

    let columns = x_labels.len();
    let col_width = x_labels.iter().map(String::len).max().unwrap_or(1).max(5) + 1;
    let label_width = 8;

    // Grid of rows (top = y_max).
    let mut rows: Vec<Vec<char>> = vec![vec![' '; columns * col_width]; height];
    for s in series {
        for (i, v) in s.values.iter().enumerate() {
            let Some(v) = v else { continue };
            let frac = (v / y_max).clamp(0.0, 1.0);
            let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            let col = i * col_width + col_width / 2;
            let cell = &mut rows[row][col];
            // Overlapping series show '*'.
            *cell = if *cell == ' ' || *cell == s.mark {
                s.mark
            } else {
                '*'
            };
        }
    }

    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let y_val = y_max * (1.0 - r as f64 / (height - 1) as f64);
        let y_label = if r == 0 || r == height - 1 || r == (height - 1) / 2 {
            format!("{y_val:>6.1}{y_unit}")
        } else {
            String::new()
        };
        out.push_str(&format!("{y_label:>label_width$} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>label_width$} +", ""));
    out.push_str(&"-".repeat(columns * col_width));
    out.push('\n');
    out.push_str(&format!("{:>label_width$}  ", ""));
    for l in x_labels {
        out.push_str(&format!("{l:^col_width$}"));
    }
    out.push('\n');
    for s in series {
        out.push_str(&format!("{:>label_width$}  {} {}\n", "", s.mark, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_marks_and_legend() {
        let x: Vec<String> = (0..5).map(|i| format!("{}", i * 10)).collect();
        let series = [
            Series {
                label: "rising".into(),
                mark: 'o',
                values: vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0), Some(4.0)],
            },
            Series {
                label: "flat".into(),
                mark: '.',
                values: vec![Some(1.0); 5],
            },
        ];
        let chart = line_chart(&x, &series, 6, "%");
        assert!(chart.contains('o'));
        assert!(chart.contains('.'));
        assert!(chart.contains("rising"));
        assert!(chart.contains("flat"));
        // Top-left y label is the maximum.
        assert!(chart.lines().next().expect("rows").contains("4.0%"));
        // The rising series' last point sits on the top row.
        let top = chart.lines().next().expect("rows");
        assert!(top.contains('o'));
    }

    #[test]
    fn overlap_becomes_star_and_none_is_skipped() {
        let x: Vec<String> = vec!["0".into(), "1".into()];
        let series = [
            Series {
                label: "a".into(),
                mark: 'a',
                values: vec![Some(1.0), None],
            },
            Series {
                label: "b".into(),
                mark: 'b',
                values: vec![Some(1.0), Some(1.0)],
            },
        ];
        let chart = line_chart(&x, &series, 4, "");
        assert!(chart.contains('*'));
        assert!(chart.contains('b'));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_rejected() {
        let _ = line_chart(
            &["0".to_string()],
            &[Series {
                label: "a".into(),
                mark: 'a',
                values: vec![Some(1.0), Some(2.0)],
            }],
            4,
            "",
        );
    }
}
