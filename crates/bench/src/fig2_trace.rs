//! **F2 — Figure 2**: "Message Jitters, Burst, and Errors Result in
//! Complex Communication Patterns". Simulates the case-study bus with
//! jittered releases and injected burst errors, then renders a window
//! of the bus occupancy around an error burst as an ASCII Gantt chart.

use crate::{case_study, Record};
use carta_core::time::Time;
use carta_explore::jitter::with_assumed_unknown_jitter;
use carta_sim::engine::{simulate, SimConfig, SimStuffing};
use carta_sim::gantt::{render, GanttConfig};
use carta_sim::inject::BurstInjection;
use carta_sim::trace::TraceKind;
use std::fmt::{self, Write};

/// Writes the F2 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Figure 2: complex communication pattern ===\n")?;
    let net = with_assumed_unknown_jitter(&case_study(), 0.20);
    let injector = BurstInjection {
        burst_len: 3,
        intra_gap: Time::from_us(200),
        inter_burst: Time::from_us(25_300),
        phase: Time::from_ms(2),
    };
    let sim = simulate(
        &net,
        &injector,
        &SimConfig {
            horizon: Time::from_ms(500),
            stuffing: SimStuffing::Random,
            ..SimConfig::default()
        },
    );

    // Center the window on the first error hit so bursts, error frames
    // and retransmissions are all visible.
    let first_hit = sim
        .trace
        .events()
        .iter()
        .find(|e| e.kind == TraceKind::ErrorHit)
        .map(|e| e.start)
        .unwrap_or(Time::from_ms(2));
    let from = first_hit.saturating_sub(Time::from_ms(2));
    let to = from + Time::from_ms(10);

    // Label only the messages that actually appear in the window.
    let mut present: Vec<usize> = sim.trace.window(from, to).map(|e| e.message).collect();
    present.sort_unstable();
    present.dedup();
    let labels: Vec<String> = net
        .messages()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if present.contains(&i) {
                m.name.clone()
            } else {
                String::new()
            }
        })
        .collect();

    let gantt = render(
        &sim.trace,
        &labels,
        &GanttConfig {
            from,
            to,
            columns: 100,
        },
    );
    for line in gantt.lines() {
        let body: String = line.chars().skip_while(|c| *c != '|').collect();
        if !line.starts_with(' ') || body.chars().any(|c| "#Rx".contains(c)) {
            writeln!(out, "{line}")?;
        }
    }
    writeln!(
        out,
        "\nlegend: # transmission, R retransmission, x error frame, . idle"
    )?;
    writeln!(
        out,
        "run stats: {} error hits in 500 ms, observed utilization {:.1} %, \
         {} buffer overwrites",
        sim.trace.error_count(),
        sim.observed_utilization() * 100.0,
        sim.total_overwritten()
    )
}
