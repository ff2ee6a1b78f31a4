//! **F1 — Figure 1**: the simple load analysis example. Four ECUs
//! producing 100/50/20/10 kbit/s on a 500 kbit/s CAN bus: a 36 % load.
//! Also writes the load of the case-study matrix under both stuffing
//! assumptions, and demonstrates why the load model alone cannot decide
//! schedulability (paper Sec. 3.1).

use crate::{case_study, Record};
use carta_can::frame::StuffingMode;
use carta_core::load::{bus_load, TrafficSource};
use carta_core::time::Time;
use carta_explore::jitter::with_jitter_ratio;
use carta_explore::scenario::Scenario;
use std::fmt::{self, Write};

/// Writes the F1 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Figure 1: simple load analysis ===\n")?;
    // The paper's example: express each ECU's average rate as frames.
    let sources = [
        (
            "ECU 1 (100 kbit/s)",
            TrafficSource::new(1000, Time::from_ms(10)),
        ),
        (
            "ECU 2 (50 kbit/s)",
            TrafficSource::new(1000, Time::from_ms(20)),
        ),
        (
            "ECU 3 (20 kbit/s)",
            TrafficSource::new(1000, Time::from_ms(50)),
        ),
        (
            "ECU 4 (10 kbit/s)",
            TrafficSource::new(1000, Time::from_ms(100)),
        ),
    ];
    for (name, s) in &sources {
        writeln!(
            out,
            "  {name:<22} {:>8.1} kbit/s",
            s.bits_per_second() / 1000.0
        )?;
    }
    let report = bus_load(sources.iter().map(|(_, s)| *s), 500_000);
    writeln!(
        out,
        "  total demand {:.0} kbit/s on 500 kbit/s -> load {:.0} %  (paper: 180 kbit/s ~ 36 %)\n",
        report.demand_bps / 1000.0,
        report.utilization_percent()
    )?;

    writeln!(out, "=== case-study matrix load ===\n")?;
    let net = case_study();
    let worst = net.load(StuffingMode::WorstCase);
    let best = net.load(StuffingMode::None);
    writeln!(
        out,
        "  worst-case stuffing: {:.1} %",
        worst.utilization_percent()
    )?;
    writeln!(
        out,
        "  no stuffing:         {:.1} %",
        best.utilization_percent()
    )?;
    for limit in [0.40, 0.60] {
        writeln!(
            out,
            "  OEM limit {:.0} %: {}",
            limit * 100.0,
            if worst.exceeds_limit(limit) {
                "EXCEEDED"
            } else {
                "ok"
            }
        )?;
    }

    writeln!(out, "\n=== why load is not enough (Sec. 3.1) ===\n")?;
    // Same load, different jitter assumptions: the load model cannot
    // tell these apart, the schedulability analysis can.
    for ratio in [0.0, 0.40] {
        let variant = with_jitter_ratio(&net, ratio);
        let load = variant.load(StuffingMode::WorstCase).utilization_percent();
        let report = Scenario::worst_case().analyze(&variant).expect("valid");
        writeln!(
            out,
            "  jitter {:>3.0} %: load {:.1} % (unchanged), deadline misses {:>2} of {}",
            ratio * 100.0,
            load,
            report.missed_count(),
            report.messages.len()
        )?;
    }
    Ok(())
}
