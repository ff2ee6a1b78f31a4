//! Network dimensioning — a forward-looking use of the analysis from
//! the paper's conclusion: "OEMs can evaluate different network
//! choices upfront … dimension optimized and robust buses with known
//! extensibility".
//!
//! Run with: `cargo run --release --example network_dimensioning`

use carta::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = powertrain_default().to_network()?;
    let scenario = Scenario::worst_case();
    let eval = Evaluator::default();

    // --- 1. Which bus speed does this matrix need? ------------------------
    println!("--- bit-rate dimensioning (worst-case scenario) ---\n");
    let candidates = [125_000u64, 250_000, 500_000, 1_000_000];
    let options = eval.compare_bit_rates(&net, &scenario, &candidates, &EcuTemplate::default())?;
    println!(
        "{:>10} {:>8} {:>13} {:>14} {:>13}",
        "bit rate", "load", "schedulable", "jitter slack", "ECU headroom"
    );
    for o in &options {
        println!(
            "{:>7} k {:>7.1}% {:>13} {:>14} {:>13}",
            o.bit_rate / 1000,
            o.load * 100.0,
            o.schedulable,
            o.jitter_slack
                .map(|s| format!("{:.0} %", s * 100.0))
                .unwrap_or_else(|| "-".into()),
            o.ecu_headroom
        );
    }
    match cheapest_sufficient(&options, 0.10) {
        Some(pick) => println!(
            "\ndimensioning: {} kbit/s is the slowest bus with ≥ 10 % jitter reserve",
            pick.bit_rate / 1000
        ),
        None => println!("\ndimensioning: no candidate meets the 10 % reserve"),
    }

    // --- 2. Buffer dimensioning -------------------------------------------
    println!("\n--- buffer dimensioning ---\n");
    let depths = eval.required_tx_depths(&net, &scenario)?;
    let deep: Vec<&TxBufferNeed> = depths.iter().filter(|d| d.depth != Some(1)).collect();
    println!(
        "sender queues: {} of {} messages need depth 1; exceptions: {}",
        depths.len() - deep.len(),
        depths.len(),
        if deep.is_empty() {
            "none".to_string()
        } else {
            deep.iter()
                .map(|d| format!("{} ({:?})", d.message, d.depth))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    for (node, name) in [(6usize, "GW_BODY"), (7, "GW_CHAS")] {
        if let Some(depth) =
            eval.required_rx_depth(&net, &Scenario::best_case(), node, Time::from_ms(10))?
        {
            println!("gateway {name}: a 10 ms routing cycle needs a queue of {depth} frames");
        }
    }
    Ok(())
}
