//! Supply-chain workflow — the paper's Section 5 / Figure 6 end to end:
//!
//! 1. the OEM checks what its information scope covers (Fig. 3),
//! 2. starts an analysis on assumptions (iterative refinement),
//! 3. derives send-jitter **requirements** for a supplier,
//! 4. the supplier answers with a **datasheet** from its own ECU
//!    analysis (IP stays private — only event models cross the fence),
//! 5. both directions are compatibility-checked, and the OEM commits
//!    the datasheet, replacing assumption by guarantee.
//!
//! Run with: `cargo run --example supply_chain`

use carta::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The OEM's bus: engine controller (in-house) + transmission (supplier).
    let mut net = CanNetwork::new(500_000);
    let ems = net.add_node(Node::new("EMS", ControllerType::FullCan));
    let tcu = net.add_node(Node::new("TCU", ControllerType::FullCan));
    net.add_message(CanMessage::new(
        "engine_rpm",
        CanId::standard(0x100)?,
        Dlc::new(8),
        Time::from_ms(10),
        Time::from_ms(1), // known: in-house
        ems,
    ));
    net.add_message(CanMessage::new(
        "gear_state",
        CanId::standard(0x200)?,
        Dlc::new(4),
        Time::from_ms(20),
        Time::ZERO, // unknown: supplier-owned
        tcu,
    ));
    let _ = ems;

    // --- 1. What does the OEM actually know? (Fig. 3) --------------------
    let scope = InformationScope::oem(["engine_rpm"]);
    let readiness = analysis_readiness(&scope, &net);
    println!("--- information scope (Fig. 3) ---\n{readiness}");

    // --- 2. Analyze on assumptions (Sec. 5.2) ----------------------------
    let mut session = RefinementSession::start(&net, Scenario::worst_case(), 0.25)?;
    println!(
        "initial analysis on assumptions: {} deadline misses, {} assumed jitters",
        session.current_missed(),
        session.assumed_remaining()
    );

    // --- 3. OEM formulates requirements for the TCU supplier -------------
    let requirements = oem_send_requirements(&net, &Scenario::worst_case(), tcu, 0.9, 0.8)?;
    println!("\n--- OEM requirements toward TCU supplier ---");
    for (name, bound) in requirements.iter() {
        println!("  {name}: send model must refine {bound}");
    }

    // --- 4. The supplier's side: ECU analysis → datasheet -----------------
    // (The task set is the supplier's IP; only the datasheet leaves.)
    let supplier_tasks = vec![
        Task::periodic(
            "shift_ctrl",
            Priority(3),
            Time::from_ms(5),
            Time::from_us(300),
            Time::from_ms(1),
        )
        .cooperative(Time::from_us(500)),
        Task::periodic(
            "comm_tx",
            Priority(2),
            Time::from_ms(20),
            Time::from_us(100),
            Time::from_us(500),
        ),
        Task::periodic(
            "diag",
            Priority(1),
            Time::from_ms(100),
            Time::from_us(50),
            Time::from_ms(2),
        ),
    ];
    let overhead = OsekOverhead {
        activate: Time::from_us(20),
        terminate: Time::from_us(10),
        preempt: Time::from_us(15),
    };
    let datasheet = supplier_send_datasheet(
        "TCU supplier",
        &supplier_tasks,
        &EcuAnalysisConfig {
            overhead,
            ..EcuAnalysisConfig::default()
        },
        &[(1, "gear_state")],
    )?;
    println!("\n--- supplier datasheet ---");
    for (name, model) in datasheet.iter() {
        println!("  {name}: guaranteed {model}");
    }

    // --- 5. Close the loop (Fig. 6) ---------------------------------------
    let compat = check(&datasheet, &requirements);
    println!("\n--- compatibility check ---\n{compat}");
    assert!(compat.all_satisfied(), "the supplier meets the requirement");

    let updated = session.commit_datasheet(&datasheet)?;
    println!(
        "committed datasheet ({updated} messages): {} deadline misses, {} assumptions left",
        session.current_missed(),
        session.assumed_remaining()
    );

    // And the dual direction: the OEM guarantees arrival timing, which
    // the supplier checks against its freshness needs.
    let (arrivals, unguaranteed) =
        oem_receive_guarantees(session.network(), &Scenario::worst_case())?;
    assert!(unguaranteed.is_empty());
    let rpm_arrival = arrivals.get("engine_rpm").expect("guaranteed");
    println!("\nOEM guarantees engine_rpm arrival: {rpm_arrival}");
    let verdict = check_freshness(Time::from_ms(15), rpm_arrival);
    println!("TCU freshness requirement (≤ 15 ms gap): {verdict}");
    Ok(())
}
