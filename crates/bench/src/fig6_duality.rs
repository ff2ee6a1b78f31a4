//! **F6 — Figure 6**: "Duality of Requirements and Guarantees between
//! OEMs and Suppliers". Derives all four artifacts on the case study
//! and closes both check loops.

use crate::{case_study, Record};
use carta_contract::compat::{check, check_freshness};
use carta_contract::duality::{
    oem_receive_guarantees, oem_send_requirements, supplier_send_datasheet,
};
use carta_core::time::Time;
use carta_ecu::rta::EcuAnalysisConfig;
use carta_ecu::task::{OsekOverhead, Priority, Task};
use carta_explore::jitter::with_assumed_unknown_jitter;
use carta_explore::scenario::Scenario;
use std::fmt::{self, Write};

/// Writes the F6 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Figure 6: requirements/guarantees duality ===\n")?;
    let net = with_assumed_unknown_jitter(&case_study(), 0.15);

    // --- OEM -> supplier: required send behavior -------------------------
    // Budgets are derived under the error-free scenario: the
    // *non-optimized* identifier assignment already misses deadlines
    // under burst errors at any jitter (Fig. 5 worst case), so it
    // offers no budget to give away; worst-case budgets exist only
    // after the Sec. 4.3 optimization (see fig5_loss).
    let tcu = 1; // node index of the TCU in the generated matrix
    let req = oem_send_requirements(&net, &Scenario::best_case(), tcu, 0.9, 0.8).expect("valid");
    writeln!(out, "required by OEM (send jitter budgets for the TCU):")?;
    for (name, bound) in req.iter().take(6) {
        writeln!(out, "  {name:<22} {bound}")?;
    }
    if req.len() > 6 {
        writeln!(out, "  ... ({} more)", req.len() - 6)?;
    }

    // --- supplier: guaranteed send behavior ------------------------------
    let tasks = vec![
        Task::periodic(
            "shift_ctrl",
            Priority(3),
            Time::from_ms(5),
            Time::from_us(200),
            Time::from_us(800),
        )
        .cooperative(Time::from_us(400)),
        Task::periodic(
            "comm_tx",
            Priority(2),
            Time::from_ms(10),
            Time::from_us(80),
            Time::from_us(350),
        ),
        Task::periodic(
            "diag",
            Priority(1),
            Time::from_ms(100),
            Time::from_us(50),
            Time::from_ms(1),
        ),
    ];
    let overhead = OsekOverhead {
        activate: Time::from_us(15),
        terminate: Time::from_us(8),
        preempt: Time::from_us(12),
    };
    // The supplier maps its comm task to every message it owns.
    let tcu_messages: Vec<String> = net
        .messages()
        .iter()
        .filter(|m| m.sender == tcu)
        .map(|m| m.name.clone())
        .collect();
    let mapping: Vec<(usize, &str)> = tcu_messages.iter().map(|n| (1usize, n.as_str())).collect();
    let ds = supplier_send_datasheet(
        "TCU supplier",
        &tasks,
        &EcuAnalysisConfig {
            overhead,
            ..EcuAnalysisConfig::default()
        },
        &mapping,
    )
    .expect("bounded");
    writeln!(
        out,
        "\nguaranteed by supplier (from its private ECU analysis):"
    )?;
    for (name, model) in ds.iter().take(6) {
        writeln!(out, "  {name:<22} {model}")?;
    }

    // --- check loop 1: supplier guarantee vs OEM requirement -------------
    let compat = check(&ds, &req);
    writeln!(
        out,
        "\ncheck 1 — supplier send guarantees vs OEM requirements:"
    )?;
    writeln!(
        out,
        "  {} of {} satisfied{}",
        req.len() - compat.failures().len(),
        req.len(),
        if compat.all_satisfied() {
            " — CLOSED"
        } else {
            ""
        }
    )?;
    for name in compat.failures() {
        writeln!(out, "  needs renegotiation: {name}")?;
    }

    // --- check loop 2: OEM arrival guarantee vs supplier freshness -------
    let (arrivals, unguaranteed) =
        oem_receive_guarantees(&net, &Scenario::best_case()).expect("valid");
    writeln!(
        out,
        "\ncheck 2 — OEM arrival guarantees vs supplier freshness needs \
         ({} messages guaranteed, {} not guaranteeable):",
        arrivals.len(),
        unguaranteed.len()
    )?;
    let mut ok = 0;
    let mut total = 0;
    for (name, model) in arrivals.iter() {
        // Receivers want data at most 2 periods + 20 % stale.
        let bound = model.period().scale(2.2);
        total += 1;
        if check_freshness(bound, model).is_ok() {
            ok += 1;
        } else {
            writeln!(out, "  {name}: freshness {bound} NOT met by {model}")?;
        }
    }
    writeln!(out, "  {ok} of {total} freshness requirements satisfied")
}
