//! Hand-computed worst-case response times, pinned against
//! `analyze_bus`.
//!
//! The other WCRT checks run the kernel against itself (its warm path
//! against its cold path, OPA against the same tables) or against the
//! simulator, which only gives a lower bound. The values below come
//! from the busy-window equations of DESIGN § 9 (Tindell & Burns with
//! the multiple-instance correction of Davis, Burns, Bril and Lukkien
//! 2007), worked out by hand:
//!
//! ```text
//! w_q = B_m + (q−1)·C_m + E(w_q + C_m) + Σ_{j ∈ hp(m)} η⁺_j(w_q + τ)·C_j
//! R_q = w_q + C_m − δ⁻_m(q)          R_m = max_q R_q
//! ```
//!
//! Each `w_q` is the least fixpoint, iterated upwards from
//! `B_m + (q−1)·C_m`. The busy period takes in instance `q+1` while
//! `w_q + C_m > δ⁻_m(q+1)`. For a periodic stream with period `P` and
//! jitter `J`, `η⁺(Δt) = ⌈(Δt + J)/P⌉` and `δ⁻(q) = (q−1)·P − J`
//! (0 for `q = 1`). On a fullCAN bus, `hp(m)` is every message with a
//! lower identifier and `B_m` is the longest lower-priority frame.
//! Sporadic errors at most every `T_E` cost
//! `E(t) = ⌈t/T_E⌉·(31·τ + max_{k ∈ hp(m) ∪ {m}} C_k)`: an error frame
//! plus the longest frame the hit may force to be resent.
//!
//! At 500 kbit/s one bit `τ` is 2 µs, and a standard frame with `s`
//! data bytes is `55 + 10·s` bits with worst-case stuffing
//! (`golden_frame_bits.rs`): 8 bytes take 270 µs, 6 bytes 230 µs and
//! 4 bytes 190 µs. All times below are in µs.

use carta_can::prelude::*;
use carta_core::time::Time;
use carta_kmatrix::generator::powertrain_default;

/// Three fullCAN messages on two nodes at 500 kbit/s:
///
/// | message | id    | bytes | C   | P    | J    |
/// |---------|-------|-------|-----|------|------|
/// | `hi`    | 0x100 | 8     | 270 | 600  | 0    |
/// | `mid`   | 0x200 | 4     | 190 | 2000 | 0    |
/// | `lo`    | 0x300 | 8     | 270 | 2000 | 1500 |
fn small_bus() -> CanNetwork {
    let mut net = CanNetwork::new(500_000);
    let a = net.add_node(Node::new("A", ControllerType::FullCan));
    let b = net.add_node(Node::new("B", ControllerType::FullCan));
    for (name, id, bytes, period_us, jitter_us, sender) in [
        ("hi", 0x100, 8, 600, 0, a),
        ("mid", 0x200, 4, 2000, 0, b),
        ("lo", 0x300, 8, 2000, 1500, a),
    ] {
        net.add_message(CanMessage::new(
            name,
            CanId::standard(id).expect("valid id"),
            Dlc::new(bytes),
            Time::from_us(period_us),
            Time::from_us(jitter_us),
            sender,
        ));
    }
    net
}

fn report(net: &CanNetwork, errors: &dyn ErrorModel, name: &str) -> MessageReport {
    analyze_bus(net, errors, &AnalysisConfig::default())
        .expect("valid network")
        .by_name(name)
        .expect("message present")
        .clone()
}

/// `hi`: nothing has priority over it, so only blocking delays it.
///
/// `B = max(C_mid, C_lo) = 270`.
/// q = 1: `w = 270` → `270` (no interference, no errors), so
/// `w_1 = 270` and `R_1 = 270 + 270 = 540`.
/// `w_1 + C = 540 ≤ δ⁻(2) = 600`: one instance. `R = 540`.
#[test]
fn blocking_only() {
    let m = report(&small_bus(), &NoErrors, "hi");
    assert_eq!(m.blocking, Time::from_us(270));
    assert_eq!(m.outcome.wcrt(), Some(Time::from_us(540)));
    assert_eq!(m.instances, 1);
}

/// `mid`: blocked by `lo`, interfered with by `hi`.
///
/// `B = C_lo = 270`.
/// q = 1: `w = 270` → `270 + ⌈272/600⌉·270 = 540`
/// → `270 + ⌈542/600⌉·270 = 540`, so `w_1 = 540` and
/// `R_1 = 540 + 190 = 730`.
/// `w_1 + C = 730 ≤ δ⁻(2) = 2000`: one instance. `R = 730`.
#[test]
fn higher_priority_interference() {
    let m = report(&small_bus(), &NoErrors, "mid");
    assert_eq!(m.blocking, Time::from_us(270));
    assert_eq!(m.outcome.wcrt(), Some(Time::from_us(730)));
    assert_eq!(m.instances, 1);
}

/// `lo`: its jitter lets a second instance queue before the first one
/// is sent, and the second instance has the larger response time. An
/// analysis of the first instance alone would report 730.
///
/// `B = 0` (no message below `lo`); `δ⁻(2) = 2000 − 1500 = 500`,
/// `δ⁻(3) = 4000 − 1500 = 2500`.
/// q = 1: `w = 0` → `⌈2/600⌉·270 + ⌈2/2000⌉·190 = 460`
/// → `⌈462/600⌉·270 + ⌈462/2000⌉·190 = 460`, so `w_1 = 460` and
/// `R_1 = 460 + 270 − 0 = 730`. `w_1 + C = 730 > δ⁻(2) = 500`: the
/// busy period takes in instance 2.
/// q = 2: `w = 270` → `270 + ⌈272/600⌉·270 + ⌈272/2000⌉·190 = 730`
/// → `270 + ⌈732/600⌉·270 + ⌈732/2000⌉·190 = 1000` (`hi` arrives a
/// second time) → `270 + ⌈1002/600⌉·270 + ⌈1002/2000⌉·190 = 1000`, so
/// `w_2 = 1000` and `R_2 = 1000 + 270 − 500 = 770`.
/// `w_2 + C = 1270 ≤ δ⁻(3) = 2500`: two instances.
/// `R = max(730, 770) = 770`.
#[test]
fn busy_window_spans_two_instances() {
    let m = report(&small_bus(), &NoErrors, "lo");
    assert_eq!(m.blocking, Time::ZERO);
    assert_eq!(m.outcome.wcrt(), Some(Time::from_us(770)));
    assert_eq!(m.instances, 2);
}

/// `mid` with a sporadic error at most every 10 ms.
///
/// Per hit: `31·2 + max(C_hi, C_mid) = 62 + 270 = 332`. `B = 270`.
/// q = 1: `w = 270`
/// → `270 + ⌈460/10000⌉·332 + ⌈272/600⌉·270 = 872`
/// → `270 + ⌈1062/10000⌉·332 + ⌈874/600⌉·270 = 1142` (the error
/// stretches the window past `hi`'s second release)
/// → `270 + ⌈1332/10000⌉·332 + ⌈1144/600⌉·270 = 1142`, so
/// `w_1 = 1142` and `R_1 = 1142 + 190 = 1332`.
/// `w_1 + C = 1332 ≤ δ⁻(2) = 2000`: one instance. `R = 1332`.
#[test]
fn sporadic_errors() {
    let errors = SporadicErrors::new(Time::from_ms(10));
    let m = report(&small_bus(), &errors, "mid");
    assert_eq!(m.outcome.wcrt(), Some(Time::from_us(1332)));
    assert_eq!(m.instances, 1);
}

/// The case study's highest-priority message, `diag_status_4` (0x101,
/// 6 bytes, P = 10 ms, J = 0, sent by the fullCAN node ABS), on the
/// default 64-message power-train matrix with no errors.
///
/// `C = (55 + 60)·2 = 230`; `B = 270`, an 8-byte standard frame below
/// it. q = 1: `w = 270` → `270`, so `R_1 = 270 + 230 = 500`.
/// `w_1 + C = 500 ≤ δ⁻(2) = 10000`: one instance. `R = 500`.
#[test]
fn case_study_highest_priority_message() {
    let net = powertrain_default().to_network().expect("convertible");
    // The derivation's premises, read off the matrix.
    let msgs = net.messages();
    let top = msgs
        .iter()
        .min_by_key(|m| m.id.arbitration_key())
        .expect("non-empty");
    assert_eq!(top.name, "diag_status_4");
    assert_eq!(top.dlc.bytes(), 6);
    assert_eq!(top.activation.period(), Time::from_ms(10));
    assert!(top.activation.jitter().is_zero());
    assert_eq!(net.controller_of(top), ControllerType::FullCan);
    assert!(msgs.iter().all(|m| m.id.kind() == FrameKind::Standard));
    assert_eq!(msgs.iter().map(|m| m.dlc.bytes()).max(), Some(8));

    let m = report(&net, &NoErrors, "diag_status_4");
    assert_eq!(m.blocking, Time::from_us(270));
    assert_eq!(m.outcome.wcrt(), Some(Time::from_us(500)));
    assert_eq!(m.instances, 1);
}
