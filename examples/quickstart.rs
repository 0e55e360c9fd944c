//! Quickstart: the three cooperative MIMO paradigms in thirty lines each.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's three ideas on minimal scenarios:
//! 1. the energy model: `ē_b(p, b, mt, mr)` and the per-link constellation;
//! 2. overlay — how far cooperative relays can sit from the primary pair;
//! 3. underlay — the power-amplifier energy a cooperative hop radiates;
//! 4. interweave — steering a transmit null onto a primary receiver.

use comimo::channel::geometry::Point;
use comimo::core::interweave::TransmitPair;
use comimo::core::overlay::{Overlay, OverlayConfig};
use comimo::core::underlay::{Underlay, UnderlayConfig};
use comimo::energy::ebar::EbarSolver;
use comimo::energy::model::EnergyModel;
use comimo::energy::optimize::optimal_constellation;

fn main() {
    // ------------------------------------------------------------------
    // 1. The energy substrate: invert the paper's equations (5)-(6)
    // ------------------------------------------------------------------
    let solver = EbarSolver::paper();
    let siso = solver.solve(1e-3, 2, 1, 1);
    let mimo = solver.solve(1e-3, 2, 2, 3);
    println!("== energy model ==");
    println!("e_b(p=1e-3, b=2, SISO 1x1)  = {siso:.3e} J  (paper: 1.90e-18)");
    println!("e_b(p=1e-3, b=2, MIMO 2x3)  = {mimo:.3e} J  (paper: 3.20e-20)");
    println!("cooperative advantage       = {:.0}x\n", siso / mimo);

    // the per-link step of Algorithms 1-2: the model memoises every e_b it
    // solves (the paper's "Preprocessing" table) and picks the b in 1..=16
    // that minimises the per-node transmit energy
    let model = EnergyModel::paper();
    let best = optimal_constellation(&model, 1e-3, 40_000.0, 1e4, 2, 3, 200.0);
    println!(
        "optimal constellation at p=1e-3, B=40 kHz, 2x3 link over 200 m: b = {} ({:.2e} J/bit)\n",
        best.b, best.energy
    );

    // ------------------------------------------------------------------
    // 2. Overlay: relay the primary transmission (Algorithm 1 / Figure 6)
    // ------------------------------------------------------------------
    let overlay = Overlay::new(&model, OverlayConfig::paper(3, 40_000.0));
    let a = overlay.analyze(250.0);
    println!("== overlay (m = 3 relays, B = 40 kHz) ==");
    println!(
        "direct link D1 = {:.0} m at BER 0.005 costs E1 = {:.2e} J/bit",
        a.d1, a.e1
    );
    println!("with the same energy, at BER 0.0005 (10x better), the relays can sit");
    println!("  D2 = {:.0} m from the primary transmitter,", a.d2);
    println!(
        "  D3 = {:.0} m from the primary receiver  (paper: 235 m / 406 m)\n",
        a.d3
    );

    // ------------------------------------------------------------------
    // 3. Underlay: share the spectrum below the noise floor (Algorithm 2)
    // ------------------------------------------------------------------
    let u_siso = Underlay::new(&model, UnderlayConfig::paper(1, 1, 10_000.0));
    let u_coop = Underlay::new(&model, UnderlayConfig::paper(2, 3, 10_000.0));
    let s = u_siso.analyze(200.0);
    let m = u_coop.analyze(200.0);
    println!("== underlay (D = 200 m, d = 1 m, p = 1e-3) ==");
    println!("SISO total PA energy/bit        = {:.2e} J", s.total_pa());
    println!("2x3 cooperative PA energy/bit   = {:.2e} J", m.total_pa());
    println!(
        "radiated-energy reduction       = {:.0}x  (paper: '2 to 4 orders')\n",
        s.total_pa() / m.total_pa()
    );

    // ------------------------------------------------------------------
    // 4. Interweave: null-steer away from the primary (Algorithm 3)
    // ------------------------------------------------------------------
    let pair = TransmitPair::paper_table1(0.1199);
    let pr = Point::new(0.0, -120.0); // primary receiver down the pair axis
    let sr = Point::new(100.0, 0.0); // secondary receiver broadside
    let delta = pair.null_delay_toward(pr);
    println!("== interweave ==");
    println!("phase delay on St1: delta = {delta:.4} rad");
    println!(
        "amplitude toward the primary Pr : {:.4}  (null)",
        pair.amplitude_at(pr, delta)
    );
    println!(
        "amplitude toward the secondary Sr: {:.4}  (~2 = full diversity; paper: 1.87 measured)",
        pair.amplitude_at(sr, delta)
    );
}
