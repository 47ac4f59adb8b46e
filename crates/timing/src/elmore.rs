//! Elmore delay model \[21\] for placed nets.
//!
//! Nets are modeled as a star of direct driver→sink wires (a standard
//! pre-route approximation): the driver sees the total net capacitance
//! through its drive resistance, and each sink additionally sees the
//! distributed RC of its own branch.

use crate::tech::Technology;
use rotary_netlist::{CellId, Circuit, NetId};

/// Total capacitive load on a net: wire capacitance of all branches plus
/// the input capacitance of every sink pin.
///
/// # Examples
///
/// ```
/// use rotary_netlist::BenchmarkSuite;
/// use rotary_timing::{net_load_cap, Technology};
/// use rotary_netlist::NetId;
///
/// let c = BenchmarkSuite::S9234.circuit(1);
/// let load = net_load_cap(&c, NetId(0), &Technology::default());
/// assert!(load > 0.0);
/// ```
pub fn net_load_cap(circuit: &Circuit, net: NetId, tech: &Technology) -> f64 {
    let n = circuit.net(net);
    let dp = circuit.position(n.driver);
    let mut cap = 0.0;
    for &s in &n.sinks {
        let l = dp.manhattan(circuit.position(s));
        cap += tech.wire_cap * l + circuit.cell(s).input_cap;
    }
    cap
}

/// Delay from the output of `net`'s driver to the input pin of `sink`:
/// gate delay (intrinsic + drive resistance × total net load) plus the
/// Elmore delay of the sink's branch
/// (`r·l·(c·l/2 + C_sink)` for branch length `l`).
///
/// # Panics
///
/// Panics if `sink` is not a sink of `net`.
pub fn sink_edge_delay(circuit: &Circuit, net: NetId, sink: CellId, tech: &Technology) -> f64 {
    debug_assert!(circuit.net(net).sinks.contains(&sink), "cell {sink} is not a sink of {net}");
    loaded_edge_delay(circuit, net, sink, net_load_cap(circuit, net, tech), tech)
}

/// [`sink_edge_delay`] with the net's total load (`net_load_cap`) already
/// computed, so a caller that visits every sink of a net sums it once.
pub(crate) fn loaded_edge_delay(
    circuit: &Circuit,
    net: NetId,
    sink: CellId,
    load: f64,
    tech: &Technology,
) -> f64 {
    let n = circuit.net(net);
    let driver = circuit.cell(n.driver);
    let gate = driver.intrinsic_delay + driver.drive_resistance * load;
    let l = circuit.position(n.driver).manhattan(circuit.position(sink));
    let branch = tech.wire_res * l * (0.5 * tech.wire_cap * l + circuit.cell(sink).input_cap);
    gate + branch
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_netlist::geom::{Point, Rect};
    use rotary_netlist::{Cell, CellKind, Net};

    fn cell(kind: CellKind, cap: f64) -> Cell {
        Cell {
            kind,
            width: 2.0,
            height: 8.0,
            input_cap: cap,
            drive_resistance: 2.0,
            intrinsic_delay: 0.05,
        }
    }

    fn two_sink_net() -> Circuit {
        let mut c = Circuit::new("t", Rect::from_size(1000.0, 1000.0));
        let d = c.add_cell(cell(CellKind::Combinational, 0.004), Point::new(0.0, 0.0));
        let s1 = c.add_cell(cell(CellKind::Combinational, 0.004), Point::new(100.0, 0.0));
        let s2 = c.add_cell(cell(CellKind::Combinational, 0.006), Point::new(0.0, 300.0));
        c.add_net(Net { driver: d, sinks: vec![s1, s2] });
        c
    }

    #[test]
    fn load_cap_sums_wire_and_pins() {
        let c = two_sink_net();
        let t = Technology::default();
        let expect = t.wire_cap * (100.0 + 300.0) + 0.004 + 0.006;
        assert!((net_load_cap(&c, NetId(0), &t) - expect).abs() < 1e-12);
    }

    #[test]
    fn farther_sink_has_larger_delay() {
        let c = two_sink_net();
        let t = Technology::default();
        let d1 = sink_edge_delay(&c, NetId(0), CellId(1), &t);
        let d2 = sink_edge_delay(&c, NetId(0), CellId(2), &t);
        assert!(d2 > d1);
    }

    #[test]
    fn delay_grows_with_distance() {
        let mut c = two_sink_net();
        let t = Technology::default();
        let before = sink_edge_delay(&c, NetId(0), CellId(1), &t);
        c.set_position(CellId(1), Point::new(900.0, 0.0));
        let after = sink_edge_delay(&c, NetId(0), CellId(1), &t);
        assert!(after > before);
    }

    #[test]
    fn zero_length_branch_is_pure_gate_delay() {
        let mut c = two_sink_net();
        c.set_position(CellId(1), Point::new(0.0, 0.0));
        let t = Technology::default();
        let load = net_load_cap(&c, NetId(0), &t);
        let d = sink_edge_delay(&c, NetId(0), CellId(1), &t);
        let gate = 0.05 + 2.0 * load;
        assert!((d - gate).abs() < 1e-12);
    }
}
