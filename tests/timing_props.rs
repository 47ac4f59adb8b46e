//! Property-based tests for sequential-adjacency extraction.
//!
//! `SequentialGraph::extract` sweeps each flip-flop's fan-out cone once,
//! relaxing longest and shortest arrivals together. These tests hold it to
//! a dense reference kept here: two full-circuit sweeps per flip-flop (one
//! for max, one for min) over the global topological order, with every
//! reached flip-flop collected by a scan of all cells. The pair lists must
//! agree bitwise and in order, because the order of `pairs()` numbers the
//! skew-constraint arcs downstream.

use proptest::prelude::*;
use rotary::netlist::geom::{Point, Rect};
use rotary::netlist::{BenchmarkSuite, Cell, CellId, CellKind, Circuit, Net, NetId};
use rotary::timing::{sink_edge_delay, SequentialGraph, Technology};

/// `(from, to, d_max bits, d_min bits)` per pair, in extraction order.
type PairBits = Vec<(CellId, CellId, u64, u64)>;

fn bits(graph: &SequentialGraph) -> PairBits {
    graph.pairs().iter().map(|p| (p.from, p.to, p.d_max.to_bits(), p.d_min.to_bits())).collect()
}

/// Dense `O(F·V)` extraction: per flip-flop, a longest- and a
/// shortest-arrival sweep over every cell in topological order.
fn dense_reference(circuit: &Circuit, tech: &Technology) -> PairBits {
    let n = circuit.cell_count();
    let order = circuit.topological_order().expect("acyclic");
    let mut edges = vec![Vec::new(); n];
    for i in 0..circuit.net_count() {
        let net = NetId(i as u32);
        let driver = circuit.net(net).driver;
        for &s in &circuit.net(net).sinks {
            edges[driver.index()].push((s, sink_edge_delay(circuit, net, s, tech)));
        }
    }
    let is_ff = |c: usize| circuit.cells[c].kind == CellKind::FlipFlop;
    let sweep = |src: CellId, longest: bool| -> Vec<(CellId, f64)> {
        let unset = if longest { f64::NEG_INFINITY } else { f64::INFINITY };
        let mut arrival = vec![unset; n];
        arrival[src.index()] = circuit.cell(src).intrinsic_delay;
        for &u in &order {
            let au = arrival[u.index()];
            if au == unset || (is_ff(u.index()) && u != src) {
                continue;
            }
            for &(v, d) in &edges[u.index()] {
                let cand = au + d;
                let slot = &mut arrival[v.index()];
                if (longest && cand > *slot) || (!longest && cand < *slot) {
                    *slot = cand;
                }
            }
        }
        (0..n)
            .filter(|&i| arrival[i] != unset && is_ff(i) && i != src.index())
            .map(|i| (CellId(i as u32), arrival[i]))
            .collect()
    };
    let mut out = Vec::new();
    for src in circuit.flip_flops() {
        let (maxs, mins) = (sweep(src, true), sweep(src, false));
        assert_eq!(maxs.len(), mins.len());
        for ((to, d_max), (to_min, d_min)) in maxs.into_iter().zip(mins) {
            assert_eq!(to, to_min);
            out.push((src, to, d_max.to_bits(), d_min.to_bits()));
        }
    }
    out
}

fn cell(kind: CellKind, scale: f64) -> Cell {
    Cell {
        kind,
        width: 2.0,
        height: 8.0,
        input_cap: 0.002 + 0.004 * scale,
        drive_resistance: 1.0 + 2.0 * scale,
        intrinsic_delay: 0.02 + 0.06 * scale,
    }
}

/// Cell layout of a random circuit: flip-flops, primary inputs,
/// combinational cells, primary outputs, in this index order.
struct Layout {
    ff: usize,
    pi: usize,
    comb: usize,
    po: usize,
}

impl Layout {
    fn total(&self) -> usize {
        self.ff + self.pi + self.comb + self.po
    }

    fn comb_start(&self) -> usize {
        self.ff + self.pi
    }

    fn kind(&self, i: usize) -> CellKind {
        if i < self.ff {
            CellKind::FlipFlop
        } else if i < self.comb_start() {
            CellKind::PrimaryInput
        } else if i < self.comb_start() + self.comb {
            CellKind::Combinational
        } else {
            CellKind::PrimaryOutput
        }
    }

    /// Whether `driver → sink` keeps the combinational part acyclic and
    /// the ports one-directional: nothing drives a primary input, primary
    /// outputs drive nothing, and combinational cells only drive
    /// higher-indexed combinational cells.
    fn allows(&self, driver: usize, sink: usize) -> bool {
        match (self.kind(driver), self.kind(sink)) {
            (CellKind::PrimaryOutput, _) | (_, CellKind::PrimaryInput) => false,
            (CellKind::Combinational, CellKind::Combinational) => sink > driver,
            _ => driver != sink,
        }
    }
}

/// A random placed circuit. Positions snap to a coarse grid so that many
/// branches have zero length. When there are at least two flip-flops the
/// last one drives nothing (an empty cone), and flip-flop 0 always has a
/// loop back into itself through combinational cell 0 when one exists.
fn random_circuit(
    layout: &Layout,
    nets: &[(usize, Vec<usize>)],
    places: &[(usize, usize)],
    scales: &[f64],
) -> Circuit {
    let mut c = Circuit::new("rand", Rect::from_size(1000.0, 1000.0));
    for i in 0..layout.total() {
        let (gx, gy) = places[i % places.len()];
        let pos = Point::new(250.0 * gx as f64, 250.0 * gy as f64);
        c.add_cell(cell(layout.kind(i), scales[i % scales.len()]), pos);
    }
    let n = layout.total();
    if layout.ff > 0 && layout.comb > 0 {
        let (ff0, g0) = (CellId(0), CellId(layout.comb_start() as u32));
        c.add_net(Net { driver: ff0, sinks: vec![g0] });
        c.add_net(Net { driver: g0, sinks: vec![ff0] });
    }
    let silent = if layout.ff >= 2 { Some(layout.ff - 1) } else { None };
    for (raw_driver, raw_sinks) in nets {
        if n == 0 {
            break;
        }
        let driver = raw_driver % n;
        if Some(driver) == silent {
            continue;
        }
        let mut sinks: Vec<CellId> = Vec::new();
        for &raw in raw_sinks {
            let s = raw % n;
            if layout.allows(driver, s) && !sinks.contains(&CellId(s as u32)) {
                sinks.push(CellId(s as u32));
            }
        }
        if !sinks.is_empty() {
            c.add_net(Net { driver: CellId(driver as u32), sinks });
        }
    }
    c
}

proptest! {
    /// Cone extraction equals the dense two-sweep reference bitwise and in
    /// order on random circuits with reconvergent fan-out, flip-flop self
    /// loops, empty cones, ports and zero-length branches.
    #[test]
    fn cone_extraction_matches_dense_reference(
        ff in 0usize..7,
        pi in 0usize..3,
        comb in 0usize..18,
        po in 0usize..3,
        nets in prop::collection::vec((0usize..1000, prop::collection::vec(0usize..1000, 1..5)), 0..40),
        places in prop::collection::vec((0usize..5, 0usize..5), 1..30),
        scales in prop::collection::vec(0.0..1.0f64, 1..30),
    ) {
        let layout = Layout { ff, pi, comb, po };
        let c = random_circuit(&layout, &nets, &places, &scales);
        let tech = Technology::default();
        prop_assert_eq!(bits(&SequentialGraph::extract(&c, &tech)), dense_reference(&c, &tech));
    }
}

#[test]
fn cone_extraction_matches_dense_reference_on_suites() {
    let tech = Technology::default();
    for suite in BenchmarkSuite::ALL {
        for seed in [2006, 7] {
            let c = suite.circuit(seed);
            let got = bits(&SequentialGraph::extract(&c, &tech));
            assert!(!got.is_empty(), "{suite} seed {seed}: no pairs");
            assert!(got == dense_reference(&c, &tech), "{suite} seed {seed}: extraction differs");
        }
    }
}
