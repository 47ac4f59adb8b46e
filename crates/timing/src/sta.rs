//! Forward topological static timing analysis over the combinational DAG.
//!
//! Edge delays (driver output → sink input) are computed once from the
//! current placement with the Elmore model. Path delays from a launching
//! flip-flop come from one fused longest/shortest sweep over its fan-out
//! cone — the cells it reaches without crossing another flip-flop — so a
//! sweep costs `O(C log C + E_C)` for a cone of `C` cells and `E_C` edges,
//! independent of the circuit size, and a whole-circuit extraction costs
//! `O(Σ cone size)` up to that sort's log factor.

use crate::adjacency::AdjacentPair;
use crate::elmore::{loaded_edge_delay, net_load_cap};
use crate::tech::Technology;
use rotary_netlist::{CellId, CellKind, Circuit, NetId};

/// Arrival pair `(max, min)` of a cell outside the current cone.
const UNSET: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Pre-computed timing view of a placed circuit.
///
/// # Examples
///
/// ```
/// use rotary_netlist::BenchmarkSuite;
/// use rotary_timing::{Sta, Technology};
///
/// let c = BenchmarkSuite::S9234.circuit(1);
/// let sta = Sta::build(&c, &Technology::default());
/// let report = sta.critical_paths();
/// assert!(report.max_delay > 0.0);
/// assert!(report.min_delay <= report.max_delay);
/// ```
#[derive(Debug, Clone)]
pub struct Sta {
    /// Position of every cell in the topological order (flip-flops and
    /// primary inputs first); cone cells are relaxed in this order.
    rank: Vec<u32>,
    /// For each cell: outgoing edges `(sink, delay)`.
    edges: Vec<Vec<(CellId, f64)>>,
    /// Kind of every cell (copied for cheap access).
    kinds: Vec<CellKind>,
}

/// Reusable buffers of [`Sta::sweep_cone`]. Between sweeps every per-cell
/// entry is unset, so a sweep initializes and resets only its own cone.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConeScratch {
    /// `(max, min)` arrival per cell; `(−∞, +∞)` outside the current cone.
    arrival: Vec<(f64, f64)>,
    /// Whether a cell belongs to the current cone.
    seen: Vec<bool>,
    /// Cells of the current cone that propagate: the source and every
    /// non-flip-flop cell it reaches.
    cone: Vec<CellId>,
    /// Flip-flops whose data pin the current source reaches.
    ends: Vec<CellId>,
}

/// Whole-circuit critical-path summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaReport {
    /// Longest register-to-register combinational delay, ns.
    pub max_delay: f64,
    /// Shortest register-to-register combinational delay, ns.
    pub min_delay: f64,
    /// Number of flip-flop→flip-flop paths summarized.
    pub path_endpoints: usize,
}

impl Sta {
    /// Builds the timing view for the circuit's current placement.
    ///
    /// # Panics
    ///
    /// Panics if the combinational subgraph has a cycle (call
    /// [`Circuit::validate`] first to obtain a proper error).
    pub fn build(circuit: &Circuit, tech: &Technology) -> Self {
        let order =
            circuit.topological_order().expect("combinational cycle: validate() the circuit first");
        let mut rank = vec![0; circuit.cell_count()];
        for (r, &c) in order.iter().enumerate() {
            rank[c.index()] = r as u32;
        }
        let mut edges = vec![Vec::new(); circuit.cell_count()];
        for i in 0..circuit.net_count() {
            let net = NetId(i as u32);
            let n = circuit.net(net);
            let load = net_load_cap(circuit, net, tech);
            for &s in &n.sinks {
                let d = loaded_edge_delay(circuit, net, s, load, tech);
                edges[n.driver.index()].push((s, d));
            }
        }
        let kinds = circuit.cells.iter().map(|c| c.kind).collect();
        Self { rank, edges, kinds }
    }

    /// Number of cells in the analyzed circuit.
    pub fn cell_count(&self) -> usize {
        self.kinds.len()
    }

    /// Longest and shortest path delays from flip-flop `src` to every other
    /// flip-flop whose data pin it reaches through combinational logic
    /// only. Appends one [`AdjacentPair`] per such endpoint to `out`, in
    /// ascending endpoint id; a path back into `src` itself yields none.
    /// Both delays include the source's clk→q delay `clk_to_q`.
    ///
    /// Only `src`'s fan-out cone is visited. A breadth-first search that
    /// stops at flip-flop data pins collects it; max and min arrivals are
    /// relaxed together in topological rank order, so every cone cell is
    /// final before it relaxes its fan-out; then the touched `scratch`
    /// entries are reset.
    pub(crate) fn sweep_cone(
        &self,
        src: CellId,
        clk_to_q: f64,
        scratch: &mut ConeScratch,
        out: &mut Vec<AdjacentPair>,
    ) {
        let n = self.kinds.len();
        if scratch.seen.len() < n {
            scratch.seen.resize(n, false);
            scratch.arrival.resize(n, UNSET);
        }
        let ConeScratch { arrival, seen, cone, ends } = scratch;
        cone.clear();
        ends.clear();
        seen[src.index()] = true;
        cone.push(src);
        let mut head = 0;
        while head < cone.len() {
            let u = cone[head];
            head += 1;
            for &(v, _) in &self.edges[u.index()] {
                if seen[v.index()] {
                    continue;
                }
                seen[v.index()] = true;
                // Arrival at an FF data pin ends the path: do not expand it.
                if self.kinds[v.index()] == CellKind::FlipFlop {
                    ends.push(v);
                } else {
                    cone.push(v);
                }
            }
        }
        cone.sort_unstable_by_key(|c| self.rank[c.index()]);
        arrival[src.index()] = (clk_to_q, clk_to_q);
        for &u in cone.iter() {
            let (hi, lo) = arrival[u.index()];
            for &(v, d) in &self.edges[u.index()] {
                let slot = &mut arrival[v.index()];
                let cand = hi + d;
                if cand > slot.0 {
                    slot.0 = cand;
                }
                let cand = lo + d;
                if cand < slot.1 {
                    slot.1 = cand;
                }
            }
        }
        ends.sort_unstable();
        out.extend(ends.iter().map(|&to| {
            let (d_max, d_min) = arrival[to.index()];
            AdjacentPair { from: src, to, d_max, d_min }
        }));
        for &c in cone.iter().chain(ends.iter()) {
            arrival[c.index()] = UNSET;
            seen[c.index()] = false;
        }
    }

    /// Longest and shortest register-to-register delays over the whole
    /// circuit (summary used to sanity-check the clock period).
    pub fn critical_paths(&self) -> StaReport {
        let mut scratch = ConeScratch::default();
        let mut pairs = Vec::new();
        for (i, &kind) in self.kinds.iter().enumerate() {
            if kind == CellKind::FlipFlop {
                self.sweep_cone(CellId(i as u32), 0.0, &mut scratch, &mut pairs);
            }
        }
        if pairs.is_empty() {
            return StaReport { max_delay: 0.0, min_delay: 0.0, path_endpoints: 0 };
        }
        StaReport {
            max_delay: pairs.iter().map(|p| p.d_max).fold(f64::NEG_INFINITY, f64::max),
            min_delay: pairs.iter().map(|p| p.d_min).fold(f64::INFINITY, f64::min),
            path_endpoints: pairs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::SequentialGraph;
    use rotary_netlist::geom::{Point, Rect};
    use rotary_netlist::{Cell, Net};

    fn cell(kind: CellKind) -> Cell {
        Cell {
            kind,
            width: 2.0,
            height: 8.0,
            input_cap: 0.004,
            drive_resistance: 2.0,
            intrinsic_delay: 0.05,
        }
    }

    /// ff0 → g1 → ff3 and ff0 → g1 → g2 → ff3: a long and a short path.
    fn diamond() -> Circuit {
        let mut c = Circuit::new("d", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let g2 = c.add_cell(cell(CellKind::Combinational), Point::new(200.0, 0.0));
        let ff3 = c.add_cell(cell(CellKind::FlipFlop), Point::new(300.0, 0.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1] });
        c.add_net(Net { driver: g1, sinks: vec![g2, ff3] });
        c.add_net(Net { driver: g2, sinks: vec![ff3] });
        c
    }

    /// Pairs launched from `src` by one cone sweep.
    fn sweep(sta: &Sta, src: CellId, clk_to_q: f64) -> Vec<AdjacentPair> {
        let mut out = Vec::new();
        sta.sweep_cone(src, clk_to_q, &mut ConeScratch::default(), &mut out);
        out
    }

    #[test]
    fn longest_path_exceeds_shortest() {
        let c = diamond();
        let sta = Sta::build(&c, &Technology::default());
        let pairs = sweep(&sta, CellId(0), 0.0);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].from, pairs[0].to), (CellId(0), CellId(3)));
        assert!(pairs[0].d_max > pairs[0].d_min, "3-hop path should beat 2-hop path");
    }

    #[test]
    fn clk_to_q_shifts_arrivals() {
        let c = diamond();
        let sta = Sta::build(&c, &Technology::default());
        let a = sweep(&sta, CellId(0), 0.0)[0];
        let b = sweep(&sta, CellId(0), 0.25)[0];
        assert!((b.d_max - a.d_max - 0.25).abs() < 1e-12);
        assert!((b.d_min - a.d_min - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paths_do_not_cross_flip_flops() {
        // ff0 → g1 → ff2 → g3 → ff4: from ff0 only ff2 is reachable.
        let mut c = Circuit::new("chain", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(50.0, 0.0));
        let ff2 = c.add_cell(cell(CellKind::FlipFlop), Point::new(100.0, 0.0));
        let g3 = c.add_cell(cell(CellKind::Combinational), Point::new(150.0, 0.0));
        let ff4 = c.add_cell(cell(CellKind::FlipFlop), Point::new(200.0, 0.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1] });
        c.add_net(Net { driver: g1, sinks: vec![ff2] });
        c.add_net(Net { driver: ff2, sinks: vec![g3] });
        c.add_net(Net { driver: g3, sinks: vec![ff4] });
        let sta = Sta::build(&c, &Technology::default());
        let ends = sweep(&sta, ff0, 0.0);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].to, ff2);
    }

    #[test]
    fn scratch_is_clean_between_sweeps() {
        // Reusing one scratch across sources (and re-sweeping a source)
        // must give the same pairs as a fresh scratch every time.
        let c = diamond();
        let sta = Sta::build(&c, &Technology::default());
        let mut scratch = ConeScratch::default();
        for src in [CellId(0), CellId(3), CellId(0)] {
            let mut out = Vec::new();
            sta.sweep_cone(src, 0.1, &mut scratch, &mut out);
            assert_eq!(out, sweep(&sta, src, 0.1));
        }
    }

    #[test]
    fn critical_path_report() {
        let c = diamond();
        let sta = Sta::build(&c, &Technology::default());
        let r = sta.critical_paths();
        assert_eq!(r.path_endpoints, 1);
        assert!(r.max_delay > r.min_delay);
        assert!(r.min_delay > 0.0);
    }

    #[test]
    fn empty_reachability_yields_zero_report() {
        let mut c = Circuit::new("iso", Rect::from_size(10.0, 10.0));
        c.add_cell(cell(CellKind::FlipFlop), Point::new(1.0, 1.0));
        let sta = Sta::build(&c, &Technology::default());
        let r = sta.critical_paths();
        assert_eq!(r.path_endpoints, 0);
        assert_eq!(r.max_delay, 0.0);
    }
    /// Extraction and the critical-path summary of a degenerate circuit.
    fn extract_and_report(c: &Circuit) -> (SequentialGraph, StaReport) {
        let tech = Technology::default();
        (SequentialGraph::extract(c, &tech), Sta::build(c, &tech).critical_paths())
    }

    const ZERO_REPORT: StaReport = StaReport { max_delay: 0.0, min_delay: 0.0, path_endpoints: 0 };

    #[test]
    fn degenerate_zero_flip_flops() {
        // pi0 → g1 → po2: timing paths exist, but no register pair.
        let mut c = Circuit::new("comb", Rect::from_size(1000.0, 1000.0));
        let pi = c.add_cell(cell(CellKind::PrimaryInput), Point::new(0.0, 0.0));
        let g = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let po = c.add_cell(cell(CellKind::PrimaryOutput), Point::new(200.0, 0.0));
        c.add_net(Net { driver: pi, sinks: vec![g] });
        c.add_net(Net { driver: g, sinks: vec![po] });
        let (g, r) = extract_and_report(&c);
        assert!(g.flip_flops().is_empty());
        assert!(g.pairs().is_empty());
        assert_eq!(r, ZERO_REPORT);
    }

    #[test]
    fn degenerate_self_loop_yields_no_self_pair() {
        // ff0 → g1 → g2 → ff0: the only path returns to its launcher.
        let mut c = Circuit::new("loop", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let g2 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 100.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1] });
        c.add_net(Net { driver: g1, sinks: vec![g2] });
        c.add_net(Net { driver: g2, sinks: vec![ff0] });
        let (g, r) = extract_and_report(&c);
        assert_eq!(g.flip_flops(), &[ff0]);
        assert!(g.pairs().is_empty());
        assert_eq!(r, ZERO_REPORT);
    }

    #[test]
    fn degenerate_flip_flop_driving_only_outputs() {
        // ff0 → {g1 → po2, po3}; ff4 → g5 → ff6 is the only register pair.
        let mut c = Circuit::new("outs", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let po2 = c.add_cell(cell(CellKind::PrimaryOutput), Point::new(200.0, 0.0));
        let po3 = c.add_cell(cell(CellKind::PrimaryOutput), Point::new(0.0, 200.0));
        let ff4 = c.add_cell(cell(CellKind::FlipFlop), Point::new(300.0, 300.0));
        let g5 = c.add_cell(cell(CellKind::Combinational), Point::new(400.0, 300.0));
        let ff6 = c.add_cell(cell(CellKind::FlipFlop), Point::new(500.0, 300.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1, po3] });
        c.add_net(Net { driver: g1, sinks: vec![po2] });
        c.add_net(Net { driver: ff4, sinks: vec![g5] });
        c.add_net(Net { driver: g5, sinks: vec![ff6] });
        let (g, r) = extract_and_report(&c);
        let ends: Vec<_> = g.pairs().iter().map(|p| (p.from, p.to)).collect();
        assert_eq!(ends, vec![(ff4, ff6)]);
        assert_eq!(r.path_endpoints, 1);
        assert!(r.min_delay > 0.0);
    }

    #[test]
    fn degenerate_disconnected_flip_flop() {
        // ff1 has no nets at all; it is a graph vertex without pairs.
        let mut c = Circuit::new("island", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let ff1 = c.add_cell(cell(CellKind::FlipFlop), Point::new(500.0, 500.0));
        let g2 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let ff3 = c.add_cell(cell(CellKind::FlipFlop), Point::new(200.0, 0.0));
        c.add_net(Net { driver: ff0, sinks: vec![g2] });
        c.add_net(Net { driver: g2, sinks: vec![ff3] });
        let (g, r) = extract_and_report(&c);
        assert_eq!(g.flip_flops(), &[ff0, ff1, ff3]);
        assert!(g.pairs().iter().all(|p| p.from != ff1 && p.to != ff1));
        assert_eq!(g.pairs().len(), 1);
        assert_eq!(r.path_endpoints, 1);
        // The summary launches at clk→q = 0; extraction adds ff0's.
        let clk_to_q = c.cell(ff0).intrinsic_delay;
        assert!((r.max_delay + clk_to_q - g.pairs()[0].d_max).abs() < 1e-12);
        assert!((r.min_delay + clk_to_q - g.pairs()[0].d_min).abs() < 1e-12);
    }

    #[test]
    fn degenerate_equal_parallel_paths() {
        // ff0 → {g1, g2} → ff3 with both branches mirror images: one pair
        // whose longest and shortest delays are the same float.
        let mut c = Circuit::new("parallel", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 100.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 150.0));
        let g2 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 50.0));
        let ff3 = c.add_cell(cell(CellKind::FlipFlop), Point::new(200.0, 100.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1, g2] });
        c.add_net(Net { driver: g1, sinks: vec![ff3] });
        c.add_net(Net { driver: g2, sinks: vec![ff3] });
        let (g, r) = extract_and_report(&c);
        assert_eq!(g.pairs().len(), 1);
        let p = g.pairs()[0];
        assert_eq!((p.from, p.to), (ff0, ff3));
        assert_eq!(p.d_max.to_bits(), p.d_min.to_bits());
        assert_eq!(r.path_endpoints, 1);
        assert_eq!(r.max_delay.to_bits(), r.min_delay.to_bits());
    }
}
