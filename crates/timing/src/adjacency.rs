//! Sequential-adjacency extraction: the constraint graph of skew
//! optimization.
//!
//! Two flip-flops `i`, `j` are *sequentially adjacent* (`i ↦ j`) when only
//! combinational logic lies between them. Every such pair contributes a
//! long-path (setup) and a short-path (hold) constraint to the skew
//! scheduling LP of Section VII.

use crate::sta::{ConeScratch, Sta};
use crate::tech::Technology;
use rotary_netlist::{CellId, Circuit};
use serde::{Deserialize, Serialize};

/// One sequentially adjacent flip-flop pair `from ↦ to` with its extreme
/// combinational path delays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdjacentPair {
    /// Launching flip-flop `i`.
    pub from: CellId,
    /// Capturing flip-flop `j`.
    pub to: CellId,
    /// Maximum combinational delay `D_max^ij`, ns (includes clk→q).
    pub d_max: f64,
    /// Minimum combinational delay `D_min^ij`, ns (includes clk→q).
    pub d_min: f64,
}

impl AdjacentPair {
    /// Upper bound of the permissible skew range,
    /// `t̂_i − t̂_j ≤ T − D_max − t_setup`.
    pub fn skew_upper(&self, tech: &Technology) -> f64 {
        tech.clock_period - self.d_max - tech.setup
    }

    /// Lower bound of the permissible skew range,
    /// `t̂_i − t̂_j ≥ t_hold − D_min`.
    pub fn skew_lower(&self, tech: &Technology) -> f64 {
        tech.hold - self.d_min
    }
}

/// The sequential-adjacency graph of a placed circuit.
///
/// # Examples
///
/// ```
/// use rotary_netlist::BenchmarkSuite;
/// use rotary_timing::{SequentialGraph, Technology};
///
/// let c = BenchmarkSuite::S5378.circuit(3);
/// let g = SequentialGraph::extract(&c, &Technology::default());
/// // Permissible ranges are non-empty at the paper's 1 GHz operating point.
/// let tech = Technology::default();
/// let feasible = g.pairs().iter().filter(|p| p.skew_lower(&tech) <= p.skew_upper(&tech)).count();
/// assert!(feasible > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequentialGraph {
    flip_flops: Vec<CellId>,
    pairs: Vec<AdjacentPair>,
}

impl SequentialGraph {
    /// Extracts all sequentially adjacent pairs of `circuit` with their
    /// `D_max`/`D_min` under the Elmore model, at the current placement.
    ///
    /// Runs one fused longest/shortest sweep per flip-flop over its
    /// fan-out cone (`Sta::sweep_cone`), `O(Σ cone size)` in total. Pairs
    /// come in ascending `(from, to)` order.
    pub fn extract(circuit: &Circuit, tech: &Technology) -> Self {
        let sta = Sta::build(circuit, tech);
        Self::extract_with_sta(circuit, &sta)
    }

    /// As [`Self::extract`] but reusing a prebuilt [`Sta`] view.
    pub fn extract_with_sta(circuit: &Circuit, sta: &Sta) -> Self {
        let flip_flops = circuit.flip_flops();
        let mut pairs = Vec::new();
        let mut scratch = ConeScratch::default();
        for &src in &flip_flops {
            sta.sweep_cone(src, circuit.cell(src).intrinsic_delay, &mut scratch, &mut pairs);
        }
        Self { flip_flops, pairs }
    }

    /// All flip-flops of the circuit (constraint-graph vertices).
    pub fn flip_flops(&self) -> &[CellId] {
        &self.flip_flops
    }

    /// All sequentially adjacent pairs (constraint-graph edges).
    pub fn pairs(&self) -> &[AdjacentPair] {
        &self.pairs
    }

    /// Checks a candidate skew schedule (clock-delay target per flip-flop,
    /// indexed like [`Self::flip_flops`]) against all constraints with
    /// slack `m`; returns the first violated pair, if any.
    pub fn check_schedule(
        &self,
        targets: &[f64],
        tech: &Technology,
        m: f64,
        tol: f64,
    ) -> Option<AdjacentPair> {
        let index_of =
            |id: CellId| self.flip_flops.binary_search(&id).expect("flip-flop present in graph");
        for p in &self.pairs {
            let skew = targets[index_of(p.from)] - targets[index_of(p.to)];
            if skew + m > p.skew_upper(tech) + tol || skew < p.skew_lower(tech) + m - tol {
                return Some(*p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_netlist::geom::{Point, Rect};
    use rotary_netlist::{Cell, CellKind, Net};

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

    /// ff0 → g → ff1, ff1 → g → ff2.
    fn pipeline() -> Circuit {
        let mut c = Circuit::new("p", Rect::from_size(1000.0, 1000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let ff1 = c.add_cell(cell(CellKind::FlipFlop), Point::new(200.0, 0.0));
        let ff2 = c.add_cell(cell(CellKind::FlipFlop), Point::new(400.0, 0.0));
        let g1 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 0.0));
        let g2 = c.add_cell(cell(CellKind::Combinational), Point::new(300.0, 0.0));
        c.add_net(Net { driver: ff0, sinks: vec![g1] });
        c.add_net(Net { driver: g1, sinks: vec![ff1] });
        c.add_net(Net { driver: ff1, sinks: vec![g2] });
        c.add_net(Net { driver: g2, sinks: vec![ff2] });
        c
    }

    #[test]
    fn extracts_exactly_the_adjacent_pairs() {
        let c = pipeline();
        let g = SequentialGraph::extract(&c, &Technology::default());
        assert_eq!(g.pairs().len(), 2);
        let ends: Vec<_> = g.pairs().iter().map(|p| (p.from, p.to)).collect();
        assert!(ends.contains(&(CellId(0), CellId(1))));
        assert!(ends.contains(&(CellId(1), CellId(2))));
        // ff0 ↦ ff2 is NOT adjacent (a flip-flop lies between).
        assert!(!ends.contains(&(CellId(0), CellId(2))));
    }

    #[test]
    fn dmax_at_least_dmin() {
        let c = pipeline();
        let g = SequentialGraph::extract(&c, &Technology::default());
        for p in g.pairs() {
            assert!(p.d_max >= p.d_min);
            assert!(p.d_min > 0.0);
        }
    }

    #[test]
    fn permissible_range_nonempty_at_1ghz() {
        let c = pipeline();
        let tech = Technology::default();
        let g = SequentialGraph::extract(&c, &tech);
        for p in g.pairs() {
            assert!(p.skew_lower(&tech) < p.skew_upper(&tech));
        }
    }

    #[test]
    fn reconvergent_paths_split_dmax_dmin() {
        // ff0 fans out to a short gate chain and a long one, both capturing
        // at ff1: D_max must reflect the long path, D_min the short one.
        let mut c = Circuit::new("reconv", Rect::from_size(4000.0, 4000.0));
        let ff0 = c.add_cell(cell(CellKind::FlipFlop), Point::new(0.0, 0.0));
        let ff1 = c.add_cell(cell(CellKind::FlipFlop), Point::new(100.0, 0.0));
        let fast = c.add_cell(cell(CellKind::Combinational), Point::new(50.0, 0.0));
        let slow1 = c.add_cell(cell(CellKind::Combinational), Point::new(0.0, 2000.0));
        let slow2 = c.add_cell(cell(CellKind::Combinational), Point::new(100.0, 2000.0));
        c.add_net(Net { driver: ff0, sinks: vec![fast, slow1] });
        c.add_net(Net { driver: fast, sinks: vec![ff1] });
        c.add_net(Net { driver: slow1, sinks: vec![slow2] });
        c.add_net(Net { driver: slow2, sinks: vec![ff1] });
        let g = SequentialGraph::extract(&c, &Technology::default());
        assert_eq!(g.pairs().len(), 1);
        let p = g.pairs()[0];
        assert!(
            p.d_max > 2.0 * p.d_min,
            "long detour path should dominate: {} vs {}",
            p.d_max,
            p.d_min
        );
    }

    #[test]
    fn moving_cells_changes_extracted_delays() {
        let mut c = pipeline();
        let tech = Technology::default();
        let before = SequentialGraph::extract(&c, &tech).pairs()[0].d_max;
        // Stretch the first gate far away: D_max of the first pair grows.
        c.set_position(CellId(3), Point::new(900.0, 900.0));
        let after = SequentialGraph::extract(&c, &tech).pairs()[0].d_max;
        assert!(after > before);
    }

    #[test]
    fn zero_schedule_valid_for_relaxed_pipeline() {
        let c = pipeline();
        let tech = Technology::default();
        let g = SequentialGraph::extract(&c, &tech);
        let targets = vec![0.0; g.flip_flops().len()];
        assert!(g.check_schedule(&targets, &tech, 0.0, 1e-9).is_none());
    }

    #[test]
    fn violated_schedule_detected() {
        let c = pipeline();
        let tech = Technology::default();
        let g = SequentialGraph::extract(&c, &tech);
        // Huge positive skew on ff0 blows the setup constraint of ff0↦ff1.
        let targets = vec![10.0, 0.0, 0.0];
        let bad = g.check_schedule(&targets, &tech, 0.0, 1e-9);
        assert!(bad.is_some());
        assert_eq!(bad.expect("violation").from, CellId(0));
    }
}
