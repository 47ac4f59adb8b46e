//! Property-based tests for the min-cost-circulation engine behind the
//! weighted-sum skew dual (stage 4).
//!
//! Three families:
//!
//! * the one-shot `f64` reference (`FlowNetwork::min_cost_circulation`)
//!   and the network-simplex engine (`Circulation`) are checked against
//!   an explicit dense LP on random *feasible* difference systems —
//!   objective equality to 1e-6 and a dual recovery that satisfies every
//!   generated constraint;
//! * a warm `Circulation` carried through a sequence of cost-only
//!   re-wraps and cap changes returns the same optimum and bit-identical
//!   `canonical_distances` as a cold engine at every step;
//! * `weighted_schedule_ctx` must return bit-identical schedules whether
//!   the context (and therefore the circulation basis) is carried across
//!   a sequence of perturbed ideal vectors or reset before every solve,
//!   and whether or not each step goes through the re-wrap entry point
//!   (`weighted_schedule_rewrap_ctx`) — warm starts are pure
//!   accelerators.

use proptest::prelude::*;
use rotary::core::skew::{weighted_schedule_ctx, weighted_schedule_rewrap_ctx, SkewContext};
use rotary::netlist::geom::{Point, Rect};
use rotary::netlist::{Cell, CellKind, Circuit, Net};
use rotary::solver::lp::{LpProblem, LpStatus, RowKind};
use rotary::solver::mcmf::{Circulation, FlowNetwork};
use rotary::timing::{SequentialGraph, Technology};

/// Fixed-point scale matching the engine integration in `core::skew`.
const COST_SCALE: f64 = 1_099_511_627_776.0; // 2^40

/// A random feasible difference system with per-node weights and ideals.
struct Instance {
    n: usize,
    /// `(i, j, bound)`: constraint `y_i − y_j ≤ bound`.
    constraints: Vec<(usize, usize, f64)>,
    weight: Vec<i64>,
    ideal: Vec<f64>,
}

impl Instance {
    /// Feasibility by construction: every bound is `y*_i − y*_j + slack`
    /// with `slack ≥ 0`, so `y*` witnesses the whole system.
    fn build(
        n: usize,
        witness: &[f64],
        raw_edges: &[(usize, usize, f64)],
        weight: &[i64],
        ideal: &[f64],
    ) -> Self {
        let mut constraints = Vec::new();
        for &(a, b, slack) in raw_edges {
            let (i, j) = (a % n, b % n);
            if i == j {
                continue;
            }
            constraints.push((i, j, witness[i] - witness[j] + slack));
        }
        Instance { n, constraints, weight: weight[..n].to_vec(), ideal: ideal[..n].to_vec() }
    }

    /// `min Σ w_i·|y_i − t_i|` subject to the difference constraints,
    /// solved as an explicit dense LP (free `y`, nonnegative deviation
    /// variables `e`).
    fn lp_optimum(&self) -> f64 {
        let n = self.n;
        let mut obj = vec![0.0; n];
        obj.extend(self.weight.iter().map(|&w| w as f64));
        let mut lp = LpProblem::minimize(obj);
        for j in 0..n {
            lp.set_free(j);
        }
        for &(i, j, b) in &self.constraints {
            lp.add_row(RowKind::Le, b, &[(i, 1.0), (j, -1.0)]);
        }
        for (i, &t) in self.ideal.iter().enumerate() {
            lp.add_row(RowKind::Le, t, &[(i, 1.0), (n + i, -1.0)]);
            lp.add_row(RowKind::Le, -t, &[(i, -1.0), (n + i, -1.0)]);
        }
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal, "feasible by construction");
        sol.objective
    }

    /// The circulation dual's arc list: constraint arcs plus an R-arc
    /// pair per node (capacity = weight), exactly as `core::skew` builds
    /// it.
    fn dual_arcs(&self) -> (Vec<(u32, u32)>, Vec<i64>, Vec<f64>) {
        let n = self.n;
        let total_w: i64 = self.weight.iter().sum::<i64>().max(1);
        let mut pairs = Vec::new();
        let mut caps = Vec::new();
        let mut costs = Vec::new();
        for &(i, j, b) in &self.constraints {
            pairs.push((i as u32, j as u32));
            caps.push(total_w);
            costs.push(b);
        }
        for (i, (&w, &t)) in self.weight.iter().zip(&self.ideal).enumerate() {
            pairs.push((i as u32, n as u32));
            caps.push(w);
            costs.push(t);
            pairs.push((n as u32, i as u32));
            caps.push(w);
            costs.push(-t);
        }
        (pairs, caps, costs)
    }
}

proptest! {
    /// Both circulation engines reproduce the dense-LP optimum of the
    /// weighted deviation problem (`min-cost circulation = −LP optimum`),
    /// and the integer engine's canonical duals recover a schedule that
    /// satisfies every constraint of the system at the LP's objective.
    #[test]
    fn circulation_engines_match_dense_lp(
        n in 3usize..7,
        witness in prop::collection::vec(0.0..2.0f64, 7),
        raw_edges in prop::collection::vec((0usize..49, 0usize..49, 0.0..1.0f64), 4..16),
        weight in prop::collection::vec(0i64..8, 7),
        ideal in prop::collection::vec(0.0..2.0f64, 7),
    ) {
        let inst = Instance::build(n, &witness, &raw_edges, &weight, &ideal);
        let opt = inst.lp_optimum();
        let (pairs, caps, costs) = inst.dual_arcs();

        // f64 reference engine.
        let mut net = FlowNetwork::new(n + 1);
        for ((&(i, j), &cap), &cost) in pairs.iter().zip(&caps).zip(&costs) {
            net.add_arc(net.node(i as usize), net.node(j as usize), cap, cost);
        }
        let ref_cost = net.min_cost_circulation();
        prop_assert!(
            (-ref_cost - opt).abs() < 1e-6,
            "reference circulation {} vs LP {}", -ref_cost, opt
        );

        // Incremental integer engine at the 2^40 fixed-point scale.
        let qcosts: Vec<i64> = costs.iter().map(|c| (c * COST_SCALE).round() as i64).collect();
        let mut engine = Circulation::new(n + 1, &pairs);
        engine.solve(&caps, &qcosts, false);
        let engine_obj = -(engine.total_cost() as f64) / COST_SCALE;
        prop_assert!(
            (engine_obj - opt).abs() < 1e-6,
            "integer circulation {} vs LP {}", engine_obj, opt
        );

        // Dual recovery: feasible for the difference system and optimal.
        let d = engine.canonical_distances();
        let y: Vec<f64> = (0..n).map(|i| (d[n] - d[i]) as f64 / COST_SCALE).collect();
        for &(i, j, b) in &inst.constraints {
            prop_assert!(y[i] - y[j] <= b + 1e-6, "constraint {i}->{j} violated");
        }
        let recovered: f64 = inst
            .weight
            .iter()
            .zip(&inst.ideal)
            .enumerate()
            .map(|(i, (&w, &t))| w as f64 * (y[i] - t).abs())
            .sum();
        prop_assert!(
            recovered <= opt + 1e-6,
            "recovered schedule objective {} exceeds LP optimum {}", recovered, opt
        );
    }

    /// A warm engine carried through a sequence of steps — cost-only
    /// antisymmetric R-arc shifts (the shape a phase re-wrap round
    /// produces, resumed from the carried basis) and weight changes (cap
    /// changes, restarted from the artificial basis) — lands on the same
    /// exact optimum as a cold engine at every step: equal total cost and
    /// bit-identical canonical distances. Flows are *not* compared: zero-
    /// cost R-arc 2-cycles make the optimal flow non-unique.
    #[test]
    fn warm_circulation_is_bit_identical_to_cold(
        n in 3usize..7,
        witness in prop::collection::vec(0.0..2.0f64, 7),
        raw_edges in prop::collection::vec((0usize..49, 0usize..49, 0.0..1.0f64), 4..16),
        weight in prop::collection::vec(0i64..8, 7),
        ideal in prop::collection::vec(0.0..2.0f64, 7),
        steps in prop::collection::vec((0usize..49, -0.5..0.5f64, 0i64..8, 0usize..2), 1..6),
    ) {
        let inst = Instance::build(n, &witness, &raw_edges, &weight, &ideal);
        let (pairs, mut caps, costs) = inst.dual_arcs();
        let mut qcosts: Vec<i64> = costs.iter().map(|c| (c * COST_SCALE).round() as i64).collect();
        let base = inst.constraints.len();
        let mut warm = Circulation::new(n + 1, &pairs);
        warm.solve(&caps, &qcosts, false);
        for &(at, shift, w, kind) in &steps {
            let reweight = kind == 1;
            let k = base + 2 * (at % n);
            if reweight {
                caps[k] = w;
                caps[k + 1] = w;
            } else {
                let dq = (shift * COST_SCALE).round() as i64;
                qcosts[k] += dq;
                qcosts[k + 1] -= dq;
            }
            let stats = warm.solve(&caps, &qcosts, true);
            prop_assert!(reweight || stats.delta_pairs <= 2, "one R-arc pair moved");
            let mut cold = Circulation::new(n + 1, &pairs);
            cold.solve(&caps, &qcosts, false);
            prop_assert_eq!(warm.total_cost(), cold.total_cost());
            prop_assert_eq!(warm.canonical_distances(), cold.canonical_distances());
        }
    }

    /// Carrying the `SkewContext` (and its circulation engine) across a
    /// sequence of perturbed ideal vectors gives bit-identical schedules
    /// to resetting the context before every solve. A second warm context
    /// takes every step after the first through the re-wrap entry point,
    /// naming the one flip-flop whose ideal moved; debug builds check
    /// there that the carried engine's caps are unchanged.
    #[test]
    fn warm_weighted_schedule_is_bit_identical_to_cold(
        n in 4usize..8,
        cross in prop::collection::vec((0usize..49, 0usize..49), 2..5),
        base_ideal in prop::collection::vec(0.0..0.9f64, 8),
        perturb in prop::collection::vec((0usize..49, -0.4..0.4f64), 3..6),
    ) {
        let cell = |kind: CellKind| Cell {
            kind,
            width: 2.0,
            height: 8.0,
            input_cap: 0.004,
            drive_resistance: 0.4,
            intrinsic_delay: 0.02,
        };
        let mut c = Circuit::new("warmprop", Rect::from_size(2000.0, 2000.0));
        let ffs: Vec<_> = (0..n)
            .map(|k| {
                c.add_cell(
                    cell(CellKind::FlipFlop),
                    Point::new(100.0 + 70.0 * k as f64, 100.0 + 40.0 * (k % 3) as f64),
                )
            })
            .collect();
        // Pipeline ring plus a few random cross edges, each through a gate.
        let mut edges: Vec<(usize, usize)> = (0..n).map(|k| (k, (k + 1) % n)).collect();
        edges.extend(cross.iter().map(|&(a, b)| (a % n, b % n)).filter(|(a, b)| a != b));
        for &(a, b) in &edges {
            let g = c.add_cell(
                cell(CellKind::Combinational),
                Point::new(150.0 + 50.0 * a as f64, 150.0 + 50.0 * b as f64),
            );
            c.add_net(Net { driver: ffs[a], sinks: vec![g] });
            c.add_net(Net { driver: g, sinks: vec![ffs[b]] });
        }
        let tech = Technology::default();
        let graph = SequentialGraph::extract(&c, &tech);
        if graph.pairs().is_empty() {
            return Ok(());
        }

        // Sequence of ideal vectors: the base, then cumulative point
        // perturbations (the shape a phase re-wrap round produces).
        let mut ideals = vec![base_ideal[..n].to_vec()];
        for &(at, delta) in &perturb {
            let mut next = ideals.last().unwrap().clone();
            next[at % n] += delta;
            ideals.push(next);
        }
        let weight: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();

        let mut warm_ctx = SkewContext::new();
        let mut rewrap_ctx = SkewContext::new();
        for (step, ideal) in ideals.iter().enumerate() {
            let (warm, wstats) =
                weighted_schedule_ctx(&graph, &tech, ideal, &weight, 0.0, &mut warm_ctx);
            let (rewrapped_sched, hstats) = match step {
                0 => weighted_schedule_ctx(&graph, &tech, ideal, &weight, 0.0, &mut rewrap_ctx),
                _ => {
                    let rewrapped = [(perturb[step - 1].0 % n) as u32];
                    weighted_schedule_rewrap_ctx(
                        &graph, &tech, ideal, &weight, 0.0, &mut rewrap_ctx, &rewrapped,
                    )
                }
            };
            let mut cold_ctx = SkewContext::new();
            let (cold, cstats) =
                weighted_schedule_ctx(&graph, &tech, ideal, &weight, 0.0, &mut cold_ctx);
            prop_assert!(cstats.reused_work == 0, "cold solve must not report reuse");
            prop_assert_eq!(warm.targets.len(), cold.targets.len());
            prop_assert_eq!(rewrapped_sched.targets.len(), cold.targets.len());
            for ((a, h), b) in warm.targets.iter().zip(&rewrapped_sched.targets).zip(&cold.targets) {
                prop_assert!(a.to_bits() == b.to_bits(), "warm {} vs cold {}", a, b);
                prop_assert!(h.to_bits() == b.to_bits(), "re-wrapped {} vs cold {}", h, b);
            }
            prop_assert!(
                hstats.delta_arcs == wstats.delta_arcs,
                "the re-wrap entry point changed the diff: {} vs {}",
                hstats.delta_arcs,
                wstats.delta_arcs
            );
        }
    }
}
