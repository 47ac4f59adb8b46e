//! The integrated methodology flow of Fig. 3.
//!
//! ```text
//! 1. initial placement                      (rotary-place)
//! 2. skew optimization (max slack)          (skew::max_slack_schedule)
//! 3. flip-flop assignment to rings          (assign::*)
//! 4. cost-driven skew optimization          (skew::minimax / weighted)
//! 5. evaluate overall cost  ──converged──▶  done
//! 6. pseudo-net insertion + incremental placement, back to 2
//! ```
//!
//! The loop re-runs skew optimization after every incremental placement
//! because the combinational delays (and therefore the permissible ranges)
//! move with the cells — this is precisely the cyclic dependency the
//! flexible-tapping relaxation makes tractable.
//!
//! Every pass through a stage is recorded into the outcome's
//! [`FlowTelemetry`]: wall time, dominant problem size, and inner solver
//! iterations (simplex pivots, feasibility solves, augmenting paths,
//! canceled cycles), keyed by stage and flow iteration.

use crate::assign::{self, Assignment};
use crate::metrics::CostSnapshot;
use crate::skew::{self, SkewSchedule, SkewStats};
use crate::tapping::{CandidateCache, CandidateCosts, TapAssignments};
use crate::telemetry::{FlowTelemetry, Stage};
use rotary_netlist::Circuit;
use rotary_place::{Placer, PlacerConfig, PseudoNet};
use rotary_ring::{RingArray, RingParams};
use rotary_solver::lp::WarmMode;
use rotary_solver::mcmf::CirculationBackend;
use rotary_solver::par::{par_map_with, ParConfig};
use rotary_timing::{SequentialGraph, Technology};
use serde::{Deserialize, Serialize};

/// Which cost-driven skew formulation stage 4 uses (Section VII offers
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkewVariant {
    /// Minimize the maximum deviation Δ (the first formulation).
    Minimax,
    /// Minimize `Σ w_i δ_i` with `w_i = l_i` (the paper's "natural
    /// choice"); solved via the min-cost-circulation dual.
    WeightedSum,
}

/// Which assignment objective stage 3 optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignmentObjective {
    /// Minimize total tapping cost via min-cost network flow (Section V).
    TappingCost,
    /// Minimize maximum ring load capacitance via LP-relaxation + greedy
    /// rounding (Section VI) — for speed-critical designs.
    MaxLoadCap,
}

/// Configuration of the integrated flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Placer tuning.
    pub placer: PlacerConfig,
    /// Rotary ring electrical parameters.
    pub ring_params: RingParams,
    /// Technology constants for timing/power.
    pub tech: Technology,
    /// Candidate rings per flip-flop (arc pruning of Section V).
    pub candidate_rings: usize,
    /// Pseudo-net weight in the first iteration.
    pub pseudo_weight: f64,
    /// Multiplicative pseudo-net weight growth per iteration.
    pub pseudo_weight_growth: f64,
    /// Maximum stage 2–6 iterations (the paper converges within five).
    pub max_iterations: usize,
    /// Relative overall-cost improvement below which the flow stops.
    pub convergence_tol: f64,
    /// Weight of tapping cost in the stage-5 overall cost.
    pub tapping_weight: f64,
    /// Fraction of the max slack `M*` reserved as the prespecified slack
    /// `M` of the cost-driven formulations.
    pub slack_fraction: f64,
    /// Stage-4 formulation.
    pub skew_variant: SkewVariant,
    /// Stage-3 objective.
    pub objective: AssignmentObjective,
    /// Carry feasibility potentials across skew solves (period search,
    /// stage 2, stage 4) so each parametric probe relaxes from the previous
    /// iteration's labels instead of a cold start. Schedules are
    /// bit-identical either way — the warm seed only accelerates the
    /// feasibility verdicts — so this is off only for diagnostics.
    #[serde(default = "default_true")]
    pub warm_start: bool,
    /// Min-cost-circulation engine behind the stage-4 weighted dual. One
    /// engine exists, the primal network simplex; the field keeps the
    /// configuration surface stable.
    #[serde(default)]
    pub circulation_backend: CirculationBackend,
}

// Referenced by the `#[serde(default)]` attribute; the offline serde shim
// parses but ignores field attributes, so the function looks unused there.
#[allow(dead_code)]
fn default_true() -> bool {
    true
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            placer: PlacerConfig::default(),
            ring_params: RingParams::default(),
            tech: Technology::default(),
            candidate_rings: 6,
            pseudo_weight: 16.0,
            pseudo_weight_growth: 1.8,
            max_iterations: 5,
            convergence_tol: 0.01,
            tapping_weight: 10.0,
            slack_fraction: 0.25,
            skew_variant: SkewVariant::WeightedSum,
            objective: AssignmentObjective::TappingCost,
            warm_start: true,
            circulation_backend: CirculationBackend::NetworkSimplex,
        }
    }
}

/// Metrics of one stage 2–6 iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationMetrics {
    /// Stage-5 evaluation after the cost-driven skew optimization.
    pub snapshot: CostSnapshot,
    /// Max slack `M*` found by stage 2 this iteration, ns.
    pub max_slack: f64,
    /// Mean cell displacement of the incremental placement that followed
    /// (0 for the final iteration).
    pub placement_displacement: f64,
}

/// Complete result of a flow run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// The stage 1–3 **base case** (Table III): network-flow assignment at
    /// the stage-2 schedule, before any cost-driven optimization or
    /// pseudo-net iteration.
    pub base: CostSnapshot,
    /// Per-iteration metrics.
    pub iterations: Vec<IterationMetrics>,
    /// Final skew schedule.
    pub schedule: SkewSchedule,
    /// Final assignment.
    pub assignment: Assignment,
    /// Final tap solutions.
    pub taps: TapAssignments,
    /// Per-stage instrumentation: wall time, problem sizes, and solver
    /// iteration counts for every pass through every Fig. 3 stage.
    pub telemetry: FlowTelemetry,
    /// Per-flip-flop tapping wirelengths of the base case, µm (for the
    /// Table III/VI power evaluation).
    pub base_tap_wirelengths: Vec<f64>,
    /// Signal-net power at the initial placement, mW.
    pub base_signal_power: rotary_power::PowerBreakdown,
}

impl FlowOutcome {
    /// Final evaluation snapshot.
    pub fn final_snapshot(&self) -> CostSnapshot {
        self.iterations.last().map(|it| it.snapshot).unwrap_or(self.base)
    }

    /// Fractional tapping-wirelength improvement over the base case
    /// (the paper's headline 33–53%).
    pub fn tapping_improvement(&self) -> f64 {
        crate::metrics::improvement(self.base.tapping_wl, self.final_snapshot().tapping_wl)
    }

    /// Fractional total-wirelength improvement over the base case.
    pub fn total_wl_improvement(&self) -> f64 {
        crate::metrics::improvement(self.base.total_wl(), self.final_snapshot().total_wl())
    }

    /// Fractional signal-wirelength change (negative = increase, the
    /// expected small penalty).
    pub fn signal_wl_improvement(&self) -> f64 {
        crate::metrics::improvement(self.base.signal_wl, self.final_snapshot().signal_wl)
    }

    /// Wall-clock seconds spent in the optimization stages 2–5.
    pub fn stage_seconds(&self) -> f64 {
        self.telemetry.stage_seconds()
    }

    /// Wall-clock seconds spent in the placer (stages 1 and 6).
    pub fn placer_seconds(&self) -> f64 {
        self.telemetry.placer_seconds()
    }
}

/// The integrated flow driver.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    config: FlowConfig,
}

impl Flow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the full Fig. 3 flow on `circuit` with a `ring_grid × ring_grid`
    /// rotary array. Mutates the circuit's placement.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no flip-flops or the timing constraints
    /// are infeasible at the technology's clock period.
    pub fn run(&self, circuit: &mut Circuit, ring_grid: usize) -> FlowOutcome {
        let cfg = &self.config;
        let placer = Placer::new(cfg.placer);
        let mut telemetry = FlowTelemetry::new();

        // Stage 1: initial placement.
        {
            let mut stage = telemetry.stage(Stage::InitialPlacement, 0);
            stage.set_problem_size(circuit.cell_count());
            placer.place(circuit);
        }

        // Potentials carried across every skew-feasibility solve of the run
        // (period search, stage 2, stage 4). Cleared before each use when
        // warm starting is disabled.
        let mut skew_ctx = skew::SkewContext::new();
        // Optimal LP basis carried across the stage-3 relaxation solves,
        // and the candidate ring lists carried across stage-3 cost
        // computations — both cleared per pass when warm starting is off.
        let mut assign_ctx = assign::AssignContext::new();
        assign_ctx.set_crash_start(cfg.warm_start);
        let mut cand_cache = CandidateCache::new();

        // Determine the effective clock period once, after the initial
        // placement: rings are physical hardware whose period cannot change
        // between flow iterations. A 15% margin keeps later iterations
        // (whose delays drift with incremental placement) feasible. The
        // search is a parametric feasibility solve and books under its own
        // stage label (it is not a stage-2 pass — there is no schedule yet).
        let (graph0, tech, ring_params) = {
            let mut stage = telemetry.stage(Stage::PeriodSearch, 0);
            let graph0 = SequentialGraph::extract(circuit, &cfg.tech);
            stage.set_problem_size(2 * graph0.pairs().len().max(1));
            let period = {
                let (min_p, stats) =
                    skew::min_feasible_period_ctx(&graph0, &cfg.tech, &mut skew_ctx);
                stage.add_solver_iterations(stats.solver_iterations);
                stage.set_reused_work(stats.reused_work);
                stage.add_delta_arcs(stats.delta_arcs);
                stage.add_affected_vertices(stats.affected_vertices);
                if min_p > cfg.tech.clock_period {
                    1.15 * min_p
                } else {
                    min_p
                }
            };
            let tech = Technology { clock_period: period, ..cfg.tech };
            let ring_params = rotary_ring::RingParams { period, ..cfg.ring_params };
            (graph0, tech, ring_params)
        };

        let array = RingArray::generate(circuit.die, ring_grid, ring_params);
        let capacities = array.capacities();

        let mut base: Option<(CostSnapshot, Vec<f64>, rotary_power::PowerBreakdown)> = None;
        let mut iterations = Vec::new();
        let mut schedule = SkewSchedule::zero(circuit.flip_flop_count());
        let mut assignment = Assignment { rings: Vec::new() };
        let mut prev_cost = f64::INFINITY;

        for iter in 0..cfg.max_iterations {
            // Stage 2: max-slack skew optimization on the current placement.
            let (graph, stage2) = {
                let mut stage = telemetry.stage(Stage::SkewOptimization, iter);
                let graph = if iter == 0 {
                    graph0.clone()
                } else {
                    SequentialGraph::extract(circuit, &tech)
                };
                if !cfg.warm_start {
                    skew_ctx = skew::SkewContext::new();
                }
                let (stage2, stats) = skew::max_slack_schedule_ctx(&graph, &tech, &mut skew_ctx);
                stage.set_problem_size(stats.constraints);
                stage.add_solver_iterations(stats.solver_iterations);
                stage.set_reused_work(stats.reused_work);
                stage.add_delta_arcs(stats.delta_arcs);
                stage.add_affected_vertices(stats.affected_vertices);
                (graph, stage2)
            };
            let m = cfg.slack_fraction * stage2.slack;

            // Stage 3: flip-flop assignment at the stage-2 schedule.
            {
                let mut stage = telemetry.stage(Stage::Assignment, iter);
                if !cfg.warm_start {
                    assign_ctx.reset();
                    cand_cache.reset();
                }
                let reused_before = cand_cache.reused();
                let costs = CandidateCosts::compute_cached(
                    circuit,
                    &array,
                    &stage2,
                    cfg.candidate_rings,
                    &mut cand_cache,
                );
                stage.set_problem_size(costs.total_candidates());
                let cache_delta = cand_cache.reused() - reused_before;
                let (a, solver_iters) =
                    self.assign(&costs, &capacities, array.rings().len(), &mut assign_ctx);
                stage.add_solver_iterations(solver_iters);
                // Reuse telemetry mirrors stages 2/4: reused_work counts
                // candidate-cache hits plus LP columns carried over,
                // delta_arcs the columns rebuilt, affected_vertices the
                // warm pivots the repair phase spent.
                let astats = assign_ctx.stats();
                stage.set_reused_work(cache_delta + astats.cols_reused);
                stage.add_delta_arcs(astats.cols_rebuilt);
                stage.add_affected_vertices(astats.warm_pivots);
                match self.config.objective {
                    AssignmentObjective::MaxLoadCap => {
                        stage.set_backend(match astats.warm_mode {
                            WarmMode::Cold => "lp-cold",
                            WarmMode::Primal => "lp-warm",
                            WarmMode::DualRepair => "lp-dual-repair",
                        });
                    }
                    AssignmentObjective::TappingCost => {
                        // The transportation engine reports its own start
                        // label (`tp-cold` / `tp-warm`).
                        if let Some(backend) = astats.backend {
                            stage.set_backend(backend);
                        }
                    }
                }
                assignment = a;
            }

            // Base case snapshot: first pass, stage-2 schedule.
            if base.is_none() {
                let mut stage = telemetry.stage(Stage::Evaluation, iter);
                stage.set_problem_size(circuit.flip_flop_count());
                let taps0 = TapAssignments::solve(circuit, &array, &stage2, &assignment.rings);
                base = Some((
                    self.snapshot(circuit, &array, &taps0),
                    taps0.wirelengths(),
                    rotary_power::PowerModel::new(tech).signal_power(circuit),
                ));
            }

            // Stage 4: cost-driven skew optimization on the assignment.
            {
                let mut stage = telemetry.stage(Stage::CostDrivenSkew, iter);
                let (sched, stats) = self.cost_driven(
                    circuit,
                    &array,
                    &graph,
                    &assignment,
                    &tech,
                    m,
                    stage2.period,
                    &mut skew_ctx,
                );
                stage.set_problem_size(stats.constraints);
                stage.add_solver_iterations(stats.solver_iterations);
                stage.set_reused_work(stats.reused_work);
                stage.add_delta_arcs(stats.delta_arcs);
                stage.add_affected_vertices(stats.affected_vertices);
                stage.add_rounds(stats.rounds);
                stage.add_paths(stats.paths);
                stage.note_max_plateau(stats.max_plateau);
                if let Some(backend) = stats.backend {
                    stage.set_backend(backend);
                }
                schedule = sched;
            }

            // Stage 5: evaluate.
            let taps;
            let snapshot;
            {
                let mut stage = telemetry.stage(Stage::Evaluation, iter);
                stage.set_problem_size(circuit.flip_flop_count());
                taps = TapAssignments::solve(circuit, &array, &schedule, &assignment.rings);
                snapshot = self.snapshot(circuit, &array, &taps);
            }

            let cost = snapshot.overall_cost(cfg.tapping_weight);
            let converged =
                prev_cost.is_finite() && (prev_cost - cost) <= cfg.convergence_tol * prev_cost;
            let last = converged || iter + 1 == cfg.max_iterations;

            let mut displacement = 0.0;
            if !last {
                // Stage 6: pseudo-nets toward tap points + incremental place.
                let mut stage = telemetry.stage(Stage::IncrementalPlacement, iter);
                let weight = cfg.pseudo_weight * cfg.pseudo_weight_growth.powi(iter as i32);
                let pulls: Vec<PseudoNet> = taps
                    .flip_flops
                    .iter()
                    .zip(&taps.solutions)
                    .map(|(&ff, sol)| PseudoNet::new(ff, sol.point, weight))
                    .collect();
                stage.set_problem_size(pulls.len());
                let rep = placer.place_incremental(circuit, &pulls);
                displacement = rep.mean_displacement;
            }

            iterations.push(IterationMetrics {
                snapshot,
                max_slack: stage2.slack,
                placement_displacement: displacement,
            });
            prev_cost = cost;
            if last {
                break;
            }
        }

        let taps = TapAssignments::solve(circuit, &array, &schedule, &assignment.rings);
        let (base, base_tap_wirelengths, base_signal_power) =
            base.expect("at least one iteration ran");
        FlowOutcome {
            base,
            iterations,
            schedule,
            assignment,
            taps,
            telemetry,
            base_tap_wirelengths,
            base_signal_power,
        }
    }

    /// Ring-count selection — the paper's second future-work extension
    /// (Section IX: "a better approach would be to integrate the number of
    /// rings as a variable … as it increases the solution space").
    ///
    /// Runs the full flow once per candidate grid on a fresh copy of
    /// `circuit` and returns all outcomes plus the index of the grid with
    /// the lowest stage-5 overall cost. The winning placement is written
    /// back into `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `grids` is empty.
    pub fn sweep_ring_grids(
        &self,
        circuit: &mut Circuit,
        grids: &[usize],
    ) -> (usize, Vec<(usize, FlowOutcome)>) {
        assert!(!grids.is_empty(), "need at least one candidate grid");
        let mut runs = Vec::with_capacity(grids.len());
        let mut best: Option<(usize, f64, Circuit)> = None;
        for (k, &grid) in grids.iter().enumerate() {
            let mut trial = circuit.clone();
            let outcome = self.run(&mut trial, grid);
            let cost = outcome.final_snapshot().overall_cost(self.config.tapping_weight);
            if best.as_ref().is_none_or(|&(_, c, _)| cost < c) {
                best = Some((k, cost, trial));
            }
            runs.push((grid, outcome));
        }
        let (best_idx, _, best_circuit) = best.expect("at least one grid ran");
        *circuit = best_circuit;
        (best_idx, runs)
    }

    /// Stage-3 dispatcher; also returns the solver's iteration count
    /// (augmenting paths or simplex pivots) for telemetry.
    fn assign(
        &self,
        costs: &CandidateCosts,
        capacities: &[usize],
        n_rings: usize,
        ctx: &mut assign::AssignContext,
    ) -> (Assignment, usize) {
        match self.config.objective {
            AssignmentObjective::TappingCost => {
                // Warm-start whenever the context carries an engine; the
                // flow's warm_start=false path resets the context each
                // iteration, which downgrades this to a cold solve.
                match assign::assign_network_flow_ctx(costs, capacities, true, ctx) {
                    Ok(pair) => pair,
                    Err(_) => {
                        // Fall back to nearest-candidate (always feasible
                        // without capacities) — exercised only when ring
                        // capacity is configured below the flip-flop count.
                        let a =
                            Assignment { rings: costs.candidates.iter().map(|c| c[0].0).collect() };
                        (a, 0)
                    }
                }
            }
            AssignmentObjective::MaxLoadCap => {
                let out = assign::assign_min_max_cap_ctx(costs, n_rings, ctx)
                    .expect("LP relaxation solves");
                (out.assignment, out.lp_iterations)
            }
        }
    }

    /// Stage-4 dispatcher.
    ///
    /// `stage2_period` is the period the stage-2 schedule was computed at.
    /// Incremental placement can push a circuit's minimum feasible period
    /// above the flow-level period fixed at stage 1; stage 2 then raises
    /// its period internally, and its slack — from which `m` is derived —
    /// is only guaranteed feasible at that raised period. The cost-driven
    /// solve must therefore run at `max(period, stage2_period)`.
    #[allow(clippy::too_many_arguments)]
    fn cost_driven(
        &self,
        circuit: &Circuit,
        array: &RingArray,
        graph: &SequentialGraph,
        assignment: &Assignment,
        tech: &Technology,
        m: f64,
        stage2_period: f64,
        ctx: &mut skew::SkewContext,
    ) -> (SkewSchedule, SkewStats) {
        let cfg = &self.config;
        let tech = &if stage2_period > tech.clock_period {
            Technology { clock_period: stage2_period, ..*tech }
        } else {
            *tech
        };
        let ffs = circuit.flip_flops();
        // The per-FF anchor precompute (nearest ring point, ring delay at
        // it, stub delay over the tap distance) is independent across
        // flip-flops, so it fans out over scoped worker threads like the
        // candidate-cost kernel; the result is bit-identical to the
        // sequential loop.
        let per_ff: Vec<(f64, f64, f64)> = par_map_with(&ParConfig::default(), ffs.len(), |i| {
            let ring = array.ring(assignment.rings[i]);
            let pos = circuit.position(ffs[i]);
            let (c_point, l) = ring.nearest_point(pos);
            let a = ring.delay_at(c_point, false);
            let b = array.params().stub_delay(l, circuit.cell(ffs[i]).input_cap);
            (a, b, l)
        });
        let mut ring_delay = Vec::with_capacity(ffs.len());
        let mut stub_delay = Vec::with_capacity(ffs.len());
        let mut distance = Vec::with_capacity(ffs.len());
        for (a, b, l) in per_ff {
            ring_delay.push(a);
            stub_delay.push(b);
            distance.push(l);
        }
        match cfg.skew_variant {
            SkewVariant::Minimax => {
                // The same phase re-wrapping as the weighted path below: a
                // deviation of k·T/2 from the anchor `a_i + b_i` is free for
                // tapping, so after each solve the ring-delay anchor is
                // re-expressed as the equivalent value closest to the solved
                // target. Without this, targets get pulled toward absolute
                // ring delays whole periods away from the cheap tap and the
                // minimax variant *loses* to the base case.
                let half = 0.5 * tech.clock_period;
                let solve = |rd: &[f64], sd: &[f64], ctx: &mut skew::SkewContext| {
                    if !self.config.warm_start {
                        *ctx = skew::SkewContext::new();
                    }
                    skew::minimax_schedule_ctx(graph, tech, rd, sd, m, ctx)
                };
                let (mut sched, mut stats) = solve(&ring_delay, &stub_delay, ctx);
                for _ in 0..3 {
                    let mut changed = false;
                    for (a, (&b, &t)) in
                        ring_delay.iter_mut().zip(stub_delay.iter().zip(&sched.targets))
                    {
                        let k = ((t - (*a + b)) / half).round();
                        if k != 0.0 {
                            *a += k * half;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                    let (s, st) = solve(&ring_delay, &stub_delay, ctx);
                    sched = s;
                    stats.absorb_rewrap(&st);
                }
                (sched, stats)
            }
            SkewVariant::WeightedSum => {
                let mut ideal: Vec<f64> =
                    ring_delay.iter().zip(&stub_delay).map(|(&a, &b)| a + b).collect();
                // Phase re-wrapping: a deviation of exactly k·T is free for
                // tapping (case 1 of Section III borrows whole periods), and
                // k·T/2 is equally free because the complementary loop
                // carries the opposite phase at the same location (served by
                // flipping the flip-flop's polarity, Section III). After a
                // first solve each ideal is re-expressed as the equivalent
                // `ideal + k·T/2` closest to the solved target and the
                // schedule is re-optimized; a few rounds converge.
                let half = 0.5 * tech.clock_period;
                let solve = |id: &[f64], rewrapped: Option<&[u32]>, ctx: &mut skew::SkewContext| {
                    if !self.config.warm_start {
                        *ctx = skew::SkewContext::new();
                    }
                    match rewrapped {
                        // Between re-wrap rounds only the re-wrapped
                        // flip-flops' ideals move (same graph, technology,
                        // slack, and weights), so the circulation resumes
                        // from its carried basis.
                        Some(r) => skew::weighted_schedule_rewrap_ctx(
                            graph, tech, id, &distance, m, ctx, r,
                        ),
                        None => skew::weighted_schedule_ctx(graph, tech, id, &distance, m, ctx),
                    }
                };
                let (mut sched, mut stats) = solve(&ideal, None, ctx);
                let mut rewrapped: Vec<u32> = Vec::new();
                for _ in 0..3 {
                    rewrapped.clear();
                    for (i, (id, &t)) in ideal.iter_mut().zip(&sched.targets).enumerate() {
                        let k = ((t - *id) / half).round();
                        if k != 0.0 {
                            *id += k * half;
                            rewrapped.push(i as u32);
                        }
                    }
                    if rewrapped.is_empty() {
                        break;
                    }
                    let (s, st) = solve(&ideal, Some(&rewrapped), ctx);
                    sched = s;
                    stats.absorb_rewrap(&st);
                }
                (sched, stats)
            }
        }
    }

    fn snapshot(
        &self,
        circuit: &Circuit,
        array: &RingArray,
        taps: &TapAssignments,
    ) -> CostSnapshot {
        CostSnapshot {
            afd: taps.average_flip_flop_distance(circuit, array),
            tapping_wl: taps.total_wirelength(),
            signal_wl: circuit.total_hpwl(),
            max_ring_cap: taps.max_ring_load(circuit, array),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_netlist::{Generator, GeneratorConfig};

    fn toy(seed: u64) -> Circuit {
        Generator::new(GeneratorConfig {
            name: "flow".into(),
            combinational: 220,
            flip_flops: 48,
            nets: 240,
            primary_inputs: 10,
            primary_outputs: 10,
            die_side: 900.0,
            ..GeneratorConfig::default()
        })
        .generate(seed)
    }

    #[test]
    fn flow_reduces_tapping_cost() {
        let mut c = toy(1);
        let out = Flow::new(FlowConfig::default()).run(&mut c, 3);
        assert!(
            out.tapping_improvement() > 0.10,
            "expected >10% tapping improvement, got {:.1}% (base {} → final {})",
            out.tapping_improvement() * 100.0,
            out.base.tapping_wl,
            out.final_snapshot().tapping_wl
        );
    }

    #[test]
    fn flow_converges_within_max_iterations() {
        let mut c = toy(2);
        let cfg = FlowConfig { max_iterations: 5, ..FlowConfig::default() };
        let out = Flow::new(cfg).run(&mut c, 3);
        assert!(!out.iterations.is_empty());
        assert!(out.iterations.len() <= 5);
    }

    #[test]
    fn final_schedule_respects_timing() {
        let mut c = toy(3);
        let cfg = FlowConfig::default();
        let out = Flow::new(cfg).run(&mut c, 3);
        // Check at the period the flow actually scheduled for.
        let tech = Technology { clock_period: out.schedule.period, ..cfg.tech };
        let graph = SequentialGraph::extract(&c, &tech);
        assert!(
            graph.check_schedule(&out.schedule.targets, &tech, 0.0, 1e-5).is_none(),
            "final schedule violates permissible ranges"
        );
    }

    #[test]
    fn minimax_variant_also_improves() {
        let mut c = toy(4);
        let cfg = FlowConfig { skew_variant: SkewVariant::Minimax, ..FlowConfig::default() };
        let out = Flow::new(cfg).run(&mut c, 3);
        assert!(out.tapping_improvement() > 0.0);
    }

    #[test]
    fn max_load_cap_objective_lowers_max_cap() {
        let mut a = toy(5);
        let mut b = toy(5);
        let flow_nf = Flow::new(FlowConfig::default());
        let flow_ilp = Flow::new(FlowConfig {
            objective: AssignmentObjective::MaxLoadCap,
            ..FlowConfig::default()
        });
        let out_nf = flow_nf.run(&mut a, 3);
        let out_ilp = flow_ilp.run(&mut b, 3);
        assert!(
            out_ilp.final_snapshot().max_ring_cap <= out_nf.final_snapshot().max_ring_cap + 1e-9,
            "ILP formulation should not worsen max cap: {} vs {}",
            out_ilp.final_snapshot().max_ring_cap,
            out_nf.final_snapshot().max_ring_cap
        );
    }

    #[test]
    fn sweep_picks_the_cheapest_grid_and_writes_back_placement() {
        let mut c = toy(8);
        let flow = Flow::new(FlowConfig::default());
        let (best, runs) = flow.sweep_ring_grids(&mut c, &[2, 3]);
        assert_eq!(runs.len(), 2);
        let w = flow.config().tapping_weight;
        let best_cost = runs[best].1.final_snapshot().overall_cost(w);
        for (_, out) in &runs {
            assert!(best_cost <= out.final_snapshot().overall_cost(w) + 1e-9);
        }
        c.validate().expect("winning placement is applied and valid");
    }

    #[test]
    fn telemetry_tracks_every_stage() {
        let mut c = toy(6);
        let out = Flow::new(FlowConfig::default()).run(&mut c, 3);
        assert!(out.placer_seconds() > 0.0);
        assert!(out.stage_seconds() > 0.0);
        let totals = out.telemetry.totals_by_stage();
        // The period search plus stages 1–5 always run at least once;
        // per-record fields are set.
        for (stage, _, passes, _) in totals.iter().take(6) {
            assert!(*passes > 0, "stage {stage} never recorded");
        }
        for r in out.telemetry.records() {
            assert!(r.seconds >= 0.0);
            assert!(r.problem_size > 0, "{} has no problem size", r.stage);
        }
        // The period search runs exactly one pre-pass, with real probes.
        assert_eq!(totals[1].2, 1, "period search should record one pass");
        assert!(totals[1].3 > 0, "period search reported no feasibility solves");
        // Stage 2 and 4 drive iterative solvers.
        assert!(totals[2].3 > 0, "stage 2 reported no feasibility solves");
        assert_eq!(out.telemetry.iterations(), out.iterations.len());
        // The JSON dump reflects the same aggregates.
        let json = out.telemetry.to_json();
        assert!(json.contains("\"stage\": \"assignment\""));
        assert!(json.contains("\"stage\": \"period_search\""));
        assert!(json.contains(&format!("\"iterations\": {}", out.iterations.len())));
    }

    /// A circuit large enough that the per-flip-flop tapping kernels take
    /// their scoped-thread path (≥ 64 flip-flops).
    fn parallel_toy(seed: u64) -> Circuit {
        Generator::new(GeneratorConfig {
            name: "flow-par".into(),
            combinational: 400,
            flip_flops: 96,
            nets: 430,
            primary_inputs: 12,
            primary_outputs: 12,
            die_side: 1200.0,
            ..GeneratorConfig::default()
        })
        .generate(seed)
    }

    /// Warm-started potentials only accelerate feasibility probes — every
    /// returned solution comes from a canonical cold solve at the final
    /// parameter — so disabling warm starts must not change a single bit
    /// of the outcome.
    fn assert_warm_matches_cold(variant: SkewVariant, seed: u64) {
        assert_warm_matches_cold_objective(variant, AssignmentObjective::TappingCost, seed);
    }

    fn assert_warm_matches_cold_objective(
        variant: SkewVariant,
        objective: AssignmentObjective,
        seed: u64,
    ) {
        let mut a = toy(seed);
        let mut b = toy(seed);
        let warm =
            Flow::new(FlowConfig { skew_variant: variant, objective, ..FlowConfig::default() });
        let cold = Flow::new(FlowConfig {
            skew_variant: variant,
            objective,
            warm_start: false,
            ..FlowConfig::default()
        });
        let out_w = warm.run(&mut a, 3);
        let out_c = cold.run(&mut b, 3);
        assert_eq!(out_w.schedule, out_c.schedule);
        assert_eq!(out_w.assignment, out_c.assignment);
        assert_eq!(out_w.base, out_c.base);
        assert_eq!(out_w.iterations, out_c.iterations);
        assert_eq!(out_w.taps.solutions, out_c.taps.solutions);
        for (&ff_a, &ff_b) in a.flip_flops().iter().zip(&b.flip_flops()) {
            assert_eq!(a.position(ff_a), b.position(ff_b));
        }
    }

    #[test]
    fn warm_start_is_bit_identical_to_cold_weighted_sum() {
        assert_warm_matches_cold(SkewVariant::WeightedSum, 9);
    }

    #[test]
    fn warm_start_is_bit_identical_to_cold_minimax() {
        assert_warm_matches_cold(SkewVariant::Minimax, 10);
    }

    /// The stage-3 LP warm start (carried optimal basis) and the candidate
    /// ring-list cache must not change a single bit of the outcome either:
    /// the simplex's canonical basis extraction makes the reported solution
    /// a function of (problem data, optimal basis set) only, and the
    /// 1e-9·wl objective tiebreak makes that optimum unique in practice.
    #[test]
    fn warm_start_is_bit_identical_to_cold_max_load_cap() {
        assert_warm_matches_cold_objective(
            SkewVariant::WeightedSum,
            AssignmentObjective::MaxLoadCap,
            11,
        );
    }

    #[test]
    fn warm_start_is_bit_identical_to_cold_max_load_cap_minimax() {
        assert_warm_matches_cold_objective(
            SkewVariant::Minimax,
            AssignmentObjective::MaxLoadCap,
            12,
        );
    }

    #[test]
    fn flow_outcome_is_deterministic_across_runs() {
        let mut a = parallel_toy(7);
        let mut b = parallel_toy(7);
        let flow = Flow::new(FlowConfig::default());
        let out_a = flow.run(&mut a, 3);
        let out_b = flow.run(&mut b, 3);
        // Bit-identical results and placements despite the scoped-thread
        // fan-out in stages 3 and 5 (wall times differ, so telemetry is
        // compared structurally, not by seconds).
        assert_eq!(out_a.schedule, out_b.schedule);
        assert_eq!(out_a.assignment, out_b.assignment);
        assert_eq!(out_a.base, out_b.base);
        assert_eq!(out_a.iterations, out_b.iterations);
        assert_eq!(out_a.taps.solutions, out_b.taps.solutions);
        assert_eq!(out_a.base_tap_wirelengths, out_b.base_tap_wirelengths);
        assert_eq!(out_a.telemetry.records().len(), out_b.telemetry.records().len());
        for (&ff_a, &ff_b) in a.flip_flops().iter().zip(&b.flip_flops()) {
            assert_eq!(a.position(ff_a), b.position(ff_b));
        }
    }
}
