//! The Fig. 3 loop of `Flow::run`, replayed from the benchmark's own code.
//!
//! Every call into a layer goes through the layer's public function and is
//! wrapped in a span; the counts each call returns are summed into
//! [`Counts`]. The replay must stay step-for-step equal to `Flow::run` —
//! the traced run compares the two outcomes bit for bit and reports
//! `trace.replay_match`, so a drift shows up as a 0 there.

use crate::trace::Tracer;
use rotary_core::assign::{self, AssignContext, Assignment};
use rotary_core::flow::{AssignmentObjective, FlowConfig, SkewVariant};
use rotary_core::metrics::CostSnapshot;
use rotary_core::skew::{self, SkewContext, SkewSchedule, SkewStats};
use rotary_core::tapping::{CandidateCache, CandidateCosts, TapAssignments};
use rotary_core::Stage;
use rotary_netlist::Circuit;
use rotary_place::{Placer, PseudoNet};
use rotary_ring::{RingArray, RingParams};
use rotary_solver::lp::WarmMode;
use rotary_solver::par::{par_map_with, ParConfig};
use rotary_timing::{SequentialGraph, Technology};

/// Work counts gathered at the layer boundaries of one replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub iterations: usize,
    pub timing_pairs: usize,
    pub period_solves: usize,
    pub max_slack_solves: usize,
    pub max_slack_reused: usize,
    pub candidate_lookups: usize,
    pub candidate_hits: usize,
    pub assign_solves: usize,
    pub assign_warm: usize,
    pub assign_iters: usize,
    pub rounds: usize,
    pub paths: usize,
    pub max_plateau: usize,
    pub delta_arcs: usize,
    pub parametric_solves: usize,
    pub displacement_um: f64,
}

/// The parts of a flow outcome the replay must reproduce.
pub struct Replayed {
    pub schedule: SkewSchedule,
    pub assignment: Assignment,
    pub taps: TapAssignments,
    pub counts: Counts,
}

/// Stage-4 solve kinds, named by position in the loop: the first solve of
/// the run, the first solve of a later iteration, and every phase re-wrap.
const COLD: &str = "cost_skew.cold";
const REBIND: &str = "cost_skew.rebind";
const REWRAP: &str = "cost_skew.rewrap";

/// Replays `Flow::run(circuit, ring_grid)` under `cfg` (which must keep
/// `warm_start` on, as the default does). Mutates the circuit's placement
/// exactly as the flow does.
pub fn replay(
    circuit: &mut Circuit,
    ring_grid: usize,
    cfg: &FlowConfig,
    tr: &mut Tracer,
) -> Replayed {
    assert!(cfg.warm_start, "the replay mirrors the warm-start flow only");
    let mut counts = Counts::default();
    let root = tr.open("flow.replay");
    let placer = Placer::new(cfg.placer);

    let s = tr.open(Stage::InitialPlacement.name());
    tr.leaf("place.initial", || placer.place(circuit));
    tr.close(s);

    let mut skew_ctx = SkewContext::new();
    skew_ctx.set_circulation_backend(cfg.circulation_backend);
    let mut assign_ctx = AssignContext::new();
    assign_ctx.set_crash_start(true);
    let mut cand_cache = CandidateCache::new();

    let s = tr.open(Stage::PeriodSearch.name());
    let graph0 = tr.leaf("timing.extract", || SequentialGraph::extract(circuit, &cfg.tech));
    counts.timing_pairs = graph0.pairs().len();
    let (min_p, stats) =
        tr.leaf("skew.period", || skew::min_feasible_period_ctx(&graph0, &cfg.tech, &mut skew_ctx));
    counts.period_solves += stats.solver_iterations;
    let period = if min_p > cfg.tech.clock_period { 1.15 * min_p } else { min_p };
    let tech = Technology { clock_period: period, ..cfg.tech };
    let ring_params = RingParams { period, ..cfg.ring_params };
    tr.close(s);

    let array = RingArray::generate(circuit.die, ring_grid, ring_params);
    let capacities = array.capacities();

    let mut base_done = false;
    let mut schedule = SkewSchedule::zero(circuit.flip_flop_count());
    let mut assignment = Assignment { rings: Vec::new() };
    let mut prev_cost = f64::INFINITY;

    for iter in 0..cfg.max_iterations {
        counts.iterations += 1;

        let s = tr.open(Stage::SkewOptimization.name());
        let graph = if iter == 0 {
            graph0.clone()
        } else {
            tr.leaf("timing.extract", || SequentialGraph::extract(circuit, &tech))
        };
        let (stage2, stats) = tr
            .leaf("skew.max_slack", || skew::max_slack_schedule_ctx(&graph, &tech, &mut skew_ctx));
        counts.max_slack_solves += stats.solver_iterations;
        counts.max_slack_reused += stats.reused_work;
        tr.close(s);
        let m = cfg.slack_fraction * stage2.slack;

        let s = tr.open(Stage::Assignment.name());
        let hits_before = cand_cache.reused();
        let costs = tr.leaf("tapping.candidates", || {
            CandidateCosts::compute_cached(
                circuit,
                &array,
                &stage2,
                cfg.candidate_rings,
                &mut cand_cache,
            )
        });
        counts.candidate_lookups += costs.len();
        counts.candidate_hits += cand_cache.reused() - hits_before;
        let (a, iters) = tr.leaf("assign.solve", || {
            assign_stage(cfg.objective, &costs, &capacities, array.rings().len(), &mut assign_ctx)
        });
        let astats = assign_ctx.stats();
        counts.assign_solves += 1;
        counts.assign_iters += iters;
        counts.assign_warm += usize::from(match cfg.objective {
            AssignmentObjective::MaxLoadCap => astats.warm_mode != WarmMode::Cold,
            AssignmentObjective::TappingCost => astats.backend == Some("tp-warm"),
        });
        assignment = a;
        tr.close(s);

        if !base_done {
            let s = tr.open(Stage::Evaluation.name());
            let taps0 = tr.leaf("tapping.solve", || {
                TapAssignments::solve(circuit, &array, &stage2, &assignment.rings)
            });
            snapshot(circuit, &array, &taps0);
            base_done = true;
            tr.close(s);
        }

        let s = tr.open(Stage::CostDrivenSkew.name());
        let first = if iter == 0 { COLD } else { REBIND };
        schedule = cost_driven(
            circuit,
            &array,
            &graph,
            &assignment,
            &tech,
            m,
            stage2.period,
            cfg.skew_variant,
            &mut skew_ctx,
            first,
            tr,
            &mut counts,
        );
        tr.close(s);

        let s = tr.open(Stage::Evaluation.name());
        let taps = tr.leaf("tapping.solve", || {
            TapAssignments::solve(circuit, &array, &schedule, &assignment.rings)
        });
        let cost = snapshot(circuit, &array, &taps).overall_cost(cfg.tapping_weight);
        tr.close(s);

        let converged =
            prev_cost.is_finite() && (prev_cost - cost) <= cfg.convergence_tol * prev_cost;
        let last = converged || iter + 1 == cfg.max_iterations;
        if !last {
            let s = tr.open(Stage::IncrementalPlacement.name());
            let weight = cfg.pseudo_weight * cfg.pseudo_weight_growth.powi(iter as i32);
            let pulls: Vec<PseudoNet> = taps
                .flip_flops
                .iter()
                .zip(&taps.solutions)
                .map(|(&ff, sol)| PseudoNet::new(ff, sol.point, weight))
                .collect();
            let rep = tr.leaf("place.incremental", || placer.place_incremental(circuit, &pulls));
            counts.displacement_um += rep.mean_displacement;
            tr.close(s);
        }
        prev_cost = cost;
        if last {
            break;
        }
    }

    let taps = tr.leaf("tapping.solve", || {
        TapAssignments::solve(circuit, &array, &schedule, &assignment.rings)
    });
    tr.close(root);
    Replayed { schedule, assignment, taps, counts }
}

/// Stage 3, as `Flow::assign` dispatches it.
fn assign_stage(
    objective: AssignmentObjective,
    costs: &CandidateCosts,
    capacities: &[usize],
    n_rings: usize,
    ctx: &mut AssignContext,
) -> (Assignment, usize) {
    match objective {
        AssignmentObjective::TappingCost => {
            match assign::assign_network_flow_ctx(costs, capacities, true, ctx) {
                Ok(pair) => pair,
                Err(_) => {
                    let a = Assignment { rings: costs.candidates.iter().map(|c| c[0].0).collect() };
                    (a, 0)
                }
            }
        }
        AssignmentObjective::MaxLoadCap => {
            let out =
                assign::assign_min_max_cap_ctx(costs, n_rings, ctx).expect("LP relaxation solves");
            (out.assignment, out.lp_iterations)
        }
    }
}

/// Stage 4 with its phase re-wrap loop, as `Flow::cost_driven` runs it;
/// each solve gets its own span, named by its kind.
#[allow(clippy::too_many_arguments)]
fn cost_driven(
    circuit: &Circuit,
    array: &RingArray,
    graph: &SequentialGraph,
    assignment: &Assignment,
    tech: &Technology,
    m: f64,
    stage2_period: f64,
    variant: SkewVariant,
    ctx: &mut SkewContext,
    first: &'static str,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> SkewSchedule {
    let tech = &if stage2_period > tech.clock_period {
        Technology { clock_period: stage2_period, ..*tech }
    } else {
        *tech
    };
    let ffs = circuit.flip_flops();
    let per_ff: Vec<(f64, f64, f64)> = par_map_with(&ParConfig::default(), ffs.len(), |i| {
        let ring = array.ring(assignment.rings[i]);
        let pos = circuit.position(ffs[i]);
        let (c_point, l) = ring.nearest_point(pos);
        let a = ring.delay_at(c_point, false);
        let b = array.params().stub_delay(l, circuit.cell(ffs[i]).input_cap);
        (a, b, l)
    });
    let mut ring_delay: Vec<f64> = per_ff.iter().map(|p| p.0).collect();
    let stub_delay: Vec<f64> = per_ff.iter().map(|p| p.1).collect();
    let distance: Vec<f64> = per_ff.iter().map(|p| p.2).collect();
    let half = 0.5 * tech.clock_period;
    match variant {
        SkewVariant::Minimax => {
            let (mut sched, st) = tr.leaf(first, || {
                skew::minimax_schedule_ctx(graph, tech, &ring_delay, &stub_delay, m, ctx)
            });
            note_solve(&st, counts);
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
                let (s, st) = tr.leaf(REWRAP, || {
                    skew::minimax_schedule_ctx(graph, tech, &ring_delay, &stub_delay, m, ctx)
                });
                note_solve(&st, counts);
                sched = s;
            }
            sched
        }
        SkewVariant::WeightedSum => {
            let mut ideal: Vec<f64> =
                ring_delay.iter().zip(&stub_delay).map(|(&a, &b)| a + b).collect();
            let (mut sched, st) = tr.leaf(first, || {
                skew::weighted_schedule_ctx(graph, tech, &ideal, &distance, m, ctx)
            });
            note_solve(&st, counts);
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
                let (s, st) = tr.leaf(REWRAP, || {
                    skew::weighted_schedule_rewrap_ctx(
                        graph, tech, &ideal, &distance, m, ctx, &rewrapped,
                    )
                });
                note_solve(&st, counts);
                sched = s;
            }
            sched
        }
    }
}

/// Adds one stage-4 solve's counts; solves without a circulation backend
/// ran the parametric difference-constraint engine (the minimax route).
fn note_solve(st: &SkewStats, counts: &mut Counts) {
    counts.rounds += st.rounds;
    counts.paths += st.paths;
    counts.max_plateau = counts.max_plateau.max(st.max_plateau);
    counts.delta_arcs += st.delta_arcs;
    if st.backend.is_none() {
        counts.parametric_solves += st.solver_iterations;
    }
}

/// The stage-5 evaluation `Flow::run` records per iteration.
fn snapshot(circuit: &Circuit, array: &RingArray, taps: &TapAssignments) -> CostSnapshot {
    CostSnapshot {
        afd: taps.average_flip_flop_distance(circuit, array),
        tapping_wl: taps.total_wirelength(),
        signal_wl: circuit.total_hpwl(),
        max_ring_cap: taps.max_ring_load(circuit, array),
    }
}
