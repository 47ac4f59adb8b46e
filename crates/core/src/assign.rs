//! Flip-flop-to-ring assignment (paper Sections V and VI).
//!
//! Two formulations over the candidate tapping costs:
//!
//! * [`assign_network_flow`] — minimize **total tapping cost** subject to
//!   per-ring capacities `U_j` via the min-cost network flow of Fig. 4
//!   (optimal in polynomial time).
//! * [`assign_min_max_cap`] — minimize the **maximum ring load
//!   capacitance** (eq. 3), an NP-hard ILP solved by LP-relaxation +
//!   greedy rounding (Fig. 5). [`solve_min_max_cap_bnb`] runs the same
//!   formulation through generic branch & bound with a time budget — the
//!   paper's Table I comparison.

use crate::tapping::CandidateCosts;
use rotary_ring::RingId;
use rotary_solver::ilp::{BranchAndBound, IlpOutcome};
use rotary_solver::lp::{LpBasis, LpProblem, LpSolution, LpStatus, RowKind, WarmMode};
use rotary_solver::mcmf::solve_transportation;
use rotary_solver::rounding::{greedy_round, greedy_round_loaded};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// An assignment of every flip-flop to a ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Ring per flip-flop, parallel to [`CandidateCosts::flip_flops`].
    pub rings: Vec<RingId>,
}

/// Diagnostics of the min-max-capacitance solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignOutcome {
    /// The assignment.
    pub assignment: Assignment,
    /// Optimum of the LP relaxation (lower bound on the ILP), pF.
    pub lp_optimum: f64,
    /// Max ring load achieved by the rounded/integral solution, pF.
    pub achieved: f64,
    /// Integrality gap `IG = SOLN(ILP) / OPT(LP)` (eq. 4).
    pub integrality_gap: f64,
    /// Simplex iterations of the relaxation solve.
    pub lp_iterations: usize,
}

/// Error cases of the assignment solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// Total ring capacity is smaller than the number of flip-flops, or
    /// the candidate pruning disconnected some flip-flop from all rings
    /// with residual capacity.
    InsufficientCapacity,
    /// The LP relaxation failed to reach optimality. Carries the simplex
    /// verdict (iteration limit vs numerical breakdown vs infeasible) and
    /// the iterations spent, so callers can tell "raise the budget" from
    /// "the arithmetic broke down".
    RelaxationFailed {
        /// Terminal status the simplex reported.
        status: LpStatus,
        /// Simplex iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InsufficientCapacity => {
                write!(f, "ring capacities cannot accommodate all flip-flops")
            }
            Self::RelaxationFailed { status, iterations } => write!(
                f,
                "LP relaxation did not reach optimality: {status:?} after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for AssignError {}

/// Solver-effort statistics from one assignment solve, for flow telemetry
/// (the assignment analogue of `skew::SkewStats`). Written by both stage-3
/// routes: the eq.-3 LP relaxation ([`assign_min_max_cap_ctx`]) and the
/// Section-V network simplex ([`assign_network_flow_ctx`]), which solves
/// every pass cold and carries nothing, so its reuse fields are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Simplex pivots: of the relaxation solve (dual repair + primal) on
    /// the LP route, of the network simplex on the network-flow route.
    pub lp_iterations: usize,
    /// Structural LP columns carried over from the previous pass — either
    /// patched in place (unchanged candidate structure) or remapped into
    /// the rebuilt matrix by stable key. Zero on the first pass and on the
    /// network-flow route.
    pub cols_reused: usize,
    /// Structural LP columns that had to be built fresh because their
    /// flip-flop's candidate ring set changed (or appeared) this pass.
    /// Zero on the network-flow route.
    pub cols_rebuilt: usize,
    /// Pivots spent inside a warm-started solve (the delta the repair
    /// phase replays); zero when the solve ran cold and on the
    /// network-flow route.
    pub warm_pivots: usize,
    /// How the simplex actually started ([`WarmMode`]); unused (default)
    /// on the network-flow route.
    pub warm_mode: WarmMode,
    /// Engine label of the solve that produced these stats:
    /// `network-simplex` on the network-flow route; `None` on the LP route
    /// (whose label the flow derives from [`WarmMode`]).
    pub backend: Option<&'static str>,
}

/// Reusable state carried across the re-solves of the flow loop (the
/// assignment analogue of `skew::SkewContext`): the optimal basis of the
/// previous relaxation warm-starts the next one, and the previous pass's
/// LP matrix is carried as a keyed column map. When the per-flip-flop
/// candidate ring structure is unchanged (the common case — incremental
/// placement moves flip-flops by fractions of a ring pitch), the next
/// pass *patches* the carried matrix's costs and loads in place instead
/// of rebuilding it, and the carried basis — mapped by stable
/// flip-flop × ring keys — is repaired by the simplex's dual phase
/// instead of being discarded. Solutions are bit-identical to a cold
/// rebuild either way, thanks to the simplex's canonical basis
/// extraction.
#[derive(Debug, Clone, Default)]
pub struct AssignContext {
    basis: Option<LpBasis>,
    cached: Option<CachedLp>,
    /// The previous pass's rounded assignment — the seed of the crash
    /// basis used when the candidate structure changed too much for the
    /// carried simplex basis to be worth repairing.
    last_rings: Option<Vec<RingId>>,
    /// When set, a solve with no carried incumbent crash-starts from the
    /// nearest-candidate assignment instead of the all-artificial big-M
    /// start (skips the feasibility phase on the very first pass). Off by
    /// default so one-shot solves keep the classic cold reference path;
    /// survives [`AssignContext::reset`] — it is configuration, not state.
    crash_start: bool,
    stats: AssignStats,
}

/// The previous pass's relaxation, kept for in-place delta patching.
#[derive(Debug, Clone)]
struct CachedLp {
    lp: LpProblem,
    var_of: Vec<Vec<usize>>,
    /// LP row index of each ring's load row (`None` for candidate-less
    /// rings, which get no row).
    ring_row_of: Vec<Option<usize>>,
    /// Per-flip-flop candidate ring ids the matrix was built for.
    structure: Vec<Vec<RingId>>,
}

impl AssignContext {
    /// A context with no carried state (first solve is cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the carried basis and column map; the next solve starts cold
    /// from a freshly built matrix.
    pub fn reset(&mut self) {
        self.basis = None;
        self.cached = None;
        self.last_rings = None;
    }

    /// Enables (or disables) crash-starting incumbent-less solves from
    /// the nearest-candidate assignment. See the field doc.
    pub fn set_crash_start(&mut self, on: bool) {
        self.crash_start = on;
    }

    /// Telemetry of the most recent [`assign_min_max_cap_ctx`] or
    /// [`assign_network_flow_ctx`] call.
    pub fn stats(&self) -> AssignStats {
        self.stats
    }
}

/// Cost quantization step of the stage-3 network flow: tapping costs in
/// µm are scaled by 2^40 and rounded once, exactly as the stage-4 skew
/// duals quantize theirs, so optimality (and the canonical extraction) is
/// exact integer arithmetic end to end.
const COST_SCALE: f64 = 1_099_511_627_776.0;

fn quantize(x: f64) -> i64 {
    (x * COST_SCALE).round() as i64
}

/// Section V: min-cost network flow over the Fig. 4 network.
///
/// Vertices: source → one per flip-flop → one per candidate ring → target.
/// Arc costs are the tapping costs `c_ij`; ring→target arcs carry the
/// capacities `U_j`.
///
/// One-shot convenience over [`assign_network_flow_ctx`].
///
/// # Errors
///
/// [`AssignError::InsufficientCapacity`] when not all flip-flops can be
/// routed.
pub fn assign_network_flow(
    costs: &CandidateCosts,
    capacities: &[usize],
) -> Result<Assignment, AssignError> {
    let mut ctx = AssignContext::new();
    assign_network_flow_ctx(costs, capacities, false, &mut ctx).map(|(a, _)| a)
}

/// The Section-V assignment on the network simplex
/// ([`solve_transportation`]), with telemetry in [`AssignContext::stats`].
///
/// Candidate tapping costs are quantized once to exact 2^40 integers and
/// every pass is solved cold: the candidate structure changes on every
/// Fig.-3 pass, so there is no basis worth carrying, and `ctx` holds no
/// network-flow state. `warm` is accepted for signature compatibility with
/// existing callers and ignored. The assignment is recovered from the
/// canonical duals, so it depends on the instance alone. Returns the
/// assignment and the simplex pivot count (flow telemetry).
///
/// # Errors
///
/// [`AssignError::InsufficientCapacity`] when not all flip-flops can be
/// routed.
pub fn assign_network_flow_ctx(
    costs: &CandidateCosts,
    capacities: &[usize],
    _warm: bool,
    ctx: &mut AssignContext,
) -> Result<(Assignment, usize), AssignError> {
    let cands: Vec<Vec<(u32, i64)>> = costs
        .candidates
        .iter()
        .map(|list| list.iter().map(|&(rid, wl, _)| (rid.0, quantize(wl))).collect())
        .collect();
    let caps: Vec<i64> = capacities.iter().map(|&u| u as i64).collect();
    let solved = solve_transportation(&cands, &caps);
    ctx.stats = AssignStats {
        lp_iterations: solved.as_ref().map_or(0, |tp| tp.pivots),
        backend: Some("network-simplex"),
        ..AssignStats::default()
    };
    let tp = solved.map_err(|_| AssignError::InsufficientCapacity)?;
    let rings = tp.assignment.iter().map(|&j| RingId(j)).collect();
    Ok((Assignment { rings }, tp.pivots))
}

/// Builds the Section VI LP relaxation: variables `x_ij` (one per
/// candidate pair, column-major by flip-flop) plus the makespan variable
/// `t` (last column); `min t` s.t. `Σ_j x_ij = 1` and
/// `Σ_i C^p_ij·x_ij − t ≤ 0`.
///
/// Public so benchmarks can price the real relaxation under different
/// simplex pricing rules; flow code goes through
/// [`assign_min_max_cap_ctx`].
pub fn min_max_lp(costs: &CandidateCosts, n_rings: usize) -> (LpProblem, Vec<Vec<usize>>) {
    let (lp, var_of, _) = build_min_max_lp(costs, n_rings);
    (lp, var_of)
}

/// Stable simplex key of the `x_ij` column (flip-flop × candidate ring) —
/// what lets a carried basis survive candidate-set changes between flow
/// iterations.
fn col_key(ff: usize, rid: RingId) -> u64 {
    ((ff as u64) << 32) | (u64::from(rid.0) + 1)
}

/// Stable key of the makespan variable `t`.
const T_VAR_KEY: u64 = u64::MAX;

/// Tag distinguishing ring-load row keys from flip-flop row keys.
const RING_ROW_TAG: u64 = 1 << 48;

/// [`min_max_lp`] plus the LP row index of every ring's load row (`None`
/// for rings no flip-flop considers) — the map the in-place patching of
/// [`assign_min_max_cap_ctx`] needs.
fn build_min_max_lp(
    costs: &CandidateCosts,
    n_rings: usize,
) -> (LpProblem, Vec<Vec<usize>>, Vec<Option<usize>>) {
    let f = costs.len();
    let mut var_of = Vec::with_capacity(f);
    let mut n_vars = 0usize;
    for cands in &costs.candidates {
        let vars: Vec<usize> = (0..cands.len()).map(|k| n_vars + k).collect();
        n_vars += cands.len();
        var_of.push(vars);
    }
    let t_var = n_vars;
    // Primary objective: the makespan t. A vanishing wirelength tiebreak
    // (1e-9 µm⁻¹) steers the LP among the many max-cap-equivalent optima
    // toward shorter taps, mirroring the paper's pruned-arc behaviour
    // without measurably changing the achieved maximum load.
    let mut obj = vec![0.0; n_vars + 1];
    obj[t_var] = 1.0;
    let mut col_keys = vec![0u64; n_vars + 1];
    col_keys[t_var] = T_VAR_KEY;
    for (i, cands) in costs.candidates.iter().enumerate() {
        for (k, &(rid, wl, _)) in cands.iter().enumerate() {
            obj[var_of[i][k]] = 1e-9 * wl;
            col_keys[var_of[i][k]] = col_key(i, rid);
        }
    }
    let mut lp = LpProblem::minimize(obj);
    let mut row_keys: Vec<u64> = Vec::with_capacity(f);
    for (i, vars) in var_of.iter().enumerate().take(f) {
        let row: Vec<(usize, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_row(RowKind::Eq, 1.0, &row);
        row_keys.push(i as u64);
    }
    let mut ring_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_rings];
    for (i, cands) in costs.candidates.iter().enumerate() {
        for (k, &(rid, _, load)) in cands.iter().enumerate() {
            ring_rows[rid.index()].push((var_of[i][k], load));
        }
    }
    let mut ring_row_of = vec![None; n_rings];
    for (j, row) in ring_rows.into_iter().enumerate() {
        if row.is_empty() {
            continue;
        }
        let mut row = row;
        row.push((t_var, -1.0));
        ring_row_of[j] = Some(lp.add_row(RowKind::Le, 0.0, &row));
        row_keys.push(RING_ROW_TAG | j as u64);
    }
    lp.set_col_keys(col_keys);
    lp.set_row_keys(row_keys);
    (lp, var_of, ring_row_of)
}

/// Builds the crash basis seeded from the incumbent assignment `last`
/// (see [`assign_min_max_cap_ctx`]): the incumbent's surviving
/// flip-flop × ring columns, the makespan variable, and the slack of every
/// ring-load row except the one carrying the incumbent's peak load (whose
/// row the makespan column pivots). Flip-flops whose incumbent ring is no
/// longer a candidate are left to the solver's artificial fill. `None`
/// when no ring row exists to pivot the makespan against.
fn crash_basis(
    costs: &CandidateCosts,
    n_rings: usize,
    ring_row_of: &[Option<usize>],
    last: &[RingId],
) -> Option<LpBasis> {
    let mut load_of_ring = vec![0.0f64; n_rings];
    let mut structural = vec![(T_VAR_KEY, false)];
    for (i, (cands, &rid)) in costs.candidates.iter().zip(last).enumerate() {
        if let Some(&(_, _, load)) = cands.iter().find(|&&(r, _, _)| r == rid) {
            structural.push((col_key(i, rid), false));
            load_of_ring[rid.index()] += load;
        }
    }
    let tight = (0..n_rings).filter(|&j| ring_row_of[j].is_some()).max_by(|&a, &b| {
        load_of_ring[a].partial_cmp(&load_of_ring[b]).expect("loads are finite").then(b.cmp(&a))
    })?;
    let slacks = (0..n_rings)
        .filter(|&j| j != tight && ring_row_of[j].is_some())
        .map(|j| RING_ROW_TAG | j as u64);
    Some(LpBasis::crash(structural, slacks))
}

/// Max ring load of an integral assignment under the candidate loads.
fn max_load_of(costs: &CandidateCosts, n_rings: usize, rings: &[RingId]) -> f64 {
    let mut loads = vec![0.0; n_rings];
    for (i, &rid) in rings.iter().enumerate() {
        let &(_, _, load) = costs.candidates[i]
            .iter()
            .find(|&&(r, _, _)| r == rid)
            .expect("assigned ring is a candidate");
        loads[rid.index()] += load;
    }
    loads.into_iter().fold(0.0, f64::max)
}

/// Section VI: LP-relaxation + greedy rounding (Fig. 5). Cold solve; see
/// [`assign_min_max_cap_ctx`] for the warm-started flow-loop variant.
///
/// # Errors
///
/// [`AssignError::RelaxationFailed`] if the simplex does not reach
/// optimality.
pub fn assign_min_max_cap(
    costs: &CandidateCosts,
    n_rings: usize,
) -> Result<AssignOutcome, AssignError> {
    assign_min_max_cap_ctx(costs, n_rings, &mut AssignContext::new())
}

/// [`assign_min_max_cap`] with an [`AssignContext`] carried across calls:
/// the optimal basis of the previous relaxation warm-starts the current
/// simplex (dual-simplex repair accepts drifted costs/loads and even
/// changed candidate columns), and when the candidate ring structure is
/// unchanged the previous pass's LP matrix is patched in place instead of
/// rebuilt. The context is updated with this solve's optimal basis and
/// matrix on success and cleared on failure.
///
/// # Errors
///
/// [`AssignError::RelaxationFailed`] if the simplex does not reach
/// optimality.
pub fn assign_min_max_cap_ctx(
    costs: &CandidateCosts,
    n_rings: usize,
    ctx: &mut AssignContext,
) -> Result<AssignOutcome, AssignError> {
    let structure: Vec<Vec<RingId>> =
        costs.candidates.iter().map(|c| c.iter().map(|&(r, _, _)| r).collect()).collect();
    let total_cols: usize = costs.candidates.iter().map(Vec::len).sum();
    let (lp, var_of, ring_row_of, cols_reused, cols_rebuilt) = match ctx.cached.take() {
        // Structure unchanged: carry the matrix, patch the deltas (the
        // wirelength tiebreak costs and the ring-row loads) in place. The
        // patched problem is representationally identical to a fresh
        // build, so downstream results cannot differ.
        Some(mut c) if c.ring_row_of.len() == n_rings && c.structure == structure => {
            for (i, cands) in costs.candidates.iter().enumerate() {
                for (k, &(rid, wl, load)) in cands.iter().enumerate() {
                    let v = c.var_of[i][k];
                    c.lp.set_objective_coeff(v, 1e-9 * wl);
                    let row = c.ring_row_of[rid.index()].expect("candidate ring has a load row");
                    c.lp.update_coeff(v, row, load);
                }
            }
            (c.lp, c.var_of, c.ring_row_of, total_cols, 0)
        }
        // Structure changed (or first pass): rebuild, and count how many
        // flip-flop × ring columns survive by key — those are what the
        // keyed basis resolution can still map.
        prev => {
            let (lp, var_of, ring_row_of) = build_min_max_lp(costs, n_rings);
            let reused = prev
                .map(|c| {
                    structure
                        .iter()
                        .zip(&c.structure)
                        .map(|(now, was)| now.iter().filter(|r| was.contains(r)).count())
                        .sum()
                })
                .unwrap_or(0);
            (lp, var_of, ring_row_of, reused, total_cols - reused.min(total_cols))
        }
    };
    // Warm-start choice. Unchanged structure means small drift: the
    // carried optimal basis is near the new optimum and the dual-simplex
    // repair replays the delta cheaply. Changed structure means the
    // placement moved flip-flops across ring neighborhoods — the old
    // basis is typically hundreds of columns from the new optimum and
    // repairing it costs nearly a cold solve — so instead seed a *crash*
    // basis from the incumbent rounded assignment: one surviving column
    // per flip-flop at its old ring, the makespan column pivoting the
    // tightest ring row, and every other ring row on its slack. That
    // vertex is primal feasible by construction, so the solve skips the
    // big-M feasibility phase and starts the primal simplex from the
    // incumbent instead of from nothing.
    let crash = if cols_rebuilt > 0 {
        match (&ctx.last_rings, ctx.crash_start) {
            (Some(last), _) => crash_basis(costs, n_rings, &ring_row_of, last),
            // No incumbent yet (first pass): crash from a greedy
            // least-peak-load sweep over the candidate lists when enabled —
            // primal feasible like any integral assignment, spares the
            // big-M feasibility phase its ~m artificial evictions, and
            // lands far closer to the min-max optimum than the plain
            // nearest-ring choice (which overloads central rings).
            (None, true) => {
                let mut loads = vec![0.0f64; n_rings];
                let mut greedy: Vec<RingId> = costs
                    .candidates
                    .iter()
                    .map(|cands| {
                        let mut best = 0usize;
                        let mut best_peak = f64::INFINITY;
                        for (k, &(rid, _, load)) in cands.iter().enumerate() {
                            let peak = loads[rid.index()] + load;
                            if peak < best_peak {
                                best = k;
                                best_peak = peak;
                            }
                        }
                        let (rid, _, load) = cands[best];
                        loads[rid.index()] += load;
                        rid
                    })
                    .collect();
                // A couple of deterministic reassignment sweeps: with all
                // loads known, move each flip-flop to the candidate that
                // minimizes its ring's resulting load. Each sweep is
                // O(f·k) and pulls the start vertex visibly closer to the
                // min-max optimum (fewer simplex pivots to pay later).
                for _ in 0..2 {
                    for (i, cands) in costs.candidates.iter().enumerate() {
                        let cur = greedy[i];
                        let cur_load =
                            cands.iter().find(|&&(r, _, _)| r == cur).map_or(0.0, |&(_, _, l)| l);
                        loads[cur.index()] -= cur_load;
                        let mut best = 0usize;
                        let mut best_peak = f64::INFINITY;
                        for (k, &(rid, _, load)) in cands.iter().enumerate() {
                            let peak = loads[rid.index()] + load;
                            if peak < best_peak {
                                best = k;
                                best_peak = peak;
                            }
                        }
                        let (rid, _, load) = cands[best];
                        loads[rid.index()] += load;
                        greedy[i] = rid;
                    }
                }
                crash_basis(costs, n_rings, &ring_row_of, &greedy)
            }
            (None, false) => None,
        }
    } else {
        None
    };
    let warm_basis = crash.as_ref().or(ctx.basis.as_ref());
    let (sol, basis, warm) = lp.solve_with_basis_stats(warm_basis);
    ctx.stats = AssignStats {
        lp_iterations: sol.iterations,
        cols_reused,
        cols_rebuilt,
        warm_pivots: if warm.mode == WarmMode::Cold { 0 } else { sol.iterations },
        warm_mode: warm.mode,
        backend: None,
    };
    if sol.status != LpStatus::Optimal {
        ctx.reset();
        return Err(AssignError::RelaxationFailed {
            status: sol.status,
            iterations: sol.iterations,
        });
    }
    ctx.basis = basis;
    // The crash seed for the next pass is the per-flip-flop *LP argmax*,
    // not the rounded assignment: rounding's load-aware tie steering moves
    // rows off the relaxation vertex, and the crash wants to start as close
    // to the previous optimal basis as an integral vertex can.
    ctx.last_rings = Some(
        costs
            .candidates
            .iter()
            .zip(&var_of)
            .map(|(cands, vars)| {
                let mut best = 0usize;
                for (k, &v) in vars.iter().enumerate().skip(1) {
                    if sol.x[v] > sol.x[vars[best]] {
                        best = k;
                    }
                }
                cands[best].0
            })
            .collect(),
    );
    ctx.cached = Some(CachedLp { lp, var_of: var_of.clone(), ring_row_of, structure });
    let rings = round_assignment(costs, &sol, &var_of, n_rings);
    let achieved = max_load_of(costs, n_rings, &rings);
    let lp_opt = sol.objective.max(1e-12);
    Ok(AssignOutcome {
        assignment: Assignment { rings },
        lp_optimum: sol.objective,
        achieved,
        integrality_gap: achieved / lp_opt,
        lp_iterations: sol.iterations,
    })
}

/// Greedy rounding of the relaxation solution into ring choices.
///
/// Two deterministic heuristics round the same fractions — the paper's
/// plain Fig. 5 argmax ([`greedy_round`]) and the load-aware
/// [`greedy_round_loaded`] (which steers near-tie rows away from the most
/// loaded rings) — and whichever achieves the lower peak ring load wins,
/// with ties going to the paper's rule. Both are cheap next to the LP
/// solve, and the best-of-two is never worse than the paper's rounding on
/// the eq. 3 objective.
fn round_assignment(
    costs: &CandidateCosts,
    sol: &LpSolution,
    var_of: &[Vec<usize>],
    n_rings: usize,
) -> Vec<RingId> {
    let rows: Vec<Vec<(usize, f64, f64)>> = costs
        .candidates
        .iter()
        .zip(var_of)
        .map(|(cands, vars)| {
            cands
                .iter()
                .zip(vars)
                .map(|(&(rid, _, load), &v)| (rid.index(), sol.x[v], load))
                .collect()
        })
        .collect();
    let peak_of = |choice: &[usize]| {
        let mut loads = vec![0.0f64; n_rings];
        for (i, &j) in choice.iter().enumerate() {
            let &(_, _, c) =
                rows[i].iter().find(|&&(r, _, _)| r == j).expect("rounded choice is a candidate");
            loads[j] += c;
        }
        loads.into_iter().fold(0.0, f64::max)
    };
    let flat: Vec<Vec<(usize, f64)>> =
        rows.iter().map(|r| r.iter().map(|&(j, v, _)| (j, v)).collect()).collect();
    let plain = greedy_round(&flat);
    let loaded = greedy_round_loaded(&rows, n_rings);
    let choice = if peak_of(&loaded) < peak_of(&plain) { loaded } else { plain };
    choice.into_iter().map(|j| RingId(j as u32)).collect()
}

/// Result of the generic branch & bound route of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BnbAssignReport {
    /// Max load achieved by the incumbent, if any, pF.
    pub achieved: Option<f64>,
    /// Integrality gap of the incumbent vs the LP optimum.
    pub integrality_gap: Option<f64>,
    /// Nodes explored before the budget expired.
    pub nodes_explored: usize,
    /// Whether the solver hit its time budget.
    pub timed_out: bool,
}

/// Table I protocol: solve the same min-max formulation with a *generic*
/// branch & bound ILP solver under a wall-clock budget, and report the
/// incumbent (which may not exist — exactly as the paper observed for the
/// three largest circuits within 10 hours).
pub fn solve_min_max_cap_bnb(
    costs: &CandidateCosts,
    n_rings: usize,
    budget: Duration,
) -> (BnbAssignReport, IlpOutcome) {
    let (lp, var_of) = min_max_lp(costs, n_rings);
    let binaries: Vec<usize> = var_of.iter().flatten().copied().collect();
    let lp_opt = lp.solve().objective.max(1e-12);
    let outcome = BranchAndBound::new(lp, binaries).with_budget(budget).run();
    let achieved = outcome.best.as_ref().map(|x| {
        // The incumbent's objective *is* the makespan variable.
        let t_var = x.len() - 1;
        x[t_var]
    });
    let report = BnbAssignReport {
        achieved,
        integrality_gap: achieved.map(|a| a / lp_opt),
        nodes_explored: outcome.nodes_explored,
        timed_out: outcome.timed_out,
    };
    (report, outcome)
}

/// Assignment statistics: how many flip-flops landed on each ring.
pub fn ring_occupancy(assignment: &Assignment, n_rings: usize) -> Vec<usize> {
    let mut occ = vec![0usize; n_rings];
    for &r in &assignment.rings {
        occ[r.index()] += 1;
    }
    occ
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_netlist::CellId;

    /// Hand-built candidate costs: `f` flip-flops × candidates.
    fn costs_from(table: Vec<Vec<(u32, f64, f64)>>) -> CandidateCosts {
        CandidateCosts {
            flip_flops: (0..table.len() as u32).map(CellId).collect(),
            candidates: table
                .into_iter()
                .map(|v| v.into_iter().map(|(r, wl, ld)| (RingId(r), wl, ld)).collect())
                .collect(),
        }
    }

    #[test]
    fn network_flow_picks_cheapest_feasible() {
        // Two FFs, two rings; both prefer ring 0 but it only fits one.
        let costs = costs_from(vec![
            vec![(0, 10.0, 0.1), (1, 50.0, 0.1)],
            vec![(0, 20.0, 0.1), (1, 25.0, 0.1)],
        ]);
        let a = assign_network_flow(&costs, &[1, 1]).expect("feasible");
        // Optimal: FF0→ring0 (10), FF1→ring1 (25): total 35.
        assert_eq!(a.rings, vec![RingId(0), RingId(1)]);
    }

    #[test]
    fn network_flow_respects_capacity_zero() {
        let costs = costs_from(vec![vec![(0, 10.0, 0.1), (1, 50.0, 0.1)]]);
        let a = assign_network_flow(&costs, &[0, 1]).expect("feasible");
        assert_eq!(a.rings, vec![RingId(1)]);
    }

    #[test]
    fn network_flow_detects_insufficient_capacity() {
        let costs = costs_from(vec![vec![(0, 1.0, 0.1)], vec![(0, 1.0, 0.1)]]);
        assert_eq!(assign_network_flow(&costs, &[1, 1]), Err(AssignError::InsufficientCapacity));
    }

    #[test]
    fn network_flow_is_globally_optimal_vs_greedy() {
        // Greedy nearest-ring would give total 10 + 90 = 100; flow finds
        // 30 + 20 = 50.
        let costs = costs_from(vec![
            vec![(0, 10.0, 0.1), (1, 30.0, 0.1)],
            vec![(0, 20.0, 0.1), (1, 90.0, 0.1)],
        ]);
        let a = assign_network_flow(&costs, &[1, 1]).expect("feasible");
        assert_eq!(a.rings, vec![RingId(1), RingId(0)]);
    }

    #[test]
    fn min_max_cap_balances_load() {
        // Three identical FFs, two rings with equal candidate loads: the
        // max-load optimum splits 2/1 ⇒ max 0.2.
        let costs = costs_from(vec![
            vec![(0, 1.0, 0.1), (1, 1.0, 0.1)],
            vec![(0, 1.0, 0.1), (1, 1.0, 0.1)],
            vec![(0, 1.0, 0.1), (1, 1.0, 0.1)],
        ]);
        let out = assign_min_max_cap(&costs, 2).expect("solved");
        assert!(out.achieved <= 0.2 + 1e-9, "achieved {}", out.achieved);
        assert!(out.lp_optimum <= out.achieved + 1e-9);
        assert!(out.integrality_gap >= 1.0 - 1e-9);
        let occ = ring_occupancy(&out.assignment, 2);
        assert_eq!(occ.iter().sum::<usize>(), 3);
    }

    #[test]
    fn min_max_cap_prefers_load_balance_over_wirelength() {
        // FF1 slightly prefers ring 0 by wirelength, but ring 0 already
        // carries FF0's large load: the min-max objective moves FF1 away.
        let costs = costs_from(vec![vec![(0, 1.0, 1.0)], vec![(0, 1.0, 0.5), (1, 5.0, 0.6)]]);
        let out = assign_min_max_cap(&costs, 2).expect("solved");
        assert_eq!(out.assignment.rings[1], RingId(1));
        assert!((out.achieved - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bnb_matches_or_beats_rounding_on_small_instance() {
        let costs = costs_from(vec![
            vec![(0, 1.0, 0.30), (1, 2.0, 0.32)],
            vec![(0, 1.0, 0.28), (1, 2.0, 0.30)],
            vec![(0, 1.0, 0.25), (1, 2.0, 0.27)],
            vec![(0, 1.0, 0.20), (1, 2.0, 0.22)],
        ]);
        let greedy = assign_min_max_cap(&costs, 2).expect("greedy");
        let (bnb, _) = solve_min_max_cap_bnb(&costs, 2, Duration::from_secs(10));
        let bnb_val = bnb.achieved.expect("small instance solves in time");
        assert!(bnb_val <= greedy.achieved + 1e-6);
        assert!(!bnb.timed_out);
    }

    #[test]
    fn bnb_with_zero_budget_times_out_without_incumbent() {
        let costs = costs_from(vec![
            vec![(0, 1.0, 0.3), (1, 2.0, 0.3)],
            vec![(0, 1.0, 0.3), (1, 2.0, 0.3)],
        ]);
        let (bnb, _) = solve_min_max_cap_bnb(&costs, 2, Duration::from_millis(0));
        assert!(bnb.timed_out);
        assert!(bnb.achieved.is_none());
    }

    #[test]
    fn occupancy_counts() {
        let a = Assignment { rings: vec![RingId(0), RingId(1), RingId(0)] };
        assert_eq!(ring_occupancy(&a, 3), vec![2, 1, 0]);
    }
}
