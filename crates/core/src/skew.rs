//! Skew scheduling (paper Section VII).
//!
//! Three schedulers, all over the sequential-adjacency constraint graph:
//!
//! * [`max_slack_schedule`] — the classic Fishburn max-slack formulation
//!   (eqs. 5–7), solved by binary search on the slack `M` with
//!   Bellman–Ford feasibility (the graph-based route of \[23\], \[24\]).
//! * [`minimax_schedule`] — cost-driven: minimize the maximum deviation `Δ`
//!   between each flip-flop's delay target and the delay achievable through
//!   the *closest* point of its ring, subject to the timing constraints at
//!   a prespecified slack `M`.
//! * [`weighted_schedule`] — cost-driven: minimize `Σ w_i·δ_i` with
//!   `δ_i ≥ |t̂_i − t_i|`; solved exactly through the min-cost-circulation
//!   dual (the LP's network structure), with `w_i = l_i` as the paper
//!   suggests.

use rotary_solver::mcmf::{Circulation, CirculationBackend};
use rotary_solver::{DifferenceSystem, ParametricSystem};
use rotary_timing::{SequentialGraph, Technology};
use serde::{Deserialize, Serialize};

/// A clock-delay target per flip-flop, indexed like
/// [`SequentialGraph::flip_flops`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkewSchedule {
    /// Delay target `t̂_i` per flip-flop, ns.
    pub targets: Vec<f64>,
    /// The timing slack `M` this schedule guarantees, ns.
    pub slack: f64,
    /// The clock period the schedule was computed for, ns. Equals the
    /// technology period when the circuit meets it; otherwise the minimum
    /// feasible period (the paper notes that high skew uncertainty "might
    /// need to run the clock at a lower speed").
    pub period: f64,
}

impl SkewSchedule {
    /// A zero-skew schedule over `n` flip-flops (all targets 0) at a
    /// 1 ns period.
    pub fn zero(n: usize) -> Self {
        Self { targets: vec![0.0; n], slack: 0.0, period: 1.0 }
    }
}

/// Solver-effort statistics from a scheduling call, for flow telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkewStats {
    /// Difference constraints in the timing system that was solved.
    pub constraints: usize,
    /// Inner solver iterations: feasibility solves of the binary search
    /// (max-slack / minimax) or correction paths routed (weighted).
    pub solver_iterations: usize,
    /// Work carried over from the warm-start context instead of being
    /// recomputed: constraint arcs and potential labels a delta-rebound
    /// parametric engine kept intact (parametric schedulers), or the
    /// spanning-tree arcs of the carried basis a warm circulation solve
    /// resumed from (weighted). Zero on cold solves.
    pub reused_work: usize,
    /// Constraint bounds (parametric schedulers) or circulation arc pairs
    /// whose cap or cost changed since the context's previous solve
    /// (weighted dual) — the delta the incremental machinery replays.
    /// Zero on cold solves.
    pub delta_arcs: usize,
    /// Distinct variables whose potentials moved across this call's
    /// relaxations, or — for the weighted dual's circulation — the
    /// endpoint nodes of the changed arc pairs.
    pub affected_vertices: usize,
    /// Network-simplex pivots the weighted dual's circulation ran,
    /// degenerate ones included (zero for schedulers without a
    /// circulation and on warm re-solves whose costs changed nothing).
    pub rounds: usize,
    /// Non-degenerate pivots: those that moved flow around their cycle.
    pub paths: usize,
    /// Always 0: the network simplex has no multi-path rounds. Kept so
    /// the telemetry schema stays stable.
    pub max_plateau: usize,
    /// Label of the circulation engine that served this call
    /// (`"network-simplex"`); `None` for schedulers that run no
    /// circulation.
    pub backend: Option<&'static str>,
}

impl SkewStats {
    /// Folds a re-wrap round's stats into an accumulator: effort counters
    /// add up, `constraints` is a property of the system (max, not sum),
    /// `max_plateau` is a max over solves, and the backend label of the
    /// latest round wins. Shared by every re-solve loop in
    /// `Flow::cost_driven` so new telemetry fields cannot drift between
    /// the scheduler variants again.
    pub fn absorb_rewrap(&mut self, st: &SkewStats) {
        self.constraints = self.constraints.max(st.constraints);
        self.solver_iterations += st.solver_iterations;
        self.reused_work += st.reused_work;
        self.delta_arcs += st.delta_arcs;
        self.affected_vertices += st.affected_vertices;
        self.rounds += st.rounds;
        self.paths += st.paths;
        self.max_plateau = self.max_plateau.max(st.max_plateau);
        self.backend = st.backend.or(self.backend);
    }
}

/// Warm-start state carried across scheduling calls within one flow run.
///
/// The timing-graph *topology* is fixed over the Fig. 3 loop — only the
/// bounds drift as incremental placement moves the cells — so each
/// scheduler family keeps its whole [`ParametricSystem`] engine (CSR
/// graph, optimal potentials, critical cycle) in its own slot and
/// re-targets it at the next iteration's system via
/// [`ParametricSystem::rebind`]: only the bounds that actually changed are
/// replayed, and the next solve seeds relaxation from those arcs alone.
/// Warm state is purely an accelerator: every returned schedule comes from
/// a canonical cold solve at the final parameter, so results are
/// bit-identical with or without a context.
#[derive(Debug, Clone, Default)]
pub struct SkewContext {
    /// Engine of the period-search parametrization.
    period: Option<ParametricSystem>,
    /// Engine of the stage-2 max-slack system.
    stage2: Option<ParametricSystem>,
    /// Engine of the minimax system (`n + 1` variables).
    minimax: Option<ParametricSystem>,
    /// Engine of the weighted-schedule feasibility pre-check.
    weighted: Option<ParametricSystem>,
    /// Persistent min-cost-circulation engine of the weighted-sum dual
    /// (flow + spanning-tree basis), reused while the arc topology
    /// matches.
    circulation: Option<CirculationState>,
}

impl SkewContext {
    /// An empty context (first iteration: all solves start cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the circulation backend the weighted dual will use. There
    /// is one, [`CirculationBackend::NetworkSimplex`], so this is a no-op
    /// kept for configuration compatibility.
    pub fn set_circulation_backend(&mut self, backend: CirculationBackend) {
        let CirculationBackend::NetworkSimplex = backend;
    }
}

/// The weighted-sum dual's circulation engine plus the `(from, to)` pairs
/// it was built over. The timing-graph topology is fixed across phase
/// re-wrap rounds (only reference-arc costs move by `k·T/2`) and across
/// Fig. 3 iterations (only bounds and weights drift), so one engine
/// serves the whole flow run; the stored pairs gate reuse — an engine
/// built for a different system is discarded, never warm-started.
#[derive(Debug, Clone)]
struct CirculationState {
    engine: Circulation,
    pairs: Vec<(u32, u32)>,
}

/// Takes the slot's engine and re-targets it at `sys`/`tighten` when the
/// shape matches (patching only the changed bounds), or builds a fresh
/// engine otherwise (first iteration, or a different circuit across a
/// ring-grid sweep). Returns `(engine, reused_work, delta_arcs)`:
/// `reused_work` counts the labels plus unchanged constraint arcs the warm
/// path kept, zero on a cold build.
fn lease_engine(
    slot: &mut Option<ParametricSystem>,
    sys: &DifferenceSystem,
    tighten: &[f64],
) -> (ParametricSystem, usize, usize) {
    if let Some(mut par) = slot.take() {
        if let Some(delta) = par.rebind(sys, tighten) {
            let reused = par.num_vars() + (par.num_constraints() - delta);
            return (par, reused, delta);
        }
    }
    (ParametricSystem::new(sys, tighten), 0, 0)
}

/// The smallest clock period at which the skew constraints admit any
/// schedule. Never smaller than `tech.clock_period`.
///
/// Both skew bounds are affine in the period `T` — the long-path bound
/// `T − D_max − t_setup` grows with it, the short-path bound is
/// independent — so one parametric system built at `tech.clock_period`
/// with the long-path rows *loosening* (`tighten = −1`) covers every
/// candidate period as `bound + m`; the exact minimum excess `m` is the
/// cycle-ratio solve of [`ParametricSystem::min_feasible`]. No
/// per-probe system rebuilds, no `Technology` clones.
pub fn min_feasible_period(graph: &SequentialGraph, tech: &Technology) -> f64 {
    min_feasible_period_ctx(graph, tech, &mut SkewContext::new()).0
}

/// [`min_feasible_period`] with warm-start context and solver stats.
///
/// # Panics
///
/// Panics if the constraints are infeasible at any period (a negative
/// short-path-only cycle).
pub fn min_feasible_period_ctx(
    graph: &SequentialGraph,
    tech: &Technology,
    ctx: &mut SkewContext,
) -> (f64, SkewStats) {
    if graph.pairs().is_empty() {
        return (tech.clock_period, SkewStats::default());
    }
    let (sys, timing_rows) = timing_system(graph, tech, 0.0, 0);
    let mut tighten = vec![0.0; sys.constraints().len()];
    // timing_system pushes rows in (long-path, short-path) pairs; only the
    // long-path rows carry the period.
    for (k, &row) in timing_rows.iter().enumerate() {
        if k % 2 == 0 {
            tighten[row] = -1.0;
        }
    }
    let (mut par, reused, delta) = lease_engine(&mut ctx.period, &sys, &tighten);
    // Engines persist across calls, so their lifetime counters must be
    // snapshot-diffed to get this call's share.
    let solves0 = par.solves();
    let affected0 = par.affected_vertices();
    let excess = par.min_feasible(1e6).expect("timing constraints infeasible at any period");
    let stats = SkewStats {
        constraints: sys.constraints().len(),
        solver_iterations: par.solves() - solves0,
        reused_work: reused,
        delta_arcs: delta,
        affected_vertices: par.affected_vertices() - affected0,
        ..SkewStats::default()
    };
    ctx.period = Some(par);
    (tech.clock_period + excess, stats)
}

/// Builds the timing difference-constraint system at slack `m`:
/// long path `t̂_i − t̂_j ≤ T − D_max − t_setup − m` and short path
/// `t̂_j − t̂_i ≤ D_min − t_hold − m` for every `i ↦ j`, over
/// `n_extra` additional variables appended after the flip-flops.
fn timing_system(
    graph: &SequentialGraph,
    tech: &Technology,
    m: f64,
    n_extra: usize,
) -> (DifferenceSystem, Vec<usize>) {
    let ffs = graph.flip_flops();
    let index_of = |id| ffs.binary_search(&id).expect("flip-flop in graph");
    let mut sys = DifferenceSystem::new(ffs.len() + n_extra);
    let mut timing_rows = Vec::new();
    for p in graph.pairs() {
        let (i, j) = (index_of(p.from), index_of(p.to));
        timing_rows.push(sys.constraints().len());
        sys.add(i, j, p.skew_upper(tech) - m);
        timing_rows.push(sys.constraints().len());
        sys.add(j, i, -(p.skew_lower(tech) + m));
    }
    (sys, timing_rows)
}

/// Stage-2 skew optimization: maximize the slack `M` (eqs. 5–7).
///
/// Returns the schedule anchored so that the minimum target is 0.
///
/// # Panics
///
/// Panics if even `M = 0` is infeasible (the circuit cannot run at the
/// technology's clock period).
pub fn max_slack_schedule(graph: &SequentialGraph, tech: &Technology) -> SkewSchedule {
    max_slack_schedule_with_stats(graph, tech).0
}

/// [`max_slack_schedule`] plus its [`SkewStats`].
///
/// # Panics
///
/// Same conditions as [`max_slack_schedule`].
pub fn max_slack_schedule_with_stats(
    graph: &SequentialGraph,
    tech: &Technology,
) -> (SkewSchedule, SkewStats) {
    max_slack_schedule_ctx(graph, tech, &mut SkewContext::new())
}

/// [`max_slack_schedule_with_stats`] with warm-start context: the slack
/// maximization runs as an exact parametric cycle-ratio solve (Newton on
/// the violated cycles) instead of a tolerance-bounded bisection, seeded
/// from the previous iteration's potentials. The returned targets come
/// from a canonical cold solve at the optimum.
///
/// # Panics
///
/// Same conditions as [`max_slack_schedule`].
pub fn max_slack_schedule_ctx(
    graph: &SequentialGraph,
    tech: &Technology,
    ctx: &mut SkewContext,
) -> (SkewSchedule, SkewStats) {
    let n = graph.flip_flops().len();
    if graph.pairs().is_empty() {
        let schedule = SkewSchedule { period: tech.clock_period, ..SkewSchedule::zero(n) };
        return (schedule, SkewStats::default());
    }
    // If the circuit cannot run at the nominal period, schedule at the
    // minimum feasible period (with a small margin so the cost-driven
    // stage keeps room to move).
    let (period, period_stats) = min_feasible_period_ctx(graph, tech, ctx);
    let period = if period > tech.clock_period { 1.05 * period } else { period };
    let tech_eff = Technology { clock_period: period, ..*tech };
    let (sys, _) = timing_system(graph, &tech_eff, 0.0, 0);
    let tighten = vec![1.0; sys.constraints().len()];
    let (mut par, reused, delta) = lease_engine(&mut ctx.stage2, &sys, &tighten);
    let solves0 = par.solves();
    let affected0 = par.affected_vertices();
    let (slack, mut targets) = par
        .maximize_slack_exact(period)
        .expect("base system must be feasible for slack maximization");
    let stats = SkewStats {
        constraints: sys.constraints().len(),
        solver_iterations: period_stats.solver_iterations + (par.solves() - solves0),
        reused_work: period_stats.reused_work + reused,
        delta_arcs: period_stats.delta_arcs + delta,
        affected_vertices: period_stats.affected_vertices + (par.affected_vertices() - affected0),
        ..SkewStats::default()
    };
    ctx.stage2 = Some(par);
    normalize(&mut targets);
    (SkewSchedule { targets, slack, period }, stats)
}

/// Stage-4 cost-driven skew optimization, minimax form: minimize `Δ` s.t.
///
/// ```text
/// t_ref + t_ref,c + 2·t_c,i − t̂_i ≤ Δ       (∀ i)
/// t̂_i − t_ref − t_ref,c ≤ Δ                 (∀ i)
/// ```
///
/// plus the timing constraints at slack `m`. `ring_delay[i]` is
/// `t_ref + t_ref,c` (the clock delay at the closest ring point `c` of
/// flip-flop `i`) and `stub_delay[i]` is `t_c,i`.
///
/// # Panics
///
/// Panics if the timing system at slack `m` is infeasible, or if input
/// slices disagree in length with the graph.
pub fn minimax_schedule(
    graph: &SequentialGraph,
    tech: &Technology,
    ring_delay: &[f64],
    stub_delay: &[f64],
    m: f64,
) -> SkewSchedule {
    minimax_schedule_with_stats(graph, tech, ring_delay, stub_delay, m).0
}

/// [`minimax_schedule`] plus its [`SkewStats`].
///
/// # Panics
///
/// Same conditions as [`minimax_schedule`].
pub fn minimax_schedule_with_stats(
    graph: &SequentialGraph,
    tech: &Technology,
    ring_delay: &[f64],
    stub_delay: &[f64],
    m: f64,
) -> (SkewSchedule, SkewStats) {
    minimax_schedule_ctx(graph, tech, ring_delay, stub_delay, m, &mut SkewContext::new())
}

/// [`minimax_schedule_with_stats`] with warm-start context (exact
/// parametric solve; canonical cold solution at the optimum).
///
/// # Panics
///
/// Same conditions as [`minimax_schedule`].
pub fn minimax_schedule_ctx(
    graph: &SequentialGraph,
    tech: &Technology,
    ring_delay: &[f64],
    stub_delay: &[f64],
    m: f64,
    ctx: &mut SkewContext,
) -> (SkewSchedule, SkewStats) {
    let n = graph.flip_flops().len();
    assert_eq!(ring_delay.len(), n);
    assert_eq!(stub_delay.len(), n);
    // Variable n is the reference (pinned to 0 implicitly: all window
    // constraints are expressed against it; the solution is later shifted
    // so that the reference variable reads 0).
    let (mut sys, _) = timing_system(graph, tech, m, 1);
    let reference = n;
    // Upper bound on Δ: every target can always sit within one period of
    // its ring point.
    let delta_max: f64 = ring_delay
        .iter()
        .zip(stub_delay)
        .map(|(&a, &b)| a.abs() + 2.0 * b + tech.clock_period)
        .fold(tech.clock_period, f64::max);
    let mut tighten = vec![0.0; sys.constraints().len()];
    for i in 0..n {
        // t̂_i − ref ≤ a_i + Δ   where Δ = delta_max − s
        sys.add(i, reference, ring_delay[i] + delta_max);
        tighten.push(1.0);
        // ref − t̂_i ≤ Δ − a_i − 2 b_i
        sys.add(reference, i, delta_max - ring_delay[i] - 2.0 * stub_delay[i]);
        tighten.push(1.0);
    }
    let (mut par, reused, delta) = lease_engine(&mut ctx.minimax, &sys, &tighten);
    let solves0 = par.solves();
    let affected0 = par.affected_vertices();
    let (s, mut sol) = par
        .maximize_slack_exact(delta_max)
        .unwrap_or_else(|| panic!("timing constraints infeasible at slack {m}"));
    let _delta = delta_max - s;
    // Shift so the reference variable is exactly 0.
    let r = sol[reference];
    sol.truncate(n);
    for v in &mut sol {
        *v -= r;
    }
    let stats = SkewStats {
        constraints: sys.constraints().len(),
        solver_iterations: par.solves() - solves0,
        reused_work: reused,
        delta_arcs: delta,
        affected_vertices: par.affected_vertices() - affected0,
        ..SkewStats::default()
    };
    ctx.minimax = Some(par);
    (SkewSchedule { targets: sol, slack: m, period: tech.clock_period }, stats)
}

/// Stage-4 cost-driven skew optimization, weighted-sum form:
/// minimize `Σ_i w_i·|t̂_i − ideal_i|` subject to the timing constraints at
/// slack `m`, solved exactly via the min-cost-circulation dual of the LP.
///
/// `ideal[i]` is the delay `t_i` through the closest ring point
/// (`t_c + t_{c,i}`), and `weight[i] ≥ 0` its priority (the paper uses the
/// flip-flop-to-ring distance `l_i`).
///
/// # Panics
///
/// Panics if the timing system at slack `m` is infeasible or slice lengths
/// disagree.
pub fn weighted_schedule(
    graph: &SequentialGraph,
    tech: &Technology,
    ideal: &[f64],
    weight: &[f64],
    m: f64,
) -> SkewSchedule {
    weighted_schedule_with_stats(graph, tech, ideal, weight, m).0
}

/// [`weighted_schedule`] plus its [`SkewStats`].
///
/// # Panics
///
/// Same conditions as [`weighted_schedule`].
pub fn weighted_schedule_with_stats(
    graph: &SequentialGraph,
    tech: &Technology,
    ideal: &[f64],
    weight: &[f64],
    m: f64,
) -> (SkewSchedule, SkewStats) {
    weighted_schedule_ctx(graph, tech, ideal, weight, m, &mut SkewContext::new())
}

/// Fixed-point scale for the circulation's integer arc costs: 2^40.
///
/// A power of two keeps quantization and recovery exact in `f64`:
/// `(cost · 2^40).round()` introduces at most 2^−41 ns ≈ 4.5e−13 of error
/// per arc — far below every feasibility tolerance in the flow — and the
/// final division of an integer dual difference by 2^40 is an exact
/// floating-point operation (the differences are schedule-sized, well
/// under 2^53 scaled units). Exact integer costs are what make warm and
/// cold solves bit-identical: the engine's canonical duals depend only on
/// the quantized problem, not on which optimal circulation a solve found.
const COST_SCALE: f64 = 1_099_511_627_776.0;

/// [`weighted_schedule_with_stats`] with warm-start context: the timing
/// feasibility pre-check relaxes from the previous iteration's potentials,
/// and the min-cost-circulation dual re-solves on the engine carried in
/// the context. When the capacities (the weights) are unchanged — the
/// phase re-wrap rounds, where only ideals move — the network simplex
/// resumes from the previous basis; otherwise it starts cold. The
/// recovered schedule comes from the engine's canonical integer duals,
/// which are a constant of the quantized problem (see [`COST_SCALE`]), so
/// warm and cold schedules are bit-identical.
///
/// # Panics
///
/// Same conditions as [`weighted_schedule`].
pub fn weighted_schedule_ctx(
    graph: &SequentialGraph,
    tech: &Technology,
    ideal: &[f64],
    weight: &[f64],
    m: f64,
    ctx: &mut SkewContext,
) -> (SkewSchedule, SkewStats) {
    weighted_schedule_inner(graph, tech, ideal, weight, m, ctx, false)
}

/// [`weighted_schedule_ctx`] for a phase re-wrap round: `rewrapped` lists
/// the flip-flops whose `ideal` moved since the previous call on this
/// context, which solved the same system with the same weights. Only
/// reference-arc costs change, so the circulation resumes from the
/// carried basis. The list itself feeds only a debug check that the
/// capacities are indeed unchanged; schedules equal those of
/// [`weighted_schedule_ctx`] bit for bit.
///
/// # Panics
///
/// Same conditions as [`weighted_schedule`]; debug builds additionally
/// panic if the context carries an engine for this system whose
/// capacities differ.
pub fn weighted_schedule_rewrap_ctx(
    graph: &SequentialGraph,
    tech: &Technology,
    ideal: &[f64],
    weight: &[f64],
    m: f64,
    ctx: &mut SkewContext,
    rewrapped: &[u32],
) -> (SkewSchedule, SkewStats) {
    debug_assert!(rewrapped.iter().all(|&i| (i as usize) < ideal.len()));
    weighted_schedule_inner(graph, tech, ideal, weight, m, ctx, true)
}

fn weighted_schedule_inner(
    graph: &SequentialGraph,
    tech: &Technology,
    ideal: &[f64],
    weight: &[f64],
    m: f64,
    ctx: &mut SkewContext,
    rewrap: bool,
) -> (SkewSchedule, SkewStats) {
    let n = graph.flip_flops().len();
    assert_eq!(ideal.len(), n);
    assert_eq!(weight.len(), n);
    let (sys, _) = timing_system(graph, tech, m, 0);
    {
        // The pre-check system is all-zero tighten, so the rebound engine's
        // delta seeding applies at any probe parameter: after the first
        // converged probe, subsequent calls relax only from changed arcs —
        // across re-wrap rounds with unchanged bounds that is zero seeds
        // and an instant re-certification.
        let tighten = vec![0.0; sys.constraints().len()];
        let (mut par, _, _) = lease_engine(&mut ctx.weighted, &sys, &tighten);
        assert!(par.probe(0.0), "timing constraints infeasible at slack {m}");
        ctx.weighted = Some(par);
    }

    // Dual network: node per flip-flop + reference node R = n.
    // Constraint y_i − y_j ≤ b  ⇒ arc i → j, cost b, cap ∞.
    // Objective term w_i·|y_i − t_i| ⇒ arcs i → R and R → i with
    // cost −t_i / +t_i and capacity w_i (scaled to integers).
    //
    // With flows f on those arcs, LP duality gives
    //   min Σ w|y−t| = −min-cost circulation,
    // and an optimal y is recovered from the circulation's duals:
    //   y_i = −d_i (up to a common shift), where d are shortest distances
    // in the optimal residual network.
    //
    // The arc *topology* is fixed for the whole flow run — constraint arcs
    // follow the timing graph, and every flip-flop gets its R-arc pair
    // (capacity 0 when its weight rounds to 0, which keeps the pair inert
    // without changing the node/arc layout) — so the engine in the context
    // is rebuilt only when the topology genuinely differs (e.g. across a
    // ring-grid sweep) and carried otherwise.
    const W_SCALE: f64 = 64.0;
    let quantize = |x: f64| (x * COST_SCALE).round() as i64;
    // Every negative-cost simple cycle crosses R (cycles of constraint
    // arcs alone sum ≥ 0 — the system is feasible), so circulation flow on
    // any constraint arc is bounded by the total R-arc capacity. A finite
    // cap bounds every pivot's flow change on negative-bound constraint
    // arcs while changing no optimum.
    let w_caps: Vec<i64> = weight.iter().map(|&w| ((w * W_SCALE).round() as i64).max(0)).collect();
    let total_w: i64 = w_caps.iter().sum::<i64>().max(1);
    let n_arcs = sys.constraints().len() + 2 * n;
    let mut pairs = Vec::with_capacity(n_arcs);
    let mut caps = Vec::with_capacity(n_arcs);
    let mut costs = Vec::with_capacity(n_arcs);
    for c in sys.constraints() {
        pairs.push((c.i as u32, c.j as u32));
        caps.push(total_w);
        costs.push(quantize(c.bound));
    }
    for (i, &cap) in w_caps.iter().enumerate() {
        let q = quantize(ideal[i]);
        pairs.push((i as u32, n as u32));
        caps.push(cap);
        costs.push(q);
        pairs.push((n as u32, i as u32));
        caps.push(cap);
        costs.push(-q);
    }
    let (mut state, warm) = match ctx.circulation.take() {
        Some(s) if s.pairs == pairs => (s, true),
        _ => (CirculationState { engine: Circulation::new(n + 1, &pairs), pairs }, false),
    };
    debug_assert!(
        !(rewrap && warm) || state.engine.caps() == caps,
        "a re-wrap round must keep the previous call's weights"
    );
    let circ_stats = state.engine.solve(&caps, &costs, warm);
    let d = state.engine.canonical_distances();
    ctx.circulation = Some(state);
    // Shift so the reference node maps to 0 (pure normalization; all
    // constraints are differences). Integer subtraction, then one exact
    // power-of-two division.
    let shift = d[n];
    let targets: Vec<f64> = (0..n).map(|i| (shift - d[i]) as f64 / COST_SCALE).collect();
    debug_assert!(sys.check(&targets, 1e-6), "dual recovery violated timing");
    let stats = SkewStats {
        constraints: sys.constraints().len(),
        solver_iterations: circ_stats.pivots,
        reused_work: circ_stats.reused_arcs,
        delta_arcs: circ_stats.delta_pairs,
        affected_vertices: circ_stats.touched_nodes,
        rounds: circ_stats.pivots,
        paths: circ_stats.nondegenerate_pivots,
        max_plateau: 0,
        backend: Some(CirculationBackend::NetworkSimplex.label()),
    };
    (SkewSchedule { targets, slack: m, period: tech.clock_period }, stats)
}

/// Shifts targets so their minimum is 0.
fn normalize(targets: &mut [f64]) {
    if let Some(min) = targets.iter().cloned().reduce(f64::min) {
        for t in targets.iter_mut() {
            *t -= min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_netlist::geom::{Point, Rect};
    use rotary_netlist::{Cell, CellKind, Circuit, Net};
    use rotary_solver::lp::{LpProblem, LpStatus, RowKind};

    fn cell(kind: CellKind) -> Cell {
        Cell {
            kind,
            width: 2.0,
            height: 8.0,
            input_cap: 0.005,
            drive_resistance: 2.0,
            intrinsic_delay: 0.05,
        }
    }

    /// A 4-stage ring pipeline of flip-flops with gates in between.
    fn pipeline(n: usize) -> Circuit {
        let mut c = Circuit::new("pipe", Rect::from_size(2000.0, 2000.0));
        let mut ffs = Vec::new();
        for k in 0..n {
            ffs.push(
                c.add_cell(cell(CellKind::FlipFlop), Point::new(100.0 + 150.0 * k as f64, 100.0)),
            );
        }
        for k in 0..n {
            let g = c.add_cell(
                cell(CellKind::Combinational),
                Point::new(150.0 + 150.0 * k as f64, 120.0),
            );
            c.add_net(Net { driver: ffs[k], sinks: vec![g] });
            c.add_net(Net { driver: g, sinks: vec![ffs[(k + 1) % n]] });
        }
        c
    }

    fn graph(c: &Circuit) -> SequentialGraph {
        SequentialGraph::extract(c, &Technology::default())
    }

    #[test]
    fn max_slack_schedule_is_feasible_and_positive() {
        let c = pipeline(5);
        let tech = Technology::default();
        let g = graph(&c);
        let s = max_slack_schedule(&g, &tech);
        assert!(s.slack > 0.0, "pipeline at 1 GHz must have slack");
        assert!(g.check_schedule(&s.targets, &tech, s.slack - 1e-4, 1e-6).is_none());
    }

    #[test]
    fn max_slack_matches_lp_solution() {
        // Cross-check the graph-based search against the explicit LP
        // (maximize M ⇔ minimize −M).
        let c = pipeline(4);
        let tech = Technology::default();
        let g = graph(&c);
        let s = max_slack_schedule(&g, &tech);

        let n = g.flip_flops().len();
        let mut lp =
            LpProblem::minimize((0..=n).map(|k| if k == n { -1.0 } else { 0.0 }).collect());
        for j in 0..n {
            lp.set_free(j);
        }
        let idx = |id| g.flip_flops().binary_search(&id).unwrap();
        for p in g.pairs() {
            let (i, j) = (idx(p.from), idx(p.to));
            // t_i − t_j + M ≤ upper
            lp.add_row(RowKind::Le, p.skew_upper(&tech), &[(i, 1.0), (j, -1.0), (n, 1.0)]);
            // t_i − t_j − ... ≥ lower + M  ⇔  −t_i + t_j + M ≤ −lower
            lp.add_row(RowKind::Le, -p.skew_lower(&tech), &[(i, -1.0), (j, 1.0), (n, 1.0)]);
        }
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        let lp_slack = -sol.objective;
        assert!((lp_slack - s.slack).abs() < 1e-3, "graph {} vs LP {}", s.slack, lp_slack);
    }

    #[test]
    fn minimax_schedule_respects_timing() {
        let c = pipeline(6);
        let tech = Technology::default();
        let g = graph(&c);
        let n = g.flip_flops().len();
        let ring_delay: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let stub = vec![0.01; n];
        let s = minimax_schedule(&g, &tech, &ring_delay, &stub, 0.02);
        assert!(g.check_schedule(&s.targets, &tech, 0.02 - 1e-6, 1e-6).is_none());
    }

    #[test]
    fn minimax_pulls_targets_toward_ring_delays() {
        let c = pipeline(6);
        let tech = Technology::default();
        let g = graph(&c);
        let n = g.flip_flops().len();
        // All rings want delay 0.4; unconstrained pipeline can satisfy all.
        let ring_delay = vec![0.4; n];
        let stub = vec![0.0; n];
        let s = minimax_schedule(&g, &tech, &ring_delay, &stub, 0.0);
        for &t in &s.targets {
            assert!((t - 0.4).abs() < 0.05, "target {t} should be near 0.4");
        }
    }

    #[test]
    fn weighted_schedule_matches_lp_on_small_instance() {
        let c = pipeline(5);
        let tech = Technology::default();
        let g = graph(&c);
        let n = g.flip_flops().len();
        let ideal: Vec<f64> = (0..n).map(|i| 0.05 + 0.13 * i as f64).collect();
        let weight: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let m = 0.01;
        let s = weighted_schedule(&g, &tech, &ideal, &weight, m);
        assert!(g.check_schedule(&s.targets, &tech, m - 1e-6, 1e-5).is_none());
        let dual_obj: f64 =
            s.targets.iter().zip(&ideal).zip(&weight).map(|((t, i), w)| w * (t - i).abs()).sum();

        // Reference LP: min Σ w δ, δ ≥ ±(t̂ − ideal), timing constraints.
        let mut obj = vec![0.0; n];
        obj.extend(weight.iter().cloned());
        let mut lp = LpProblem::minimize(obj);
        for j in 0..n {
            lp.set_free(j);
        }
        let idx = |id| g.flip_flops().binary_search(&id).unwrap();
        for p in g.pairs() {
            let (i, j) = (idx(p.from), idx(p.to));
            lp.add_row(RowKind::Le, p.skew_upper(&tech) - m, &[(i, 1.0), (j, -1.0)]);
            lp.add_row(RowKind::Le, -(p.skew_lower(&tech) + m), &[(i, -1.0), (j, 1.0)]);
        }
        for (i, &t_ideal) in ideal.iter().enumerate() {
            // t̂_i − δ_i ≤ ideal_i and −t̂_i − δ_i ≤ −ideal_i
            lp.add_row(RowKind::Le, t_ideal, &[(i, 1.0), (n + i, -1.0)]);
            lp.add_row(RowKind::Le, -t_ideal, &[(i, -1.0), (n + i, -1.0)]);
        }
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (dual_obj - sol.objective).abs() < 0.05 * sol.objective.abs().max(0.1),
            "dual {} vs LP {}",
            dual_obj,
            sol.objective
        );
    }

    #[test]
    fn duplicate_probe_replays_memoized_distances() {
        // A repeated call at identical parameters is a warm re-solve that
        // finds no changed pair: the carried basis is already optimal, so
        // it runs zero pivots and returns a bit-identical schedule with no
        // delta anywhere.
        let c = pipeline(5);
        let tech = Technology::default();
        let g = graph(&c);
        let n = g.flip_flops().len();
        let ideal: Vec<f64> = (0..n).map(|i| 0.05 + 0.13 * i as f64).collect();
        let weight: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut ctx = SkewContext::new();
        let (first, _) = weighted_schedule_ctx(&g, &tech, &ideal, &weight, 0.01, &mut ctx);
        let (second, stats) = weighted_schedule_ctx(&g, &tech, &ideal, &weight, 0.01, &mut ctx);
        for (a, b) in first.targets.iter().zip(&second.targets) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(stats.delta_arcs, 0, "nothing changed, nothing replayed");
        assert_eq!(stats.rounds, 0, "an unchanged carried basis needs no pivot");

        // A different parameter re-solves from the carried state.
        let moved: Vec<f64> = ideal.iter().map(|t| t + 0.02).collect();
        let (third, _) = weighted_schedule_ctx(&g, &tech, &moved, &weight, 0.01, &mut ctx);
        assert!(g.check_schedule(&third.targets, &tech, 0.01 - 1e-6, 1e-5).is_none());
    }

    #[test]
    fn weighted_schedule_with_zero_weights_is_still_feasible() {
        let c = pipeline(4);
        let tech = Technology::default();
        let g = graph(&c);
        let n = g.flip_flops().len();
        let s = weighted_schedule(&g, &tech, &vec![0.3; n], &vec![0.0; n], 0.0);
        assert!(g.check_schedule(&s.targets, &tech, 0.0, 1e-5).is_none());
    }

    #[test]
    fn empty_graph_yields_zero_schedule() {
        let mut c = Circuit::new("lonely", Rect::from_size(100.0, 100.0));
        c.add_cell(cell(CellKind::FlipFlop), Point::new(10.0, 10.0));
        let tech = Technology::default();
        let g = graph(&c);
        let s = max_slack_schedule(&g, &tech);
        assert_eq!(s.targets, vec![0.0]);
    }
}
