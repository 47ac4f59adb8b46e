//! Structured per-stage instrumentation of the Fig. 3 flow.
//!
//! Every pass through a stage of [`crate::flow::Flow::run`] appends one
//! [`StageRecord`] — wall time, dominant problem size, and inner solver
//! iterations — to a [`FlowTelemetry`]. Recording is scope-based: a stage
//! opens a [`StageScope`] (which starts the clock), annotates it while the
//! work runs, and the record is pushed when the scope drops. The aggregate
//! views [`FlowTelemetry::stage_seconds`] / [`FlowTelemetry::placer_seconds`]
//! reproduce the two scalar timers the flow used to expose, so existing
//! consumers (the benchmark tables) keep their split of "optimization" vs
//! "placement" time.
//!
//! [`FlowTelemetry::to_json`] serializes the whole log without any external
//! dependency, for the `tables` binary's `BENCH_flow.json` dump.

use std::fmt;
use std::time::Instant;

/// The six stages of the paper's Fig. 3 methodology, plus the one-off
/// clock-period search that runs before the first stage-2 pass (recorded
/// separately so its cost is not misattributed to skew optimization; it
/// shares stage 2's Fig. 3 number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1: initial wirelength-driven placement.
    InitialPlacement,
    /// One-off minimum-feasible-period search after the initial placement
    /// (the rings' period is fixed hardware; found once, before the loop).
    PeriodSearch,
    /// Stage 2: max-slack skew optimization.
    SkewOptimization,
    /// Stage 3: tapping-candidate generation + flip-flop-to-ring assignment.
    Assignment,
    /// Stage 4: cost-driven skew optimization (minimax or weighted).
    CostDrivenSkew,
    /// Stage 5: tap solution + cost evaluation.
    Evaluation,
    /// Stage 6: pseudo-net insertion + incremental placement.
    IncrementalPlacement,
}

/// All stages, in Fig. 3 order (the period search sits between stages 1
/// and 2, where it runs).
pub const STAGES: [Stage; 7] = [
    Stage::InitialPlacement,
    Stage::PeriodSearch,
    Stage::SkewOptimization,
    Stage::Assignment,
    Stage::CostDrivenSkew,
    Stage::Evaluation,
    Stage::IncrementalPlacement,
];

impl Stage {
    /// The stage's number in Fig. 3 (1–6; the period search belongs to the
    /// stage-2 family).
    pub fn number(self) -> usize {
        match self {
            Stage::InitialPlacement => 1,
            Stage::PeriodSearch | Stage::SkewOptimization => 2,
            Stage::Assignment => 3,
            Stage::CostDrivenSkew => 4,
            Stage::Evaluation => 5,
            Stage::IncrementalPlacement => 6,
        }
    }

    /// Position in [`STAGES`] (the rollup index).
    fn index(self) -> usize {
        match self {
            Stage::InitialPlacement => 0,
            Stage::PeriodSearch => 1,
            Stage::SkewOptimization => 2,
            Stage::Assignment => 3,
            Stage::CostDrivenSkew => 4,
            Stage::Evaluation => 5,
            Stage::IncrementalPlacement => 6,
        }
    }

    /// Stable snake_case name (used as the JSON identifier).
    pub fn name(self) -> &'static str {
        match self {
            Stage::InitialPlacement => "initial_placement",
            Stage::PeriodSearch => "period_search",
            Stage::SkewOptimization => "skew_optimization",
            Stage::Assignment => "assignment",
            Stage::CostDrivenSkew => "cost_driven_skew",
            Stage::Evaluation => "evaluation",
            Stage::IncrementalPlacement => "incremental_placement",
        }
    }

    /// Whether this stage is placement work (stages 1 and 6). The
    /// complement (stages 2–5) is the optimization pipeline proper.
    pub fn is_placer(self) -> bool {
        matches!(self, Stage::InitialPlacement | Stage::IncrementalPlacement)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One pass through one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Which stage ran.
    pub stage: Stage,
    /// Flow iteration the pass belongs to (0-based; stage 1 always 0).
    pub iteration: usize,
    /// Wall time of the pass, seconds.
    pub seconds: f64,
    /// Dominant problem size: cells placed, constraints solved, candidate
    /// arcs generated, flip-flops tapped, or pseudo-nets inserted.
    pub problem_size: usize,
    /// Inner solver iterations: simplex pivots, feasibility solves,
    /// augmenting paths, or canceled cycles. Zero for non-solver stages.
    pub solver_iterations: usize,
    /// Work units served from a cross-iteration cache instead of being
    /// recomputed (e.g. candidate ring lists reused by stage 3, LP columns
    /// a carried simplex basis mapped by stable key, flow-arc pairs the
    /// transportation engine carried untouched across the rebind,
    /// constraint arcs a delta-rebound parametric engine did not have to
    /// re-examine, or — stage 4 — the spanning-tree arcs of the carried
    /// network-simplex basis that warm circulation solves resumed from).
    /// Zero for stages without a cache.
    pub reused_work: usize,
    /// Constraint arcs (stage 2), LP columns (stage 3, eq. 3 route),
    /// flow-arc pairs (stage 3, network-flow route), or circulation arc
    /// pairs (stage 4) whose bounds, caps, costs, or existence actually
    /// changed when a persistent solver engine was re-targeted at this
    /// pass's system — the delta the incremental path replays. Zero for
    /// stages without such an engine.
    pub delta_arcs: usize,
    /// Distinct variables whose labels moved during this pass's
    /// relaxations — the affected region the delta seeding propagated
    /// through; for stage 3 the pivots the warm-started simplex spent
    /// reaching the new optimum (eq. 3 route) or the distinct network
    /// nodes the transportation rebind touched (network-flow route); for
    /// stage 4 the distinct endpoints of the changed circulation pairs.
    /// Zero for stages without relaxation solves.
    pub affected_vertices: usize,
    /// Stage 4: network-simplex pivots of this pass's circulation solves,
    /// degenerate pivots and bound flips included. Zero for other stages.
    pub rounds: usize,
    /// Stage 4: non-degenerate pivots (those that moved flow around their
    /// cycle); `paths / rounds` is the non-degenerate share. Zero for
    /// other stages.
    pub paths: usize,
    /// Always 0. The network simplex has no multi-path rounds; the field
    /// keeps the record schema stable.
    pub max_plateau: usize,
    /// Label of the solver backend that served this pass (stage 4: the
    /// circulation engine `"network-simplex"`; stage 3 on the eq. 3
    /// route: `"lp-cold"`, `"lp-warm"`, or `"lp-dual-repair"`; stage 3 on
    /// the network-flow route: the transportation engine's `"tp-cold"` or
    /// `"tp-warm"`). Empty for stages without a backend choice.
    pub backend: &'static str,
}

/// The full per-stage log of one [`crate::flow::Flow::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTelemetry {
    records: Vec<StageRecord>,
}

impl FlowTelemetry {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a timed scope for one pass through `stage`; the record is
    /// appended when the scope drops.
    pub fn stage(&mut self, stage: Stage, iteration: usize) -> StageScope<'_> {
        StageScope {
            telemetry: self,
            stage,
            iteration,
            problem_size: 0,
            solver_iterations: 0,
            reused_work: 0,
            delta_arcs: 0,
            affected_vertices: 0,
            rounds: 0,
            paths: 0,
            max_plateau: 0,
            backend: "",
            start: Instant::now(),
        }
    }

    /// All records, in completion order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Appends an already-built record (used by tests and by merges).
    pub fn push(&mut self, record: StageRecord) {
        self.records.push(record);
    }

    /// Total seconds spent in the optimization stages 2–5.
    pub fn stage_seconds(&self) -> f64 {
        self.seconds_where(|s| !s.is_placer())
    }

    /// Total seconds spent in the placement stages 1 and 6.
    pub fn placer_seconds(&self) -> f64 {
        self.seconds_where(Stage::is_placer)
    }

    /// Total wall seconds across all recorded stages.
    pub fn total_seconds(&self) -> f64 {
        self.seconds_where(|_| true)
    }

    /// Number of flow iterations the log covers.
    pub fn iterations(&self) -> usize {
        self.records.iter().map(|r| r.iteration + 1).max().unwrap_or(0)
    }

    /// Per-stage rollup in Fig. 3 order: `(stage, seconds, passes,
    /// solver_iterations)`. Stages that never ran report zeros.
    pub fn totals_by_stage(&self) -> [(Stage, f64, usize, usize); 7] {
        let mut out = STAGES.map(|s| (s, 0.0, 0usize, 0usize));
        for r in &self.records {
            let slot = &mut out[r.stage.index()];
            slot.1 += r.seconds;
            slot.2 += 1;
            slot.3 += r.solver_iterations;
        }
        out
    }

    /// Per-stage warm-start rollup in Fig. 3 order: `(stage, reused_work,
    /// delta_arcs, affected_vertices)`. Stages that never ran (or carry no
    /// engine) report zeros.
    pub fn reuse_by_stage(&self) -> [(Stage, usize, usize, usize); 7] {
        let mut out = STAGES.map(|s| (s, 0usize, 0usize, 0usize));
        for r in &self.records {
            let slot = &mut out[r.stage.index()];
            slot.1 += r.reused_work;
            slot.2 += r.delta_arcs;
            slot.3 += r.affected_vertices;
        }
        out
    }

    fn seconds_where(&self, pred: impl Fn(Stage) -> bool) -> f64 {
        self.records.iter().filter(|r| pred(r.stage)).map(|r| r.seconds).sum()
    }

    /// Serializes the log as a self-contained JSON object (no external
    /// serializer: numbers via `f64`'s shortest-roundtrip `Display`,
    /// stage names are fixed identifiers, nothing needs escaping).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + 128 * self.records.len());
        s.push_str("{\n");
        s.push_str(&format!("  \"stage_seconds\": {},\n", json_f64(self.stage_seconds())));
        s.push_str(&format!("  \"placer_seconds\": {},\n", json_f64(self.placer_seconds())));
        s.push_str(&format!("  \"iterations\": {},\n", self.iterations()));
        s.push_str("  \"records\": [\n");
        for (k, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"stage\": \"{}\", \"fig3_stage\": {}, \"iteration\": {}, \
                 \"seconds\": {}, \"problem_size\": {}, \"solver_iterations\": {}, \
                 \"reused_work\": {}, \"delta_arcs\": {}, \"affected_vertices\": {}, \
                 \"rounds\": {}, \"paths\": {}, \"max_plateau\": {}, \
                 \"backend\": \"{}\"}}{}\n",
                r.stage.name(),
                r.stage.number(),
                r.iteration,
                json_f64(r.seconds),
                r.problem_size,
                r.solver_iterations,
                r.reused_work,
                r.delta_arcs,
                r.affected_vertices,
                r.rounds,
                r.paths,
                r.max_plateau,
                r.backend,
                if k + 1 < self.records.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// JSON-safe float: finite values print via `Display` (shortest roundtrip),
/// non-finite values (not produced by timers, but cheap to guard) as null.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Live recording handle for one stage pass; see [`FlowTelemetry::stage`].
pub struct StageScope<'a> {
    telemetry: &'a mut FlowTelemetry,
    stage: Stage,
    iteration: usize,
    problem_size: usize,
    solver_iterations: usize,
    reused_work: usize,
    delta_arcs: usize,
    affected_vertices: usize,
    rounds: usize,
    paths: usize,
    max_plateau: usize,
    backend: &'static str,
    start: Instant,
}

impl StageScope<'_> {
    /// Sets the pass's dominant problem size.
    pub fn set_problem_size(&mut self, size: usize) {
        self.problem_size = size;
    }

    /// Accumulates inner solver iterations attributed to this pass.
    pub fn add_solver_iterations(&mut self, iters: usize) {
        self.solver_iterations += iters;
    }

    /// Records work units this pass served from a cache instead of
    /// recomputing.
    pub fn set_reused_work(&mut self, reused: usize) {
        self.reused_work = reused;
    }

    /// Accumulates bound deltas replayed into a persistent solver engine.
    pub fn add_delta_arcs(&mut self, arcs: usize) {
        self.delta_arcs += arcs;
    }

    /// Accumulates the affected-region sizes of this pass's relaxations.
    pub fn add_affected_vertices(&mut self, vertices: usize) {
        self.affected_vertices += vertices;
    }

    /// Accumulates circulation pivots attributed to this pass.
    pub fn add_rounds(&mut self, rounds: usize) {
        self.rounds += rounds;
    }

    /// Accumulates non-degenerate circulation pivots attributed to this
    /// pass.
    pub fn add_paths(&mut self, paths: usize) {
        self.paths += paths;
    }

    /// Raises the pass's widest-round watermark (max, not sum).
    pub fn note_max_plateau(&mut self, width: usize) {
        self.max_plateau = self.max_plateau.max(width);
    }

    /// Records the solver backend label that served this pass.
    pub fn set_backend(&mut self, backend: &'static str) {
        self.backend = backend;
    }

    /// Ends the scope now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for StageScope<'_> {
    fn drop(&mut self) {
        self.telemetry.records.push(StageRecord {
            stage: self.stage,
            iteration: self.iteration,
            seconds: self.start.elapsed().as_secs_f64(),
            problem_size: self.problem_size,
            solver_iterations: self.solver_iterations,
            reused_work: self.reused_work,
            delta_arcs: self.delta_arcs,
            affected_vertices: self.affected_vertices,
            rounds: self.rounds,
            paths: self.paths,
            max_plateau: self.max_plateau,
            backend: self.backend,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stage: Stage, iteration: usize, seconds: f64) -> StageRecord {
        StageRecord {
            stage,
            iteration,
            seconds,
            problem_size: 10,
            solver_iterations: 3,
            reused_work: 0,
            delta_arcs: 0,
            affected_vertices: 0,
            rounds: 0,
            paths: 0,
            max_plateau: 0,
            backend: "",
        }
    }

    #[test]
    fn scope_records_on_drop() {
        let mut t = FlowTelemetry::new();
        {
            let mut scope = t.stage(Stage::Assignment, 2);
            scope.set_problem_size(77);
            scope.add_solver_iterations(5);
            scope.add_solver_iterations(2);
            scope.set_reused_work(13);
            scope.add_delta_arcs(4);
            scope.add_delta_arcs(6);
            scope.add_affected_vertices(21);
            scope.add_rounds(9);
            scope.add_rounds(2);
            scope.add_paths(40);
            scope.note_max_plateau(6);
            scope.note_max_plateau(4);
            scope.set_backend("network-simplex");
        }
        assert_eq!(t.records().len(), 1);
        let r = t.records()[0];
        assert_eq!(r.stage, Stage::Assignment);
        assert_eq!(r.iteration, 2);
        assert_eq!(r.problem_size, 77);
        assert_eq!(r.solver_iterations, 7);
        assert_eq!(r.reused_work, 13);
        assert_eq!(r.delta_arcs, 10);
        assert_eq!(r.affected_vertices, 21);
        assert_eq!(r.rounds, 11);
        assert_eq!(r.paths, 40);
        assert_eq!(r.max_plateau, 6, "plateau watermark is a max, not a sum");
        assert_eq!(r.backend, "network-simplex");
        assert!(r.seconds >= 0.0);
    }

    #[test]
    fn aggregates_split_placer_from_optimizer() {
        let mut t = FlowTelemetry::new();
        t.push(record(Stage::InitialPlacement, 0, 1.0));
        t.push(record(Stage::SkewOptimization, 0, 2.0));
        t.push(record(Stage::CostDrivenSkew, 0, 4.0));
        t.push(record(Stage::IncrementalPlacement, 0, 8.0));
        assert!((t.placer_seconds() - 9.0).abs() < 1e-12);
        assert!((t.stage_seconds() - 6.0).abs() < 1e-12);
        assert!((t.total_seconds() - 15.0).abs() < 1e-12);
        assert_eq!(t.iterations(), 1);
    }

    #[test]
    fn totals_by_stage_rolls_up_passes() {
        let mut t = FlowTelemetry::new();
        t.push(record(Stage::Evaluation, 0, 1.0));
        t.push(record(Stage::Evaluation, 1, 2.0));
        let totals = t.totals_by_stage();
        let eval = totals[Stage::Evaluation.index()];
        assert_eq!(eval.0, Stage::Evaluation);
        assert!((eval.1 - 3.0).abs() < 1e-12);
        assert_eq!(eval.2, 2);
        assert_eq!(eval.3, 6);
        assert_eq!(totals[0].2, 0, "initial placement never ran");
        assert_eq!(t.iterations(), 2);
    }

    #[test]
    fn reuse_by_stage_rolls_up_warm_start_fields() {
        let mut t = FlowTelemetry::new();
        let mut a = record(Stage::SkewOptimization, 0, 1.0);
        a.reused_work = 100;
        a.delta_arcs = 7;
        a.affected_vertices = 30;
        let mut b = record(Stage::SkewOptimization, 1, 1.0);
        b.reused_work = 50;
        b.delta_arcs = 3;
        b.affected_vertices = 12;
        t.push(a);
        t.push(b);
        let rollup = t.reuse_by_stage();
        let s2 = rollup[2];
        assert_eq!(s2.0, Stage::SkewOptimization);
        assert_eq!((s2.1, s2.2, s2.3), (150, 10, 42));
        assert_eq!(rollup[4].1, 0, "stage 4 never ran");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut t = FlowTelemetry::new();
        t.push(record(Stage::InitialPlacement, 0, 0.25));
        let mut s4 = record(Stage::SkewOptimization, 0, 0.5);
        s4.backend = "network-simplex";
        t.push(s4);
        let json = t.to_json();
        assert!(json.contains("\"stage\": \"initial_placement\""));
        assert!(json.contains("\"fig3_stage\": 2"));
        assert!(json.contains("\"stage_seconds\": 0.5"));
        assert!(json.contains("\"placer_seconds\": 0.25"));
        assert!(json.contains("\"iterations\": 1"));
        assert!(json.contains("\"delta_arcs\": 0"));
        assert!(json.contains("\"affected_vertices\": 0"));
        assert!(json.contains("\"rounds\": 0"));
        assert!(json.contains("\"paths\": 0"));
        assert!(json.contains("\"max_plateau\": 0"));
        assert!(json.contains("\"backend\": \"\""), "no-backend stages serialize empty");
        assert!(json.contains("\"backend\": \"network-simplex\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count(),);
        // Exactly one separating comma between the two records.
        assert_eq!(json.matches("}},\n").count() + json.matches("},\n").count(), 1);
    }

    #[test]
    fn stage_metadata_is_consistent() {
        // Fig. 3 numbers are non-decreasing along STAGES and cover 1–6;
        // rollup indices are exactly the array positions.
        let numbers: Vec<usize> = STAGES.iter().map(|s| s.number()).collect();
        assert_eq!(numbers, vec![1, 2, 2, 3, 4, 5, 6]);
        for (k, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), k);
        }
        assert!(Stage::InitialPlacement.is_placer());
        assert!(Stage::IncrementalPlacement.is_placer());
        assert!(!Stage::Assignment.is_placer());
        assert!(!Stage::PeriodSearch.is_placer(), "period search is solver work");
        assert_eq!(Stage::CostDrivenSkew.to_string(), "cost_driven_skew");
        assert_eq!(Stage::PeriodSearch.to_string(), "period_search");
    }
}
