//! From-scratch optimization kernels used by the rotary-clocking flow.
//!
//! The paper relies on three external solvers: Soplex for linear programs,
//! a generic public-domain ILP solver (GLPK) for the Table I comparison, and
//! a min-cost network-flow code for flip-flop assignment. None of these are
//! available as offline Rust bindings, so this crate implements the needed
//! kernels directly:
//!
//! * [`sparse`] — the shared sparse linear-algebra layer: CSR matrices,
//!   left-looking sparse LU with partial pivoting, and the eta-updated
//!   [`sparse::BasisFactorization`] the simplex runs on.
//! * [`graph`] — the shared shortest-path kernel: SPFA (queue-based
//!   Bellman–Ford) with amortized negative-cycle detection, used by
//!   [`difference`], [`mcmf`] and the skew scheduler in `rotary-core`.
//! * [`lp`] — a two-phase (Big-M) revised primal simplex with a sparse LU
//!   basis factorization, sparse columns, Bland anti-cycling fallback and
//!   periodic refactorization. Full Dantzig pricing and optimal-basis
//!   warm starts for the structurally identical re-solves of the flow
//!   loop. Exact enough for every LP the flow solves (assignment LP
//!   relaxations and small skew LPs).
//! * [`par`] — deterministic scoped-thread fan-out ([`par::par_map`])
//!   shared by the pricing scan here and the tapping kernels in
//!   `rotary-core`.
//! * [`mcmf`] — min-cost max-flow via successive shortest paths with
//!   Johnson potentials, the one-shot `f64` min-cost *circulation*
//!   reference, the incremental stage-3 transportation engine, and the
//!   primal network simplex [`mcmf::Circulation`] the flow runs for the
//!   weighted-sum skew optimization dual (warm re-solves resume from the
//!   carried spanning-tree basis).
//! * [`difference`] — feasibility and optimization of difference-constraint
//!   systems (`y_i − y_j ≤ b_ij`) via shortest paths; the graph-based
//!   engine behind max-slack and minimax skew scheduling.
//! * [`ilp`] — LP-based best-first branch & bound with a wall-clock budget,
//!   standing in for the paper's time-bounded generic ILP solver.
//! * [`rounding`] — the paper's greedy rounding procedure (Fig. 5).
//!
//! # Examples
//!
//! ```
//! use rotary_solver::lp::{LpProblem, LpStatus, RowKind};
//!
//! // minimize  -x - 2y  s.t.  x + y ≤ 4,  y ≤ 3,  x,y ≥ 0
//! let mut lp = LpProblem::minimize(vec![-1.0, -2.0]);
//! lp.add_row(RowKind::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
//! lp.add_row(RowKind::Le, 3.0, &[(1, 1.0)]);
//! let sol = lp.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - (-7.0)).abs() < 1e-7); // x=1, y=3
//! ```

pub mod difference;
pub mod graph;
pub mod ilp;
pub mod lp;
pub mod mcmf;
pub mod par;
pub mod rounding;
pub mod sparse;

pub use difference::{DifferenceSystem, ParametricSystem};
pub use graph::{RelaxOutcome, ShortestPaths, SpfaGraph, SpfaResult, WarmSpfa};
pub use ilp::{BranchAndBound, IlpOutcome};
pub use lp::{LpBasis, LpProblem, LpSolution, LpStatus, RowKind};
pub use mcmf::{
    ArcId, Circulation, CirculationStats, FlowNetwork, NodeId, Transportation,
    TransportationInfeasible, TransportationStats,
};
pub use par::{default_max_threads, par_map, par_map_with, ParConfig};
pub use rounding::{greedy_round, greedy_round_loaded, greedy_round_loaded_rescan};
pub use sparse::{BasisFactorization, CsrMatrix, SparseLu};
