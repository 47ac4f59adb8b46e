//! Revised primal simplex on a sparse LU basis factorization.
//!
//! Design point: the LPs this workspace solves have **few rows**
//! (one per flip-flop plus one per ring, ≈ 1 800 for the largest benchmark)
//! but may have many sparse columns (one per candidate flip-flop/ring arc),
//! and every basis is extremely sparse (slacks, artificials, and assignment
//! columns with a handful of entries). The basis is therefore kept as a
//! [`crate::sparse::BasisFactorization`]: sparse LU with partial pivoting,
//! product-form eta updates per pivot, and periodic refactorization to
//! bound eta-chain length and numerical drift. FTRAN/BTRAN cost tracks the
//! basis nonzero count instead of the `O(m²)` per-pivot work of the dense
//! `m × m` inverse this module used to maintain. Bland's rule remains the
//! anti-cycling fallback when degeneracy stalls progress.
//!
//! Pricing is the classic full Dantzig scan: every nonbasic column is
//! priced every iteration and the most negative reduced cost enters. The
//! assignment relaxations carry ~2 nonzeros per column, so the scan is
//! nearly free and the globally best entering column keeps the pivot path
//! short. Reduced-cost evaluation fans out over
//! [`crate::par::par_map_with`] chunks, which keeps the scan deterministic
//! regardless of thread count.
//!
//! Warm starts: [`LpProblem::solve_with_basis`] accepts the optimal basis
//! of a previous solve ([`LpBasis`]) and refactorizes it on the new
//! coefficients instead of starting from the all-artificial basis — the
//! flow re-solves the same assignment LP every iteration with slowly
//! moving tapping loads, so most re-solves finish in a handful of pivots.
//! Two warm shapes are supported:
//!
//! * **Structurally identical** problems (same rows, same columns,
//!   coefficients may move): the basis columns are reused by index.
//! * **Keyed** problems ([`LpProblem::set_col_keys`] /
//!   [`LpProblem::set_row_keys`]): every column and row carries a stable
//!   caller-supplied identity, and the basis is stored as keyed *slots*.
//!   Columns may be added, dropped, or reordered between solves — slots
//!   whose key survives are remapped, dropped slots are replaced with
//!   artificials of uncovered rows.
//!
//! Either way, the refactored basis is triaged: if its basic solution is
//! primal feasible, the primal simplex continues from it directly; if it
//! is primal infeasible but **dual feasible** (the common case after a
//! pure cost/rhs drift — reduced costs are untouched by rhs moves), a
//! **dual-simplex repair phase** drives the negative basic values out and
//! hands the restored-feasible basis to the primal loop; if it is neither,
//! the solve falls back to the cold all-artificial start (the primal
//! big-M phase-1 is the repair of last resort). When the problem reports
//! `Optimal`, the returned solution is extracted *canonically*: the final
//! basis is sorted and factored fresh, so the primal values depend only on
//! (problem data, final basis set) and not on the pivot path — a
//! warm-started solve that lands on the same optimal basis as a cold
//! solve reproduces its solution to the bit.
//!
//! Infeasibility/unboundedness are detected via the Big-M composite
//! objective: artificial variables receive cost `M` scaled far above any
//! structural cost.

use crate::par::{par_map_with, ParConfig};
use crate::sparse::{BasisFactorization, CsrMatrix, SparseLu};
use serde::{Deserialize, Serialize};

/// Constraint sense of an LP row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowKind {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration limit hit before convergence (solution is the incumbent).
    IterationLimit,
    /// The basis went numerically singular and could not be refactorized —
    /// progress is impossible; the solution is the last incumbent. Distinct
    /// from [`LpStatus::IterationLimit`] so callers can tell "ran out of
    /// budget" from "the arithmetic broke down".
    NumericalBreakdown,
}

/// An optimal simplex basis in canonical (sorted) form, as returned by
/// [`LpProblem::solve_with_basis`]. Opaque to callers; feed it back into a
/// later solve to warm-start it. For unkeyed problems the later solve must
/// be *structurally identical* (same rows, same columns, coefficients may
/// move); for keyed problems ([`LpProblem::set_col_keys`]) the basis is
/// carried as stable-key slots and survives added/dropped/reordered
/// columns. A basis that no longer factors, or is neither primal nor dual
/// feasible on the new coefficients, is silently discarded and the solve
/// falls back to a cold start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpBasis {
    cols: Vec<usize>,
    /// Keyed identity of each basis column, parallel to `cols`; empty for
    /// bases of unkeyed problems.
    slots: Vec<BasisSlot>,
}

impl LpBasis {
    /// Number of rows the basis spans.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// A caller-constructed *crash* basis for a keyed problem: the listed
    /// structural columns (by `(col_key, negated)` identity) plus the
    /// slack columns of the listed rows (by row key). Slots that do not
    /// resolve against the target problem are dropped and filled as
    /// usual; the basis carries no positional information, so it is only
    /// meaningful to solves whose problem is keyed.
    ///
    /// The intended use is seeding a re-solve from a known-feasible
    /// *solution* when the previous optimal basis is too far from the new
    /// optimum to repair cheaply — e.g. assignment after large placement
    /// drift: one column per flip-flop (its incumbent ring), the makespan
    /// column, and the slack of every ring-load row except the tightest
    /// gives a primal-feasible vertex, so the solve skips the big-M
    /// feasibility phase entirely.
    pub fn crash(
        structural: impl IntoIterator<Item = (u64, bool)>,
        slack_rows: impl IntoIterator<Item = u64>,
    ) -> Self {
        let slots: Vec<BasisSlot> = structural
            .into_iter()
            .map(|(key, neg)| BasisSlot::Structural { key, neg })
            .chain(slack_rows.into_iter().map(|row_key| BasisSlot::Slack { row_key }))
            .collect();
        Self { cols: Vec::new(), slots }
    }
}

/// Stable identity of one basis column of a keyed problem, resolvable
/// against a later problem whose column/row sets have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BasisSlot {
    /// A structural column: the caller's column key, plus which half of a
    /// free variable's `±` split it is.
    Structural { key: u64, neg: bool },
    /// The slack/surplus column of the row with this key.
    Slack { row_key: u64 },
    /// The artificial column of the row with this key.
    Artificial { row_key: u64 },
}

/// How a [`LpProblem::solve_with_basis_stats`] call actually started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// No usable warm basis: the solve ran from the all-artificial start.
    #[default]
    Cold,
    /// The warm basis was primal feasible on the new coefficients; the
    /// primal simplex continued from it directly.
    Primal,
    /// The warm basis was primal infeasible but dual feasible; the
    /// dual-simplex repair phase restored primal feasibility before the
    /// primal loop took over.
    DualRepair,
}

/// Warm-start telemetry of one [`LpProblem::solve_with_basis_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpWarmStats {
    /// Which start the solve actually used (after triage and fallbacks).
    pub mode: WarmMode,
    /// Warm-basis slots that resolved to a column of this problem (keyed
    /// resolution) or were reused by index (unkeyed).
    pub mapped_columns: usize,
    /// Warm-basis slots whose key no longer exists in this problem; each
    /// was replaced by an artificial column of an uncovered row.
    pub dropped_slots: usize,
    /// Pivots spent inside the dual-simplex repair phase (also counted in
    /// [`LpSolution::iterations`]).
    pub dual_pivots: usize,
}

/// Result of [`LpProblem::solve`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Outcome status.
    pub status: LpStatus,
    /// Primal values of the structural variables (length = number of
    /// variables of the problem). Meaningful for `Optimal` and
    /// `IterationLimit`.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex iterations performed.
    pub iterations: usize,
}

/// A linear program `minimize c·x subject to rows, x ≥ 0 (or free)`.
///
/// Build with [`LpProblem::minimize`], add rows with [`LpProblem::add_row`],
/// mark free variables with [`LpProblem::set_free`], then [`LpProblem::solve`].
///
/// # Examples
///
/// ```
/// use rotary_solver::lp::{LpProblem, LpStatus, RowKind};
///
/// // minimize x + y  s.t.  x + y ≥ 2, x − y = 0
/// let mut lp = LpProblem::minimize(vec![1.0, 1.0]);
/// lp.add_row(RowKind::Ge, 2.0, &[(0, 1.0), (1, 1.0)]);
/// lp.add_row(RowKind::Eq, 0.0, &[(0, 1.0), (1, -1.0)]);
/// let s = lp.solve();
/// assert_eq!(s.status, LpStatus::Optimal);
/// assert!((s.x[0] - 1.0).abs() < 1e-7 && (s.x[1] - 1.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    obj: Vec<f64>,
    free: Vec<bool>,
    rows: Vec<(RowKind, f64)>,
    /// Column-sparse structural coefficients: `cols[j] = [(row, coeff)]`.
    cols: Vec<Vec<(usize, f64)>>,
    max_iters: usize,
    par: ParConfig,
    /// Stable caller-supplied column identities (empty = unkeyed).
    col_keys: Vec<u64>,
    /// Stable caller-supplied row identities (empty = unkeyed).
    row_keys: Vec<u64>,
}

impl LpProblem {
    /// Creates a minimization problem with the given objective vector; all
    /// variables default to `x_j ≥ 0`.
    pub fn minimize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        Self {
            obj: objective,
            free: vec![false; n],
            rows: Vec::new(),
            cols: vec![Vec::new(); n],
            max_iters: 200_000,
            par: ParConfig::fine_grained(),
            col_keys: Vec::new(),
            row_keys: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Declares variable `j` free (unrestricted in sign).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn set_free(&mut self, j: usize) {
        self.free[j] = true;
    }

    /// Caps the number of simplex iterations (default 200 000).
    pub fn set_iteration_limit(&mut self, limit: usize) {
        self.max_iters = limit;
    }

    /// Overrides the fan-out thresholds of the pricing scan (default
    /// [`ParConfig::fine_grained`] — the per-column work is a short dot
    /// product, so fanning out only pays off for very wide scans).
    pub fn set_par_config(&mut self, par: ParConfig) {
        self.par = par;
    }

    /// Adds a row `Σ coeffs · x {≤,=,≥} rhs` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range.
    pub fn add_row(&mut self, kind: RowKind, rhs: f64, coeffs: &[(usize, f64)]) -> usize {
        // Rows added after keying (e.g. branch-and-bound bound cuts on a
        // cloned relaxation) have no caller identity; keying no longer
        // describes the problem, so drop it rather than warm-start wrongly.
        if !self.row_keys.is_empty() {
            self.row_keys.clear();
            self.col_keys.clear();
        }
        let r = self.rows.len();
        self.rows.push((kind, rhs));
        for &(j, a) in coeffs {
            assert!(j < self.cols.len(), "variable {j} out of range");
            if a != 0.0 {
                self.cols[j].push((r, a));
            }
        }
        r
    }

    /// Assigns a stable identity to every column, enabling basis reuse
    /// across problems whose column sets differ ([`LpBasis`]). Keys must be
    /// unique; a basis carrying duplicate keys is discarded at warm-start
    /// resolution.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not parallel to the variables.
    pub fn set_col_keys(&mut self, keys: Vec<u64>) {
        assert_eq!(keys.len(), self.obj.len(), "one key per variable");
        self.col_keys = keys;
    }

    /// Assigns a stable identity to every row added so far (call after the
    /// last [`LpProblem::add_row`]). Required alongside
    /// [`LpProblem::set_col_keys`] for keyed warm starts.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not parallel to the rows.
    pub fn set_row_keys(&mut self, keys: Vec<u64>) {
        assert_eq!(keys.len(), self.rows.len(), "one key per row");
        self.row_keys = keys;
    }

    /// Overwrites the objective coefficient of variable `j` in place —
    /// the delta-carrying path of a re-solved problem whose structure is
    /// unchanged (no rebuild, no re-keying).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn set_objective_coeff(&mut self, j: usize, c: f64) {
        self.obj[j] = c;
    }

    /// Overwrites the existing coefficient of variable `j` in `row` in
    /// place. The entry must already exist with a nonzero value (sparsity
    /// patterns are fixed once added), so a patched problem is
    /// representationally identical to a freshly built one.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist or `a` is zero.
    pub fn update_coeff(&mut self, j: usize, row: usize, a: f64) {
        assert!(a != 0.0, "cannot patch an entry to zero");
        let entry = self.cols[j]
            .iter_mut()
            .find(|e| e.0 == row)
            .expect("coefficient to patch must already exist");
        entry.1 = a;
    }

    /// Solves the LP from a cold (all-artificial) start.
    pub fn solve(&self) -> LpSolution {
        self.solve_with_basis(None).0
    }

    /// Solves the LP, optionally warm-starting from the basis of a
    /// previous solve — of a structurally identical problem, or (when the
    /// problem is keyed) of any problem sharing column/row keys. Returns
    /// the solution together with the final basis (in canonical sorted
    /// form when optimal), to be fed into the next re-solve.
    pub fn solve_with_basis(&self, warm: Option<&LpBasis>) -> (LpSolution, Option<LpBasis>) {
        let (sol, basis, _) = self.solve_with_basis_stats(warm);
        (sol, basis)
    }

    /// [`LpProblem::solve_with_basis`] plus warm-start telemetry: how the
    /// basis resolved (mapped/dropped slots) and which repair path the
    /// solve took ([`WarmMode`]).
    pub fn solve_with_basis_stats(
        &self,
        warm: Option<&LpBasis>,
    ) -> (LpSolution, Option<LpBasis>, LpWarmStats) {
        Simplex::new(self).run(warm)
    }
}

/// Internal computational form: all rows normalized to `b ≥ 0`; columns are
/// structural (with free variables split), then slack/surplus, then
/// artificial.
struct Simplex<'a> {
    problem: &'a LpProblem,
    m: usize,
    /// Column-sparse matrix including slacks and artificials.
    cols: Vec<Vec<(usize, f64)>>,
    cost: Vec<f64>,
    /// Map from internal column to (structural var, sign) if structural.
    var_of_col: Vec<Option<(usize, f64)>>,
    /// First slack/surplus column.
    slack_start: usize,
    /// Original row of each slack/surplus column, indexed by
    /// `col - slack_start`.
    slack_rows: Vec<usize>,
    artificial_start: usize,
    rhs: Vec<f64>,
}

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;

/// A validated, factored warm basis plus its triage verdict.
struct WarmStart {
    basis: Vec<usize>,
    fact: BasisFactorization,
    xb: Vec<f64>,
    mode: WarmMode,
    mapped: usize,
    dropped: usize,
}

impl<'a> Simplex<'a> {
    fn new(problem: &'a LpProblem) -> Self {
        let m = problem.rows.len();
        // Row sign normalization: multiply rows with negative rhs by −1 and
        // flip the sense.
        let mut row_sign = vec![1.0; m];
        let mut kinds: Vec<RowKind> = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (i, &(kind, b)) in problem.rows.iter().enumerate() {
            if b < 0.0 {
                row_sign[i] = -1.0;
                rhs.push(-b);
                kinds.push(match kind {
                    RowKind::Le => RowKind::Ge,
                    RowKind::Ge => RowKind::Le,
                    RowKind::Eq => RowKind::Eq,
                });
            } else {
                rhs.push(b);
                kinds.push(kind);
            }
        }

        let mut cols = Vec::new();
        let mut cost = Vec::new();
        let mut var_of_col = Vec::new();
        let mut max_abs_cost: f64 = 1.0;

        for j in 0..problem.num_vars() {
            let col: Vec<(usize, f64)> =
                problem.cols[j].iter().map(|&(r, a)| (r, a * row_sign[r])).collect();
            max_abs_cost = max_abs_cost.max(problem.obj[j].abs());
            cols.push(col.clone());
            cost.push(problem.obj[j]);
            var_of_col.push(Some((j, 1.0)));
            if problem.free[j] {
                // Negative part x⁻: column −A_j, cost −c_j.
                cols.push(col.iter().map(|&(r, a)| (r, -a)).collect());
                cost.push(-problem.obj[j]);
                var_of_col.push(Some((j, -1.0)));
            }
        }
        // Slacks / surplus.
        let slack_start = cols.len();
        let mut slack_rows = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            match kind {
                RowKind::Le => {
                    cols.push(vec![(i, 1.0)]);
                    cost.push(0.0);
                    var_of_col.push(None);
                    slack_rows.push(i);
                }
                RowKind::Ge => {
                    cols.push(vec![(i, -1.0)]);
                    cost.push(0.0);
                    var_of_col.push(None);
                    slack_rows.push(i);
                }
                RowKind::Eq => {}
            }
        }
        let artificial_start = cols.len();
        let big_m = 1e7 * max_abs_cost;
        for i in 0..m {
            cols.push(vec![(i, 1.0)]);
            cost.push(big_m);
            var_of_col.push(None);
        }

        if !problem.col_keys.is_empty() {
            assert_eq!(
                problem.row_keys.len(),
                m,
                "keyed problems need row keys alongside column keys"
            );
        }

        Self { problem, m, cols, cost, var_of_col, slack_start, slack_rows, artificial_start, rhs }
    }

    /// Reduced cost `d_j = c_j − yᵀA_j` of one column.
    fn reduced_cost(&self, y: &[f64], j: usize) -> f64 {
        let mut d = self.cost[j];
        for &(r, a) in &self.cols[j] {
            d -= y[r] * a;
        }
        d
    }

    /// Reduced costs of every column, chunk-parallel and deterministic
    /// (basic columns report 0.0, which is never improving).
    fn reduced_costs(&self, y: &[f64], in_basis: &[bool]) -> Vec<f64> {
        par_map_with(&self.problem.par, self.cols.len(), |j| {
            if in_basis[j] {
                0.0
            } else {
                self.reduced_cost(y, j)
            }
        })
    }

    /// Full Dantzig scan: most negative reduced cost below `-thr`,
    /// first-seen on ties.
    fn price_dantzig(&self, y: &[f64], in_basis: &[bool], thr: f64) -> Option<usize> {
        let ds = self.reduced_costs(y, in_basis);
        let mut enter = None;
        let mut best = -thr;
        for (j, &d) in ds.iter().enumerate() {
            if !in_basis[j] && d < best {
                best = d;
                enter = Some(j);
            }
        }
        enter
    }

    /// Bland's rule: lowest-index column pricing below `-thr` (anti-cycling).
    fn price_bland(&self, y: &[f64], in_basis: &[bool], thr: f64) -> Option<usize> {
        (0..self.cols.len()).find(|&j| !in_basis[j] && self.reduced_cost(y, j) < -thr)
    }

    /// Keyed identity of internal column `j` (requires a keyed problem).
    fn slot_of_col(&self, j: usize) -> BasisSlot {
        if let Some((v, sign)) = self.var_of_col[j] {
            BasisSlot::Structural { key: self.problem.col_keys[v], neg: sign < 0.0 }
        } else if j >= self.artificial_start {
            BasisSlot::Artificial { row_key: self.problem.row_keys[j - self.artificial_start] }
        } else {
            BasisSlot::Slack {
                row_key: self.problem.row_keys[self.slack_rows[j - self.slack_start]],
            }
        }
    }

    /// Resolves a keyed warm basis against this problem's key maps:
    /// surviving slots map to their internal column, dropped slots are
    /// replaced by artificial columns — of rows no mapped column touches
    /// first (best odds of a nonsingular basis), then of any row whose
    /// artificial is still unused. Returns `(basis, mapped, dropped)`;
    /// `None` on duplicate keys (caller bug — fall back to cold).
    fn resolve_keyed(&self, wb: &LpBasis) -> Option<(Vec<usize>, usize, usize)> {
        use std::collections::HashMap;
        let mut structural: HashMap<(u64, bool), usize> = HashMap::new();
        for (j, vo) in self.var_of_col.iter().enumerate() {
            if let Some((v, sign)) = *vo {
                let prev = structural.insert((self.problem.col_keys[v], sign < 0.0), j);
                if prev.is_some() {
                    return None;
                }
            }
        }
        let mut slack: HashMap<u64, usize> = HashMap::new();
        for (k, &row) in self.slack_rows.iter().enumerate() {
            if slack.insert(self.problem.row_keys[row], self.slack_start + k).is_some() {
                return None;
            }
        }
        let mut artificial: HashMap<u64, usize> = HashMap::new();
        for row in 0..self.m {
            if artificial.insert(self.problem.row_keys[row], self.artificial_start + row).is_some()
            {
                return None;
            }
        }

        let mut used = vec![false; self.cols.len()];
        let mut basis = Vec::with_capacity(self.m);
        let mut mapped = 0usize;
        let mut mapped_structural = 0usize;
        let mut dropped = 0usize;
        for slot in &wb.slots {
            let col = match *slot {
                BasisSlot::Structural { key, neg } => structural.get(&(key, neg)),
                BasisSlot::Slack { row_key } => slack.get(&row_key),
                BasisSlot::Artificial { row_key } => artificial.get(&row_key),
            };
            match col {
                Some(&j) if basis.len() < self.m && !std::mem::replace(&mut used[j], true) => {
                    basis.push(j);
                    mapped += 1;
                    if matches!(slot, BasisSlot::Structural { .. }) {
                        mapped_structural += 1;
                    }
                }
                _ => dropped += 1,
            }
        }
        // A basis sharing no structural column with this problem carries
        // no reusable information — the fill below would reconstruct the
        // cold slack/artificial start the long way round.
        if mapped_structural == 0 {
            return None;
        }
        // Fill the dropped slots, best nonsingular-and-dual-feasible odds
        // first: rows not touched by any mapped column get their slack
        // column when one exists (cost 0 — keeps the row's dual at zero,
        // so the repair triage can still find the basis dual feasible),
        // else their artificial; leftover slots take any unused
        // artificial.
        let mut slack_of_row = vec![None; self.m];
        for (k, &row) in self.slack_rows.iter().enumerate() {
            slack_of_row[row] = Some(self.slack_start + k);
        }
        let mut covered = vec![false; self.m];
        for &j in &basis {
            for &(r, _) in &self.cols[j] {
                covered[r] = true;
            }
        }
        for row in 0..self.m {
            if basis.len() == self.m {
                break;
            }
            if covered[row] {
                continue;
            }
            let j = match slack_of_row[row] {
                Some(s) if !used[s] => s,
                _ => self.artificial_start + row,
            };
            if !used[j] {
                used[j] = true;
                basis.push(j);
            }
        }
        for row in 0..self.m {
            if basis.len() == self.m {
                break;
            }
            let j = self.artificial_start + row;
            if !used[j] {
                used[j] = true;
                basis.push(j);
            }
        }
        Some((basis, mapped, dropped))
    }

    /// Repairs a rank-deficient mapped basis in place: a deficiency scan
    /// names the dependent basis positions and the rows left unpivoted;
    /// each dependent position is replaced by an unpivoted row's unit
    /// column (its slack when free, else its artificial), which restores
    /// full rank. Dropped columns after drift routinely leave the mapped
    /// basis singular — e.g. the chain coupling fractional flip-flops to
    /// their tight ring rows breaks — and abandoning the whole warm start
    /// over a handful of dependent columns wastes the hundreds that still
    /// map. Returns `None` if the repaired basis still fails to factor.
    fn repair_singular_basis(&self, basis: &mut [usize]) -> Option<BasisFactorization> {
        let (deficient, rows) = SparseLu::deficiency(&self.basis_transpose(basis));
        if deficient.len() != rows.len() {
            return None;
        }
        let mut used = vec![false; self.cols.len()];
        for &b in basis.iter() {
            used[b] = true;
        }
        let mut slack_of_row = vec![None; self.m];
        for (k, &row) in self.slack_rows.iter().enumerate() {
            slack_of_row[row] = Some(self.slack_start + k);
        }
        for (&pos, &row) in deficient.iter().zip(&rows) {
            let j = match slack_of_row[row] {
                Some(s) if !used[s] => s,
                _ => self.artificial_start + row,
            };
            if used[j] {
                return None;
            }
            used[j] = true;
            basis[pos] = j;
        }
        BasisFactorization::factor(&self.basis_transpose(basis))
    }

    /// Validates and factors a warm basis, then triages it: primal
    /// feasible bases start the primal simplex directly, primal-infeasible
    /// bases are flagged for the dual-simplex repair phase, and bases
    /// that do not resolve against this problem at all (`None`) fall
    /// back to the cold all-artificial start.
    fn try_warm_start(&self, wb: &LpBasis) -> Option<WarmStart> {
        let keyed = !self.problem.col_keys.is_empty() && !wb.slots.is_empty();
        let (basis, mapped, dropped) = if keyed {
            self.resolve_keyed(wb)?
        } else {
            // Unkeyed: reuse by index; requires a structurally identical
            // problem (same column universe, same row count).
            if wb.cols.len() != self.m {
                return None;
            }
            let mut seen = vec![false; self.cols.len()];
            for &b in &wb.cols {
                if b >= self.cols.len() || std::mem::replace(&mut seen[b], true) {
                    return None;
                }
            }
            (wb.cols.clone(), wb.cols.len(), 0)
        };
        let mut basis = basis;
        let fact = match BasisFactorization::factor(&self.basis_transpose(&basis)) {
            Some(f) => f,
            None => self.repair_singular_basis(&mut basis)?,
        };
        let mut xb = vec![0.0; self.m];
        fact.ftran_dense(&self.rhs, &mut xb);
        if xb.iter().all(|&v| v >= -PIVOT_EPS) {
            for v in xb.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            return Some(WarmStart { basis, fact, xb, mode: WarmMode::Primal, mapped, dropped });
        }
        // Primal infeasible: hand the basis to the dual-simplex repair.
        // Exact dual feasibility is *not* required — real drift perturbs
        // costs and the constraint matrix together, so insisting on it
        // would send every real re-solve cold. The repair's ratio test
        // clamps reduced costs at zero (slightly dual-infeasible columns
        // enter first, at ratio 0), and the primal loop that follows the
        // repair certifies optimality from whatever basis results; the
        // pivot cap bounds a pathological repair before the cold start
        // would have been cheaper.
        Some(WarmStart { basis, fact, xb, mode: WarmMode::DualRepair, mapped, dropped })
    }

    /// Dual-simplex repair: starting from a dual-feasible basis with
    /// negative basic values, pivot the most negative basic variable out
    /// against the entering column of the dual ratio test until the basic
    /// solution is primal feasible. Maintains the same eta-update /
    /// periodic-refactorization discipline as the primal loop.
    /// `Err(pivots)` means the repair was abandoned (pivot cap, numerical
    /// trouble, or a vanishing pivot element) and the caller should
    /// restart cold; `Ok(pivots)` means `xb ≥ 0` now holds.
    fn dual_repair(
        &self,
        basis: &mut [usize],
        fact: &mut BasisFactorization,
        xb: &mut [f64],
        in_basis: &mut [bool],
    ) -> Result<usize, usize> {
        let m = self.m;
        // The repair is expected to need few pivots (that is its point);
        // cap it so a pathological drift can never loop — past the cap the
        // cold big-M start is the faster path anyway.
        let cap = 2 * m + 100;
        let mut pivots = 0usize;
        let mut y = vec![0.0; m];
        let mut cb = vec![0.0; m];
        let mut er = vec![0.0; m];
        let mut rho = vec![0.0; m];
        let mut w = vec![0.0; m];
        loop {
            if fact.wants_refactor() {
                if !fact.refactor(&self.basis_transpose(basis)) {
                    return Err(pivots);
                }
                fact.ftran_dense(&self.rhs, xb);
            }
            // Leaving row: most negative basic value; ties break on the
            // smallest basic column index (deterministic).
            let mut leave: Option<usize> = None;
            let mut most = -PIVOT_EPS;
            for (i, &v) in xb.iter().enumerate() {
                if v < most - EPS
                    || (v < most + EPS
                        && v < -PIVOT_EPS
                        && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    most = v;
                    leave = Some(i);
                }
            }
            let Some(r) = leave else {
                for v in xb.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                return Ok(pivots);
            };
            if pivots >= cap {
                return Err(pivots);
            }
            pivots += 1;

            // y for reduced costs, rho = e_rᵀ·B⁻¹ for the pivot row.
            for (ci, &b) in cb.iter_mut().zip(basis.iter()) {
                *ci = self.cost[b];
            }
            fact.btran_in_place(&mut cb, &mut y);
            er.fill(0.0);
            er[r] = 1.0;
            fact.btran_in_place(&mut er, &mut rho);

            // Dual ratio test: entering column minimizes d_j / (−α_rj)
            // over nonbasic columns with α_rj < 0. The 1e-9 wirelength
            // tiebreak keeps nearly every reduced cost within clamping
            // range of zero, so ratio ties are the common case, not the
            // exception; ties break on the largest pivot magnitude |α_rj|
            // (the numerically safest pivot, and the one that fixes row
            // `r` with the least knock-on to other rows), then on the
            // smallest column index for determinism.
            let alphas = par_map_with(&self.problem.par, self.cols.len(), |j| {
                if in_basis[j] {
                    0.0
                } else {
                    self.cols[j].iter().map(|&(row, a)| rho[row] * a).sum()
                }
            });
            let mut enter: Option<usize> = None;
            let mut best = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for (j, &alpha) in alphas.iter().enumerate() {
                if in_basis[j] || alpha >= -PIVOT_EPS {
                    continue;
                }
                // Dual feasibility keeps d_j ≥ 0 up to roundoff; clamp so
                // drift cannot produce a negative ratio.
                let d = self.reduced_cost(&y, j).max(0.0);
                let ratio = d / -alpha;
                if ratio < best - EPS
                    || (ratio < best + EPS
                        && (-alpha > best_alpha + EPS
                            || (-alpha > best_alpha - EPS && enter.is_none_or(|e| j < e))))
                {
                    best = ratio;
                    best_alpha = -alpha;
                    enter = Some(j);
                }
            }
            // No eligible column ⇔ the dual is unbounded ⇔ the problem is
            // primal infeasible — impossible with big-M artificials in the
            // column universe, so treat it as numerical trouble.
            let Some(q) = enter else {
                return Err(pivots);
            };

            fact.ftran_sparse(&self.cols[q], &mut w);
            if w[r] >= -PIVOT_EPS {
                // FTRAN disagrees with the BTRAN pivot row — eta drift.
                return Err(pivots);
            }
            let theta = xb[r] / w[r];
            fact.update(r, &w);
            for i in 0..m {
                if i != r {
                    xb[i] -= w[i] * theta;
                    if xb[i] < 0.0 && xb[i] > -1e-7 {
                        xb[i] = 0.0;
                    }
                }
            }
            xb[r] = theta;
            in_basis[basis[r]] = false;
            in_basis[q] = true;
            basis[r] = q;
        }
    }

    fn run(self, warm: Option<&LpBasis>) -> (LpSolution, Option<LpBasis>, LpWarmStats) {
        let m = self.m;
        if m == 0 {
            // No constraints: optimum is 0 for x ≥ 0 with c ≥ 0, else unbounded.
            let unbounded = self
                .problem
                .obj
                .iter()
                .zip(&self.problem.free)
                .any(|(&c, &f)| c < -EPS || (f && c.abs() > EPS));
            let sol = LpSolution {
                status: if unbounded { LpStatus::Unbounded } else { LpStatus::Optimal },
                x: vec![0.0; self.problem.num_vars()],
                objective: 0.0,
                iterations: 0,
            };
            return (sol, None, LpWarmStats::default());
        }

        let cold_start = || {
            let basis: Vec<usize> = (self.artificial_start..self.artificial_start + m).collect();
            let fact = BasisFactorization::factor(&self.basis_transpose(&basis))
                .expect("identity start basis factors");
            (basis, fact, self.rhs.clone())
        };

        // Start basis: the previous optimal basis when a usable warm basis
        // is supplied, otherwise the artificials (an identity matrix,
        // which trivially factors).
        let mut stats = LpWarmStats::default();
        let (mut basis, mut fact, mut xb) = match warm.and_then(|wb| self.try_warm_start(wb)) {
            Some(ws) => {
                stats.mode = ws.mode;
                stats.mapped_columns = ws.mapped;
                stats.dropped_slots = ws.dropped;
                (ws.basis, ws.fact, ws.xb)
            }
            None => cold_start(),
        };
        let mut in_basis = vec![false; self.cols.len()];
        for &b in &basis {
            in_basis[b] = true;
        }

        let mut iterations = 0usize;

        // Dual-simplex repair: restore primal feasibility from the
        // dual-feasible warm basis; an abandoned repair restarts cold
        // (its pivots stay counted — they were spent).
        if stats.mode == WarmMode::DualRepair {
            match self.dual_repair(&mut basis, &mut fact, &mut xb, &mut in_basis) {
                Ok(pivots) => {
                    stats.dual_pivots = pivots;
                    iterations += pivots;
                }
                Err(pivots) => {
                    stats.mode = WarmMode::Cold;
                    stats.dual_pivots = pivots;
                    iterations += pivots;
                    (basis, fact, xb) = cold_start();
                    in_basis.fill(false);
                    for &b in &basis {
                        in_basis[b] = true;
                    }
                }
            }
        }

        let mut degenerate_streak = 0usize;
        let mut status = LpStatus::Optimal;
        // Tiebreak polish: once no column prices below the classic
        // `PIVOT_EPS` threshold, keep pivoting on columns pricing below
        // `EPS`. The assignment LPs carry a `1e-9`-scaled wirelength
        // tiebreak whose reduced costs sit *inside* the `(−PIVOT_EPS, −EPS)`
        // band, so the classic stop leaves the vertex within the optimal
        // face path-dependent — a warm start would then terminate on a
        // different (equally max-load-optimal) vertex than a cold solve.
        // Dantzig picks the most negative column, so lowering only the
        // termination threshold extends the pivot path without reordering
        // it: the classic path is a prefix, and both cold and warm runs
        // continue to the unique EPS-optimal vertex.
        let mut polishing = false;

        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut cb = vec![0.0; m];

        loop {
            if iterations >= self.problem.max_iters {
                status = LpStatus::IterationLimit;
                break;
            }
            iterations += 1;
            if fact.wants_refactor() {
                if !fact.refactor(&self.basis_transpose(&basis)) {
                    // Singular basis due to drift — no way to continue.
                    status = LpStatus::NumericalBreakdown;
                    break;
                }
                fact.ftran_dense(&self.rhs, &mut xb);
            }

            // BTRAN: y solves yᵀB = c_Bᵀ.
            for (ci, &b) in cb.iter_mut().zip(&basis) {
                *ci = self.cost[b];
            }
            fact.btran_in_place(&mut cb, &mut y);

            // Pricing: Dantzig, or Bland's rule once degeneracy stalls.
            let use_bland = degenerate_streak > 2 * m + 20;
            let thr = if polishing { EPS } else { PIVOT_EPS };
            let enter = if use_bland {
                self.price_bland(&y, &in_basis, thr)
            } else {
                self.price_dantzig(&y, &in_basis, thr)
            };
            let Some(q) = enter else {
                // Optimality may only be declared off a fresh
                // factorization: eta-chain duals drift, and a stale `y`
                // passing the threshold gate is exactly how a pivot path
                // terminates one vertex short of the true optimum.
                if !fact.is_fresh() {
                    if !fact.refactor(&self.basis_transpose(&basis)) {
                        status = LpStatus::NumericalBreakdown;
                        break;
                    }
                    fact.ftran_dense(&self.rhs, &mut xb);
                    continue;
                }
                if !polishing {
                    polishing = true;
                    continue;
                }
                break; // optimal
            };

            // FTRAN: w solves B·w = A_q.
            fact.ftran_sparse(&self.cols[q], &mut w);

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut theta = f64::INFINITY;
            for i in 0..m {
                if w[i] > PIVOT_EPS {
                    let ratio = xb[i] / w[i];
                    if ratio < theta - EPS
                        || (ratio < theta + EPS && leave.is_none_or(|l| basis[i] < basis[l]))
                    {
                        theta = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                // A genuinely unbounded ray can only surface in the
                // classic phase (the polish entering column prices inside
                // (−PIVOT_EPS, −EPS); if no pivot element clears
                // PIVOT_EPS the exchange is numerically meaningless, not
                // an unbounded direction — stop at the current vertex).
                if polishing {
                    break;
                }
                status = LpStatus::Unbounded;
                break;
            };
            if theta < EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // Pivot: push the eta update and refresh x_B.
            fact.update(r, &w);
            xb[r] = theta;
            for i in 0..m {
                if i != r {
                    xb[i] -= w[i] * theta;
                    if xb[i] < 0.0 && xb[i] > -1e-7 {
                        xb[i] = 0.0;
                    }
                }
            }
            in_basis[basis[r]] = false;
            in_basis[q] = true;
            basis[r] = q;
        }

        // Canonical extraction at optimality: sort the final basis and
        // recompute x_B from a fresh LU, so the reported solution depends
        // only on (problem data, final basis set) — not on the pivot path
        // or the eta chain that reached it. A warm-started re-solve that
        // converges to the same optimal basis as a cold solve therefore
        // reproduces its solution bit for bit.
        if status == LpStatus::Optimal {
            let mut canonical = basis.clone();
            canonical.sort_unstable();
            if let Some(fresh) = BasisFactorization::factor(&self.basis_transpose(&canonical)) {
                fresh.ftran_dense(&self.rhs, &mut xb);
                for v in xb.iter_mut() {
                    if *v < 0.0 && *v > -1e-7 {
                        *v = 0.0;
                    }
                }
                basis = canonical;
            }
        }

        // Extract solution.
        let mut x = vec![0.0; self.problem.num_vars()];
        let mut artificial_infeasible = false;
        for (i, &b) in basis.iter().enumerate() {
            if xb[i] > 1e-6 && b >= self.artificial_start {
                artificial_infeasible = true;
            }
            if let Some((j, sign)) = self.var_of_col[b] {
                x[j] += sign * xb[i];
            }
        }
        if status == LpStatus::Optimal && artificial_infeasible {
            status = LpStatus::Infeasible;
        }
        let objective = x.iter().zip(&self.problem.obj).map(|(xi, ci)| xi * ci).sum();
        // Keyed problems carry the basis as stable-key slots so it can be
        // resolved against a later problem with a different column set.
        let slots = if self.problem.col_keys.is_empty() {
            Vec::new()
        } else {
            basis.iter().map(|&b| self.slot_of_col(b)).collect()
        };
        (
            LpSolution { status, x, objective, iterations },
            Some(LpBasis { cols: basis, slots }),
            stats,
        )
    }

    /// The current basis as the CSR of `Bᵀ` (row `k` = basis column `k`),
    /// the input form [`BasisFactorization`] factors.
    fn basis_transpose(&self, basis: &[usize]) -> CsrMatrix {
        let rows: Vec<Vec<(usize, f64)>> = basis.iter().map(|&b| self.cols[b].clone()).collect();
        CsrMatrix::from_rows(self.m, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_maximization_as_min() {
        // max x + 2y ⇔ min −x − 2y, x+y ≤ 4, y ≤ 3.
        let mut lp = LpProblem::minimize(vec![-1.0, -2.0]);
        lp.add_row(RowKind::Le, 4.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_row(RowKind::Le, 3.0, &[(1, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -7.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn equality_and_ge_rows() {
        let mut lp = LpProblem::minimize(vec![1.0, 1.0]);
        lp.add_row(RowKind::Ge, 2.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_row(RowKind::Eq, 0.0, &[(0, 1.0), (1, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::minimize(vec![0.0]);
        lp.add_row(RowKind::Ge, 2.0, &[(0, 1.0)]);
        lp.add_row(RowKind::Le, 1.0, &[(0, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::minimize(vec![-1.0]);
        lp.add_row(RowKind::Ge, 0.0, &[(0, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min |style| problem: min y s.t. y ≥ x − 3, y ≥ 3 − x, x free ⇒ y*=0 at x=3.
        let mut lp = LpProblem::minimize(vec![0.0, 1.0]);
        lp.set_free(0);
        lp.add_row(RowKind::Ge, -3.0, &[(1, 1.0), (0, -1.0)]); // y − x ≥ −3
        lp.add_row(RowKind::Ge, 3.0, &[(1, 1.0), (0, 1.0)]); // y + x ≥ 3
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.0);
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x ≥ 0, −x ≤ −2 ⇔ x ≥ 2; min x ⇒ 2.
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(RowKind::Le, -2.0, &[(0, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LpProblem::minimize(vec![-1.0, -1.0]);
        lp.add_row(RowKind::Le, 1.0, &[(0, 1.0)]);
        lp.add_row(RowKind::Le, 1.0, &[(0, 1.0), (1, 0.0)]);
        lp.add_row(RowKind::Le, 1.0, &[(1, 1.0)]);
        lp.add_row(RowKind::Le, 2.0, &[(0, 1.0), (1, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn transportation_lp_matches_known_optimum() {
        // 2 supplies (1,1) → 2 demands (1,1); costs: c00=1,c01=5,c10=4,c11=2.
        // Optimal: x00=1, x11=1, cost 3.
        let mut lp = LpProblem::minimize(vec![1.0, 5.0, 4.0, 2.0]);
        lp.add_row(RowKind::Eq, 1.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_row(RowKind::Eq, 1.0, &[(2, 1.0), (3, 1.0)]);
        lp.add_row(RowKind::Le, 1.0, &[(0, 1.0), (2, 1.0)]);
        lp.add_row(RowKind::Le, 1.0, &[(1, 1.0), (3, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn min_max_assignment_relaxation() {
        // Two items, two bins, each item's cheap bin distinct:
        // integral optimum puts each item in its cheap bin, max load 1.
        let mut lp = LpProblem::minimize(vec![0.0, 0.0, 0.0, 0.0, 1.0]);
        lp.add_row(RowKind::Eq, 1.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_row(RowKind::Eq, 1.0, &[(2, 1.0), (3, 1.0)]);
        lp.add_row(RowKind::Le, 0.0, &[(0, 3.0), (2, 1.0), (4, -1.0)]);
        lp.add_row(RowKind::Le, 0.0, &[(1, 1.0), (3, 3.0), (4, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn min_max_relaxation_fractional_beats_integral() {
        // One item, two bins of load 2: LP splits 50/50 ⇒ t* = 1, while any
        // integral assignment gives 2 — the integrality gap of Section VI.
        let mut lp = LpProblem::minimize(vec![0.0, 0.0, 1.0]);
        lp.add_row(RowKind::Eq, 1.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_row(RowKind::Le, 0.0, &[(0, 2.0), (2, -1.0)]);
        lp.add_row(RowKind::Le, 0.0, &[(1, 2.0), (2, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
        assert_close(s.x[0], 0.5);
    }

    #[test]
    fn no_constraints_zero_or_unbounded() {
        let lp = LpProblem::minimize(vec![1.0, 0.0]);
        assert_eq!(lp.solve().status, LpStatus::Optimal);
        let lp2 = LpProblem::minimize(vec![-1.0]);
        assert_eq!(lp2.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn iteration_limit_is_honored() {
        // A non-trivial LP with an absurdly low iteration cap reports
        // IterationLimit instead of looping.
        let n = 30;
        let mut lp = LpProblem::minimize(vec![-1.0; n]);
        for i in 0..n {
            let row: Vec<_> = (0..n).map(|j| (j, if i == j { 2.0 } else { 1.0 })).collect();
            lp.add_row(RowKind::Le, 10.0, &row);
        }
        lp.set_iteration_limit(3);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::IterationLimit);
        assert!(s.iterations <= 3);
    }

    #[test]
    fn solution_reports_iteration_count() {
        let mut lp = LpProblem::minimize(vec![-1.0]);
        lp.add_row(RowKind::Le, 5.0, &[(0, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.iterations >= 1);
    }

    #[test]
    fn duplicate_coefficients_accumulate_rowwise() {
        // add_row with the same variable twice keeps both entries; the
        // constraint behaves as their sum (x + x ≤ 4 ⇒ x ≤ 2).
        let mut lp = LpProblem::minimize(vec![-1.0]);
        lp.add_row(RowKind::Le, 4.0, &[(0, 1.0), (0, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn larger_random_lp_agrees_with_feasibility() {
        // A diagonally dominant feasible system: x_i ≥ i, minimize Σ x_i.
        let n = 40;
        let mut lp = LpProblem::minimize(vec![1.0; n]);
        for i in 0..n {
            lp.add_row(RowKind::Ge, i as f64, &[(i, 1.0)]);
        }
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        let expect: f64 = (0..n).map(|i| i as f64).sum();
        assert_close(s.objective, expect);
    }

    /// A pseudo-random min-max assignment instance shared by the
    /// warm-start tests below.
    fn assignment_instance(items: usize, bins: usize, seed: u64, bump: f64) -> LpProblem {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 100.0 + 1.0
        };
        let t = items * bins;
        let mut obj = vec![0.0; t + 1];
        obj[t] = 1.0;
        let mut loads = vec![vec![0.0; bins]; items];
        for row in loads.iter_mut() {
            for l in row.iter_mut() {
                *l = next() + bump;
            }
        }
        let mut lp = LpProblem::minimize(obj);
        for (i, _) in loads.iter().enumerate() {
            let row: Vec<_> = (0..bins).map(|j| (i * bins + j, 1.0)).collect();
            lp.add_row(RowKind::Eq, 1.0, &row);
        }
        for j in 0..bins {
            let mut row: Vec<_> =
                loads.iter().enumerate().map(|(i, l)| (i * bins + j, l[j])).collect();
            row.push((t, -1.0));
            lp.add_row(RowKind::Le, 0.0, &row);
        }
        lp
    }

    #[test]
    fn warm_start_resolves_perturbed_problem() {
        let cold = assignment_instance(15, 5, 7, 0.0);
        let (s0, basis) = cold.solve_with_basis(None);
        assert_eq!(s0.status, LpStatus::Optimal);
        let basis = basis.expect("basis returned");
        assert_eq!(basis.num_rows(), cold.num_rows());

        // Same structure, slightly moved loads: the warm solve must agree
        // with a cold solve of the perturbed problem and converge at least
        // as fast.
        let warm_problem = assignment_instance(15, 5, 7, 0.05);
        let (warm, _) = warm_problem.solve_with_basis(Some(&basis));
        let (coldp, _) = warm_problem.solve_with_basis(None);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective - coldp.objective).abs() < 1e-6,
            "{} vs {}",
            warm.objective,
            coldp.objective
        );
        assert!(
            warm.iterations <= coldp.iterations,
            "warm {} > cold {}",
            warm.iterations,
            coldp.iterations
        );
    }

    #[test]
    fn warm_start_identical_problem_is_bit_exact_and_instant() {
        let lp = assignment_instance(10, 4, 3, 0.0);
        let (s0, basis) = lp.solve_with_basis(None);
        let (s1, _) = lp.solve_with_basis(basis.as_ref());
        assert_eq!(s0.status, LpStatus::Optimal);
        assert_eq!(s1.status, LpStatus::Optimal);
        assert_eq!(s0.x, s1.x, "canonical extraction must be path-independent");
        assert!(s1.iterations <= 2, "re-solve from the optimal basis took {}", s1.iterations);
    }

    #[test]
    fn incompatible_warm_basis_falls_back_to_cold() {
        let small = assignment_instance(4, 2, 1, 0.0);
        let (_, basis) = small.solve_with_basis(None);
        let big = assignment_instance(9, 3, 2, 0.0);
        let (s, _) = big.solve_with_basis(basis.as_ref());
        assert_eq!(s.status, LpStatus::Optimal);
        let (s_cold, _) = big.solve_with_basis(None);
        assert_eq!(s.x, s_cold.x);
    }

    /// `assignment_instance` with stable column/row keys and an optional
    /// set of dropped `(item, bin)` candidate columns — the keyed shape the
    /// flow's assignment relaxation uses.
    fn keyed_assignment_instance(
        items: usize,
        bins: usize,
        seed: u64,
        bump: f64,
        drop: &[(usize, usize)],
    ) -> LpProblem {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 100.0 + 1.0
        };
        let keep = |i: usize, j: usize| !drop.contains(&(i, j));
        let mut var_of = vec![vec![usize::MAX; bins]; items];
        let mut col_keys = Vec::new();
        let mut loads = Vec::new();
        for (i, vars) in var_of.iter_mut().enumerate() {
            for (j, var) in vars.iter_mut().enumerate() {
                let load = next() + bump;
                if keep(i, j) {
                    *var = col_keys.len();
                    col_keys.push(((i as u64) << 32) | (j as u64 + 1));
                    loads.push(load);
                }
            }
        }
        let t = col_keys.len();
        col_keys.push(u64::MAX);
        let mut obj = vec![0.0; t + 1];
        obj[t] = 1.0;
        let mut lp = LpProblem::minimize(obj);
        let mut row_keys = Vec::new();
        for vars in var_of.iter() {
            let row: Vec<_> =
                vars.iter().filter(|&&v| v != usize::MAX).map(|&v| (v, 1.0)).collect();
            lp.add_row(RowKind::Eq, 1.0, &row);
            row_keys.push(row_keys.len() as u64);
        }
        for j in 0..bins {
            let mut row: Vec<_> = (0..items)
                .filter(|&i| var_of[i][j] != usize::MAX)
                .map(|i| (var_of[i][j], loads[var_of[i][j]]))
                .collect();
            if row.is_empty() {
                continue;
            }
            row.push((t, -1.0));
            lp.add_row(RowKind::Le, 0.0, &row);
            row_keys.push((1u64 << 32) | j as u64);
        }
        lp.set_col_keys(col_keys);
        lp.set_row_keys(row_keys);
        lp
    }

    #[test]
    fn dual_repair_fires_on_rhs_drift_and_matches_cold_bitwise() {
        // max 2x+y (as min) s.t. x ≤ 2, y ≤ 2, x+y ≤ 3: unique optimum
        // (2,1), basis {x, y, s2}.
        let build = |b1: f64| {
            let mut lp = LpProblem::minimize(vec![-2.0, -1.0]);
            lp.add_row(RowKind::Le, b1, &[(0, 1.0)]);
            lp.add_row(RowKind::Le, 2.0, &[(1, 1.0)]);
            lp.add_row(RowKind::Le, 3.0, &[(0, 1.0), (1, 1.0)]);
            lp
        };
        let (s0, basis) = build(2.0).solve_with_basis(None);
        assert_eq!(s0.status, LpStatus::Optimal);
        assert_close(s0.x[0], 2.0);
        assert_close(s0.x[1], 1.0);

        // Relax x ≤ 2 to x ≤ 4: the carried basis solves to y = −1
        // (primal infeasible) with untouched reduced costs (dual
        // feasible) — exactly the dual-simplex repair case.
        let drifted = build(4.0);
        let (warm, _, stats) = drifted.solve_with_basis_stats(basis.as_ref());
        assert_eq!(stats.mode, WarmMode::DualRepair, "rhs drift must take the dual repair path");
        assert!(stats.dual_pivots >= 1, "repair performs at least one dual pivot");
        assert_eq!(warm.status, LpStatus::Optimal);
        let (cold, _, cold_stats) = drifted.solve_with_basis_stats(None);
        assert_eq!(cold_stats.mode, WarmMode::Cold);
        assert_eq!(warm.x, cold.x, "canonical extraction: warm ≡ cold to the bit");
        assert_close(warm.x[0], 3.0);
        assert_close(warm.x[1], 0.0);
    }

    #[test]
    fn keyed_warm_start_survives_cost_drift_bitwise() {
        let base = keyed_assignment_instance(12, 4, 5, 0.0, &[]);
        let (s0, basis) = base.solve_with_basis(None);
        assert_eq!(s0.status, LpStatus::Optimal);

        let drifted = keyed_assignment_instance(12, 4, 5, 0.25, &[]);
        let (warm, _, stats) = drifted.solve_with_basis_stats(basis.as_ref());
        let (cold, _, _) = drifted.solve_with_basis_stats(None);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_ne!(stats.mode, WarmMode::Cold, "keyed basis must resolve on pure cost drift");
        assert_eq!(stats.mapped_columns, drifted.num_rows(), "every slot maps: same structure");
        assert_eq!(stats.dropped_slots, 0);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn keyed_warm_start_survives_added_and_dropped_columns() {
        // Basis of the full instance, re-solved on an instance with two
        // *nonbasic* candidate columns dropped (column indices shift —
        // only the keys survive) and drifted loads: every basis slot maps,
        // so the warm start must fire.
        let full = keyed_assignment_instance(12, 4, 9, 0.0, &[]);
        let (s0, basis) = full.solve_with_basis(None);
        assert_eq!(s0.status, LpStatus::Optimal);
        let basis_keys: Vec<u64> = basis
            .as_ref()
            .unwrap()
            .slots
            .iter()
            .filter_map(|s| match s {
                BasisSlot::Structural { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        let nonbasic: Vec<(usize, usize)> = (0..12)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|&(i, j)| !basis_keys.contains(&(((i as u64) << 32) | (j as u64 + 1))))
            .take(2)
            .collect();
        assert_eq!(nonbasic.len(), 2, "instance leaves at least two candidates nonbasic");

        let dropped = keyed_assignment_instance(12, 4, 9, 0.1, &nonbasic);
        let (warm, dbasis, stats) = dropped.solve_with_basis_stats(basis.as_ref());
        let (cold, _, _) = dropped.solve_with_basis_stats(None);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_ne!(stats.mode, WarmMode::Cold, "keyed resolution must survive dropped columns");
        assert_eq!(stats.mapped_columns, dropped.num_rows(), "all slots map: drops were nonbasic");
        assert_eq!(stats.dropped_slots, 0);
        assert_eq!(warm.x, cold.x);

        // And back: the dropped-instance basis warm-starts the full
        // instance (columns added relative to the basis problem).
        let full2 = keyed_assignment_instance(12, 4, 9, 0.2, &[]);
        let (warm2, _, stats2) = full2.solve_with_basis_stats(dbasis.as_ref());
        let (cold2, _, _) = full2.solve_with_basis_stats(None);
        assert_eq!(warm2.status, LpStatus::Optimal);
        assert_ne!(stats2.mode, WarmMode::Cold, "keyed resolution must survive added columns");
        assert_eq!(warm2.x, cold2.x);

        // Dropping a *basic* column is allowed to fall back cold (its
        // replacement may break both feasibilities) — but the result must
        // still match the cold solve bit for bit.
        let basic_pair = (0..12)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .find(|&(i, j)| basis_keys.contains(&(((i as u64) << 32) | (j as u64 + 1))))
            .expect("some candidate is basic");
        let dropped_basic = keyed_assignment_instance(12, 4, 9, 0.1, &[basic_pair]);
        let (warm3, _, _) = dropped_basic.solve_with_basis_stats(basis.as_ref());
        let (cold3, _, _) = dropped_basic.solve_with_basis_stats(None);
        assert_eq!(warm3.status, LpStatus::Optimal);
        assert_eq!(warm3.x, cold3.x);
    }

    #[test]
    fn keyed_warm_start_across_disjoint_keys_falls_back_cold() {
        // No shared structural keys at all: the resolution maps nothing
        // structural, the artificial-filled basis is the cold start in
        // disguise — and the solve must still be correct.
        let a = keyed_assignment_instance(6, 3, 2, 0.0, &[]);
        let (_, basis) = a.solve_with_basis(None);
        let mut b = keyed_assignment_instance(6, 3, 4, 0.0, &[]);
        // Shift every key so none survive.
        let shifted: Vec<u64> = (0..b.num_vars()).map(|v| (v as u64) | (1 << 60)).collect();
        b.set_col_keys(shifted);
        let (warm, _, _) = b.solve_with_basis_stats(basis.as_ref());
        let (cold, _, _) = b.solve_with_basis_stats(None);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn in_place_patch_is_equivalent_to_rebuild() {
        // update_coeff/set_objective_coeff on the structure of seed 5 must
        // produce the exact problem keyed_assignment_instance builds for
        // the drifted loads — same solution to the bit.
        let drifted = keyed_assignment_instance(8, 3, 5, 0.5, &[]);
        let mut patched = keyed_assignment_instance(8, 3, 5, 0.0, &[]);
        for j in 0..patched.num_vars() {
            patched.set_objective_coeff(j, drifted.obj[j]);
            for &(row, a) in &drifted.cols[j] {
                patched.update_coeff(j, row, a);
            }
        }
        let (a, _, _) = drifted.solve_with_basis_stats(None);
        let (b, _, _) = patched.solve_with_basis_stats(None);
        assert_eq!(a.status, LpStatus::Optimal);
        assert_eq!(a.x, b.x);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn parallel_pricing_scan_is_deterministic() {
        // Force the fan-out path with a tiny threshold and compare against
        // the sequential default — selections must be bit-identical.
        let mut seq = assignment_instance(20, 6, 11, 0.0);
        seq.set_par_config(ParConfig { min_parallel: usize::MAX, max_threads: 1 });
        let mut par = assignment_instance(20, 6, 11, 0.0);
        par.set_par_config(ParConfig { min_parallel: 8, max_threads: 4 });
        let (a, b) = (seq.solve(), par.solve());
        assert_eq!(a.status, LpStatus::Optimal);
        assert_eq!(a.x, b.x);
        assert_eq!(a.iterations, b.iterations);
    }
}
