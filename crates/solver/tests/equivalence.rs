//! Property-based equivalence tests for the shared kernel layer.
//!
//! The sparse-LU revised simplex (`lp` on top of `sparse`) and the SPFA
//! shortest-path kernel (`graph`) replaced, respectively, a dense
//! basis-inverse simplex and three hand-rolled Bellman–Ford loops. These
//! properties pin the new kernels against straightforward textbook
//! reference implementations (re-implemented here, dense and queue-free)
//! on random instances, so a regression in pivoting, eta-file updates,
//! refactorization, or negative-cycle detection shows up as a direct
//! disagreement rather than a subtle downstream metric shift.

use proptest::prelude::*;
use rotary_solver::graph::{Source, SpfaGraph, SpfaResult};
use rotary_solver::lp::{LpProblem, LpStatus, RowKind};

/// Quantizes to multiples of 1/8 so reference and kernel do bit-exact
/// dyadic-rational arithmetic (no tolerance games in the comparisons).
fn q8(x: f64) -> f64 {
    (x * 8.0).round() / 8.0
}

// ---------------------------------------------------------------------------
// Dense reference simplex
// ---------------------------------------------------------------------------

/// Reference solver for `min c·x  s.t.  A x ≤ b, x ≥ 0` with `b ≥ 0`:
/// a classic dense-tableau primal simplex with Bland's rule. The slack
/// basis is feasible by construction, so no phase 1 is needed. Instances
/// are generated bounded (explicit box rows), so termination is optimal.
fn dense_simplex_objective(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> f64 {
    let m = a.len();
    let n = c.len();
    let cols = n + m; // structural + slack
    let mut tab: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let mut row = vec![0.0; cols + 1];
            row[..n].copy_from_slice(&a[i]);
            row[n + i] = 1.0;
            row[cols] = b[i];
            row
        })
        .collect();
    let mut cost = vec![0.0; cols];
    cost[..n].copy_from_slice(c);
    let mut basis: Vec<usize> = (n..cols).collect();

    for _ in 0..10_000 {
        // Bland: entering = lowest-index column with negative reduced cost.
        let Some(e) = (0..cols).find(|&j| cost[j] < -1e-9) else {
            let mut x = vec![0.0; n];
            for (i, &bj) in basis.iter().enumerate() {
                if bj < n {
                    x[bj] = tab[i][cols];
                }
            }
            return x.iter().zip(c).map(|(xi, ci)| xi * ci).sum();
        };
        // Bland: leaving = min ratio, ties by lowest basis variable index.
        let mut leave: Option<usize> = None;
        for i in 0..m {
            if tab[i][e] > 1e-9 {
                let ratio = tab[i][cols] / tab[i][e];
                let better = match leave {
                    None => true,
                    Some(l) => {
                        let lr = tab[l][cols] / tab[l][e];
                        ratio < lr - 1e-12 || (ratio < lr + 1e-12 && basis[i] < basis[l])
                    }
                };
                if better {
                    leave = Some(i);
                }
            }
        }
        let l = leave.expect("box rows keep every instance bounded");
        let piv = tab[l][e];
        for v in tab[l].iter_mut() {
            *v /= piv;
        }
        let pivot_row = tab[l].clone();
        for (i, row) in tab.iter_mut().enumerate() {
            if i != l && row[e].abs() > 0.0 {
                let f = row[e];
                for (dst, &p) in row.iter_mut().zip(&pivot_row) {
                    *dst -= f * p;
                }
            }
        }
        let f = cost[e];
        for (cj, &p) in cost.iter_mut().zip(&pivot_row) {
            *cj -= f * p;
        }
        basis[l] = e;
    }
    panic!("dense reference simplex failed to terminate");
}

proptest! {
    /// The sparse-LU revised simplex and the dense tableau reference agree
    /// on the optimal objective of random bounded-feasible LPs
    /// (`min c·x, A x ≤ b` with `b ≥ 0` plus a box on every variable).
    #[test]
    fn sparse_lu_simplex_matches_dense_reference(
        n in 2usize..=5,
        m in 1usize..=7,
        raw in prop::collection::vec(-2.0f64..2.0, 64),
    ) {
        let mut next = {
            let mut k = 0usize;
            move || {
                let v = raw[k % raw.len()];
                k += 1;
                v
            }
        };
        // Objective: mixed signs so the optimum is not always the origin.
        let c: Vec<f64> = (0..n).map(|_| q8(1.5 * next())).collect();
        // General rows: coefficients in [−2, 2], rhs ≥ 0 keeps x = 0 feasible.
        let mut a: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| q8(next())).collect())
            .collect();
        let mut b: Vec<f64> = (0..m).map(|_| q8(next().abs() + 0.5)).collect();
        // Box rows x_j ≤ u_j make every instance bounded for any objective.
        for j in 0..n {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            a.push(row);
            b.push(q8(next().abs() + 0.5));
        }

        let mut lp = LpProblem::minimize(c.clone());
        for (row, &rhs) in a.iter().zip(&b) {
            let coeffs: Vec<(usize, f64)> =
                row.iter().enumerate().filter(|(_, v)| **v != 0.0).map(|(j, v)| (j, *v)).collect();
            lp.add_row(RowKind::Le, rhs, &coeffs);
        }
        let s = lp.solve();
        prop_assert_eq!(s.status, LpStatus::Optimal);

        let reference = dense_simplex_objective(&a, &b, &c);
        let scale = 1.0_f64.max(reference.abs());
        prop_assert!(
            (s.objective - reference).abs() <= 1e-6 * scale,
            "objective mismatch: sparse-LU {} vs dense reference {}",
            s.objective,
            reference
        );
        // The reported x must actually be feasible and attain the objective.
        for (row, &rhs) in a.iter().zip(&b) {
            let lhs: f64 = row.iter().zip(&s.x).map(|(aij, xj)| aij * xj).sum();
            prop_assert!(lhs <= rhs + 1e-7, "row violated: {} > {}", lhs, rhs);
        }
        let cx: f64 = c.iter().zip(&s.x).map(|(ci, xi)| ci * xi).sum();
        prop_assert!((cx - s.objective).abs() <= 1e-7 * scale);
    }
}

// ---------------------------------------------------------------------------
// Eq. 3 min-max-capacitance relaxations
// ---------------------------------------------------------------------------

/// Builds the eq. 3 min-max-capacitance relaxation for a random
/// assignment instance: `x_ik` per (item, candidate bin) arc plus the
/// makespan `t` (last column); `min t + tiebreak·wl` s.t. `Σ_k x_ik = 1`
/// and `Σ_i load·x − t ≤ 0` per bin. Returns the LP and the per-item
/// `(bin, column)` lists.
#[allow(clippy::type_complexity)]
fn min_max_instance(
    items: usize,
    bins: usize,
    raw: &[f64],
) -> (LpProblem, Vec<Vec<(usize, usize)>>) {
    let mut k = 0usize;
    let mut next = move |raw: &[f64]| {
        let v = raw[k % raw.len()];
        k += 1;
        v
    };
    let mut var_of: Vec<Vec<(usize, usize)>> = Vec::with_capacity(items);
    let mut obj = Vec::new();
    let mut loads: Vec<(usize, usize, f64)> = Vec::new(); // (bin, col, load)
    for _ in 0..items {
        let cands = 2 + (((next(raw) + 2.0) * 10.0) as usize) % 3;
        let mut row = Vec::with_capacity(cands);
        for c in 0..cands {
            let bin = (((next(raw) + 2.0) * 7.0) as usize + c) % bins;
            if row.iter().any(|&(b, _)| b == bin) {
                continue;
            }
            let col = obj.len();
            let wl = q8((next(raw) + 2.0).abs());
            // Strictly distinct per-column costs, comfortably above the
            // simplex's reduced-cost tolerance: without them eq. 3
            // instances have alternate optimal vertices, and two pivot
            // paths legitimately stop at different corners. The
            // jitter must be hash-like, not linear in `col` — a linear
            // term cancels exactly when two items with identical draws
            // swap bins (their column indices shift in lockstep).
            let jitter = ((col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as f64;
            obj.push(1e-4 * wl + 1e-7 * (jitter + 1.0));
            loads.push((bin, col, q8(0.25 + (next(raw) + 2.0) / 4.0)));
            row.push((bin, col));
        }
        var_of.push(row);
    }
    let t_var = obj.len();
    obj.push(1.0);
    let mut lp = LpProblem::minimize(obj);
    for row in &var_of {
        let coeffs: Vec<(usize, f64)> = row.iter().map(|&(_, col)| (col, 1.0)).collect();
        lp.add_row(RowKind::Eq, 1.0, &coeffs);
    }
    for bin in 0..bins {
        let mut coeffs: Vec<(usize, f64)> =
            loads.iter().filter(|&&(b, _, _)| b == bin).map(|&(_, col, l)| (col, l)).collect();
        if coeffs.is_empty() {
            continue;
        }
        coeffs.push((t_var, -1.0));
        lp.add_row(RowKind::Le, 0.0, &coeffs);
    }
    (lp, var_of)
}

/// [`min_max_instance`] with stable item×bin column keys and row keys —
/// the shape `core::assign` hands the solver, where a basis carried from
/// one instance can be resolved against another whose candidate columns
/// only partially overlap.
fn keyed_min_max_instance(
    items: usize,
    bins: usize,
    raw: &[f64],
) -> (LpProblem, Vec<Vec<(usize, usize)>>) {
    let (mut lp, var_of) = min_max_instance(items, bins, raw);
    let n_vars = lp.num_vars();
    let mut col_keys = vec![0u64; n_vars];
    for (item, row) in var_of.iter().enumerate() {
        for &(bin, col) in row {
            col_keys[col] = ((item as u64) << 32) | (bin as u64 + 1);
        }
    }
    col_keys[n_vars - 1] = u64::MAX; // the makespan t
    let mut row_keys: Vec<u64> = (0..items as u64).collect();
    let mut present = vec![false; bins];
    for row in &var_of {
        for &(bin, _) in row {
            present[bin] = true;
        }
    }
    for (bin, p) in present.iter().enumerate() {
        if *p {
            row_keys.push((1 << 48) | bin as u64);
        }
    }
    lp.set_col_keys(col_keys);
    lp.set_row_keys(row_keys);
    (lp, var_of)
}

proptest! {
    /// Warm-starting from a *different* instance's optimal basis is
    /// bit-identical to the cold Dantzig solve. The two instances share
    /// only their shape (items × bins): costs and loads are redrawn and
    /// the candidate bin sets differ, so the keyed resolution exercises
    /// surviving, added, and dropped columns together; triage then takes
    /// whichever of the primal / dual-repair / cold paths applies. The
    /// tiebreak-polish termination makes the optimal vertex a function of
    /// the problem alone, so `x` must match bit for bit, not just in
    /// objective.
    #[test]
    fn warm_started_resolve_is_bit_identical_to_cold(
        items in 3usize..=14,
        bins in 2usize..=5,
        raw_a in prop::collection::vec(-2.0f64..2.0, 96),
        raw_b in prop::collection::vec(-2.0f64..2.0, 96),
    ) {
        let (lp_a, _) = keyed_min_max_instance(items, bins, &raw_a);
        let (sol_a, basis_a) = lp_a.solve_with_basis(None);
        prop_assert_eq!(sol_a.status, LpStatus::Optimal);
        let basis_a = basis_a.expect("optimal solve returns a basis");

        let (lp_b, _) = keyed_min_max_instance(items, bins, &raw_b);
        let cold = lp_b.solve();
        let (warm, _, _stats) = lp_b.solve_with_basis_stats(Some(&basis_a));
        prop_assert_eq!(cold.status, LpStatus::Optimal);
        prop_assert_eq!(warm.status, LpStatus::Optimal);
        prop_assert!(
            warm.x == cold.x,
            "warm x diverged from cold x: warm obj {} cold obj {}",
            warm.objective,
            cold.objective
        );
        prop_assert_eq!(warm.objective, cold.objective);
    }

    /// Same property under pure cost/bound drift: the instance keeps its
    /// matrix but every objective coefficient is redrawn. The carried
    /// basis maps fully (no added or dropped columns), which pins the
    /// primal-restart triage arm specifically.
    #[test]
    fn warm_cost_drift_is_bit_identical_to_cold(
        items in 3usize..=14,
        bins in 2usize..=5,
        raw in prop::collection::vec(-2.0f64..2.0, 96),
        scale in 0.25f64..4.0,
    ) {
        let (lp_a, var_of) = keyed_min_max_instance(items, bins, &raw);
        let (sol_a, basis_a) = lp_a.solve_with_basis(None);
        prop_assert_eq!(sol_a.status, LpStatus::Optimal);
        let basis_a = basis_a.expect("optimal solve returns a basis");

        let mut lp_b = lp_a;
        for row in &var_of {
            for &(_, col) in row {
                // Redraw every cost with the generator's two-term lattice
                // structure (dyadic 1e-4·wl + integer·1e-7 jitter) under a
                // fresh hash multiplier. The lattice is what rules out
                // near-ties: any basis-exchange circuit sums to exactly 0
                // or to ≥ 1e-7 ≫ EPS in each term independently, so an
                // exact alternate optimum needs both sums to vanish at
                // once. A single constant-plus-jitter term admits zero-sum
                // circuits far too often, and warm/cold then legitimately
                // stop at different corners of the tied face.
                let h = (col as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
                let wl = q8(scale * ((h >> 52) as f64) / 512.0);
                let jitter = ((h >> 20) & 0xFFF) as f64;
                lp_b.set_objective_coeff(col, 1e-4 * wl + 1e-7 * (jitter + 1.0));
            }
        }
        let cold = lp_b.solve();
        let (warm, _, _stats) = lp_b.solve_with_basis_stats(Some(&basis_a));
        prop_assert_eq!(cold.status, LpStatus::Optimal);
        prop_assert_eq!(warm.status, LpStatus::Optimal);
        prop_assert!(warm.x == cold.x, "cost-drift warm x diverged from cold x");
        prop_assert_eq!(warm.objective, cold.objective);
    }
}

// ---------------------------------------------------------------------------
// Textbook Bellman–Ford reference
// ---------------------------------------------------------------------------

/// `n` full relaxation passes from a virtual super-source (every node
/// starts at 0, the standard difference-constraint setup); pass `n`
/// still improving ⇒ negative cycle (`None`).
fn bellman_ford_virtual(n: usize, arcs: &[(usize, usize, f64)], eps: f64) -> Option<Vec<f64>> {
    let mut dist = vec![0.0; n];
    for pass in 0..=n {
        let mut changed = false;
        for &(f, t, w) in arcs {
            if dist[f] + w < dist[t] - eps {
                dist[t] = dist[f] + w;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
        if pass == n {
            return None;
        }
    }
    unreachable!()
}

/// Single-source variant: unreached nodes stay at `+∞`.
fn bellman_ford_from(n: usize, src: usize, arcs: &[(usize, usize, f64)], eps: f64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    for _ in 0..n {
        for &(f, t, w) in arcs {
            if dist[f].is_finite() && dist[f] + w < dist[t] - eps {
                dist[t] = dist[f] + w;
            }
        }
    }
    dist
}

/// Decodes a flat `raw` sample into a random arc list over `n` nodes with
/// weights quantized to 1/8 in `[lo, hi)`.
fn decode_arcs(n: usize, m: usize, raw: &[f64], lo: f64, hi: f64) -> Vec<(usize, usize, f64)> {
    let mut k = 0usize;
    let mut next = move |raw: &[f64]| {
        let v = raw[k % raw.len()];
        k += 1;
        v
    };
    (0..m)
        .map(|_| {
            let f = ((next(raw) + 2.0) / 4.0 * n as f64) as usize % n;
            let t = ((next(raw) + 2.0) / 4.0 * n as f64) as usize % n;
            let w = q8(lo + (next(raw) + 2.0) / 4.0 * (hi - lo));
            (f, t, w)
        })
        .collect()
}

proptest! {
    /// On random difference-constraint graphs (virtual super-source,
    /// weights of both signs), SPFA and textbook Bellman–Ford agree on
    /// feasibility, and on the exact distance labels when feasible.
    /// Weights are dyadic rationals, so agreement is bit-exact.
    #[test]
    fn spfa_matches_bellman_ford_on_difference_graphs(
        n in 3usize..=8,
        m in 4usize..=20,
        raw in prop::collection::vec(-2.0f64..2.0, 64),
    ) {
        // Bias toward small negative tails: feasible and infeasible systems
        // both occur across the case set.
        let arcs = decode_arcs(n, m, &raw, -0.75, 2.0);
        let mut g = SpfaGraph::new(n);
        for &(f, t, w) in &arcs {
            g.add_arc(f, t, w);
        }
        let eps = 1e-12;
        let reference = bellman_ford_virtual(n, &arcs, eps);
        match (g.run(Source::Virtual, eps), reference) {
            (SpfaResult::Shortest(sp), Some(dist)) => {
                prop_assert_eq!(sp.dist, dist);
            }
            (SpfaResult::NegativeCycle(nc), None) => {
                // The reported cycle must actually close and sum negative.
                prop_assert!(!nc.arcs.is_empty());
                let mut total = 0.0;
                for window in nc.arcs.windows(2) {
                    let (_, t0, _) = g.arc(window[0]);
                    let (f1, _, _) = g.arc(window[1]);
                    prop_assert!(t0 == f1, "cycle arcs do not chain: {} vs {}", t0, f1);
                }
                let (first_from, _, _) = g.arc(nc.arcs[0]);
                let (_, last_to, _) = g.arc(*nc.arcs.last().unwrap());
                prop_assert!(last_to == first_from, "cycle does not close");
                for &id in &nc.arcs {
                    total += g.arc(id).2;
                }
                prop_assert!(total < 0.0, "reported cycle sums to {}", total);
            }
            (SpfaResult::Shortest(_), None) => {
                prop_assert!(false, "SPFA converged but reference found a negative cycle");
            }
            (SpfaResult::NegativeCycle(_), Some(_)) => {
                prop_assert!(false, "SPFA reported a cycle on a feasible system");
            }
        }
    }

    /// Single-source shortest paths on non-negative-weight graphs:
    /// SPFA from `Node(0)` matches Bellman–Ford, including `+∞` labels
    /// on nodes unreachable from the source.
    #[test]
    fn spfa_single_source_matches_bellman_ford(
        n in 3usize..=8,
        m in 3usize..=16,
        raw in prop::collection::vec(-2.0f64..2.0, 64),
    ) {
        let arcs = decode_arcs(n, m, &raw, 0.0, 2.0);
        let mut g = SpfaGraph::new(n);
        for &(f, t, w) in &arcs {
            g.add_arc(f, t, w);
        }
        let eps = 1e-12;
        let sp = g
            .run(Source::Node(0), eps)
            .shortest()
            .expect("non-negative weights admit no negative cycle");
        let reference = bellman_ford_from(n, 0, &arcs, eps);
        prop_assert_eq!(sp.dist, reference);
    }
}
