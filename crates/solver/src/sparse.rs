//! Sparse linear-algebra kernels shared by the solver stack.
//!
//! Three layers:
//!
//! * [`CsrMatrix`] — compressed-sparse-row storage with stable per-row
//!   entry order; the shared sparse container (the simplex basis is passed
//!   as the CSR of `Bᵀ`, the SPFA kernel of [`crate::graph`] stores its
//!   adjacency in one).
//! * [`SparseLu`] — left-looking (Gilbert–Peierls style) sparse LU
//!   factorization with partial pivoting, plus FTRAN (`Bx = b`) and BTRAN
//!   (`Bᵀy = c`) triangular solves.
//! * [`BasisFactorization`] — the simplex-facing wrapper: sparse LU of the
//!   basis plus product-form eta updates per pivot, with periodic
//!   refactorization to bound eta-chain length and numerical drift.
//!
//! This replaces the dense `m × m` basis inverse the revised simplex of
//! [`crate::lp`] used to carry: for the ~1.5–1.8k-row min-max assignment
//! LPs, each dense pivot cost `O(m²)` regardless of sparsity, while the
//! basis factors here stay near the (very sparse) basis nonzero count.

/// Compressed-sparse-row matrix with `f64` values.
///
/// Entries within a row keep the order they were supplied in (no
/// sorting, no deduplication) — callers that need a specific order
/// provide triplets in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets, preserving the relative
    /// order of entries within each row.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; nrows + 1];
        for &(r, c, _) in triplets {
            assert!(r < nrows && c < ncols, "triplet ({r}, {c}) out of range");
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut cursor = counts;
        for &(r, c, v) in triplets {
            let k = cursor[r];
            col_idx[k] = c as u32;
            vals[k] = v;
            cursor[r] += 1;
        }
        Self { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// Like [`Self::from_triplets`], but also returns the permutation
    /// mapping each stored entry slot back to the index of the triplet it
    /// came from — callers carrying per-entry payloads (e.g. the arc ids of
    /// [`crate::graph::SpfaGraph`]) use it to address them by entry slot.
    /// Takes the triplets as a re-iterable source (walked twice), so
    /// callers need not materialize a triplet vector.
    pub fn from_triplets_with_perm(
        nrows: usize,
        ncols: usize,
        triplets: impl Iterator<Item = (usize, usize, f64)> + Clone,
    ) -> (Self, Vec<u32>) {
        let mut counts = vec![0usize; nrows + 1];
        for (r, c, _) in triplets.clone() {
            assert!(r < nrows && c < ncols, "triplet ({r}, {c}) out of range");
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let nnz = counts[nrows];
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut perm = vec![0u32; nnz];
        let mut cursor = counts;
        for (t, (r, c, v)) in triplets.enumerate() {
            let k = cursor[r];
            col_idx[k] = c as u32;
            vals[k] = v;
            perm[k] = t as u32;
            cursor[r] += 1;
        }
        (Self { nrows, ncols, row_ptr, col_idx, vals }, perm)
    }

    /// Builds a CSR matrix whose row `i` is `rows[i]` (column, value pairs
    /// in the given order).
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for row in rows {
            for &(c, v) in row {
                assert!(c < ncols, "column {c} out of range");
                col_idx.push(c as u32);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self { nrows: rows.len(), ncols, row_ptr, col_idx, vals }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The `(columns, values)` slices of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The range of entry slots holding row `i` (for addressing parallel
    /// per-entry payloads built with [`Self::from_triplets_with_perm`]).
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Dense matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        (0..self.nrows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
            })
            .collect()
    }
}

/// Pivot magnitudes below this are treated as numerically singular.
const SINGULAR_EPS: f64 = 1e-12;

/// Sparse LU factorization `P·B = L·U` with partial pivoting.
///
/// Built column by column (left-looking): each basis column is solved
/// against the already-computed `L`, then the largest remaining entry is
/// chosen as pivot. Row permutation is kept implicitly (`pinv`), so no
/// sparse rows are ever physically swapped.
#[derive(Debug, Clone)]
pub struct SparseLu {
    m: usize,
    /// `pinv[orig_row] = position` of that row in the permuted order.
    pinv: Vec<u32>,
    /// `rowof[position] = orig_row` (inverse of `pinv`).
    rowof: Vec<u32>,
    /// `L` columns: `(orig_row, value)` with unit diagonal implicit;
    /// every stored row has `pinv[row] > column`.
    lcols: Vec<Vec<(u32, f64)>>,
    /// `U` columns: `(position, value)` with `position < column`.
    ucols: Vec<Vec<(u32, f64)>>,
    /// `U` diagonal by position.
    diag: Vec<f64>,
}

impl SparseLu {
    /// Factors the `m × m` basis given as the CSR of `Bᵀ` (row `k` of
    /// `bt` = column `k` of `B`). Returns `None` if the basis is
    /// numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `bt` is not square.
    pub fn factor(bt: &CsrMatrix) -> Option<Self> {
        let m = bt.nrows();
        assert_eq!(m, bt.ncols(), "basis must be square");
        let mut pinv = vec![u32::MAX; m];
        let mut rowof = vec![u32::MAX; m];
        let mut lcols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut ucols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut diag = vec![0.0f64; m];

        // Scatter workspace over original row indices.
        let mut x = vec![0.0f64; m];
        let mut stamp = vec![0u32; m];
        let mut touched: Vec<u32> = Vec::with_capacity(64);

        for k in 0..m {
            let gen = k as u32 + 1;
            touched.clear();
            let (rows, vals) = bt.row(k);
            for (&r, &v) in rows.iter().zip(vals) {
                let r = r as usize;
                if stamp[r] != gen {
                    stamp[r] = gen;
                    x[r] = 0.0;
                    touched.push(r as u32);
                }
                x[r] += v;
            }
            // Lower solve against finished columns, in position order
            // (a valid topological order for triangular L).
            for j in 0..k {
                let pr = rowof[j] as usize;
                if stamp[pr] != gen {
                    continue;
                }
                let xj = x[pr];
                if xj == 0.0 {
                    continue;
                }
                for &(orig, lv) in &lcols[j] {
                    let o = orig as usize;
                    if stamp[o] != gen {
                        stamp[o] = gen;
                        x[o] = 0.0;
                        touched.push(orig);
                    }
                    x[o] -= lv * xj;
                }
            }
            // Partial pivot among still-unassigned rows.
            let mut piv = usize::MAX;
            let mut piv_abs = 0.0f64;
            for &t in &touched {
                let t = t as usize;
                if pinv[t] == u32::MAX && x[t].abs() > piv_abs {
                    piv_abs = x[t].abs();
                    piv = t;
                }
            }
            if piv == usize::MAX || piv_abs < SINGULAR_EPS {
                return None;
            }
            let d = x[piv];
            pinv[piv] = k as u32;
            rowof[k] = piv as u32;
            diag[k] = d;
            let mut ucol = Vec::new();
            let mut lcol = Vec::new();
            for &t in &touched {
                let t = t as usize;
                let v = x[t];
                if v == 0.0 || t == piv {
                    continue;
                }
                let p = pinv[t];
                if p != u32::MAX && p < k as u32 {
                    ucol.push((p, v));
                } else if p == u32::MAX {
                    lcol.push((t as u32, v / d));
                }
                // p == k is the pivot itself, excluded above.
            }
            ucols.push(ucol);
            lcols.push(lcol);
        }
        Some(Self { m, pinv, rowof, lcols, ucols, diag })
    }

    /// Dimension `m`.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Rank-deficiency scan of a singular basis: the same left-looking
    /// elimination as [`SparseLu::factor`], but a column with no
    /// acceptable pivot is *skipped* (recorded) instead of aborting the
    /// factorization. Returns the deficient column positions paired with
    /// the rows left unpivoted at the end, both ascending — substituting
    /// each listed row's unit column (its slack or artificial) at the
    /// matching basis position yields a nonsingular basis.
    ///
    /// Only worth calling after [`SparseLu::factor`] returned `None`: it
    /// repeats the full elimination.
    ///
    /// # Panics
    ///
    /// Panics if `bt` is not square.
    pub fn deficiency(bt: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
        let m = bt.nrows();
        assert_eq!(m, bt.ncols(), "basis must be square");
        let mut pinv = vec![u32::MAX; m];
        let mut rowof = vec![u32::MAX; m];
        let mut lcols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut deficient: Vec<usize> = Vec::new();

        let mut x = vec![0.0f64; m];
        let mut stamp = vec![0u32; m];
        let mut touched: Vec<u32> = Vec::with_capacity(64);

        for k in 0..m {
            let gen = k as u32 + 1;
            touched.clear();
            let (rows, vals) = bt.row(k);
            for (&r, &v) in rows.iter().zip(vals) {
                let r = r as usize;
                if stamp[r] != gen {
                    stamp[r] = gen;
                    x[r] = 0.0;
                    touched.push(r as u32);
                }
                x[r] += v;
            }
            for j in 0..k {
                if rowof[j] == u32::MAX {
                    continue;
                }
                let pr = rowof[j] as usize;
                if stamp[pr] != gen {
                    continue;
                }
                let xj = x[pr];
                if xj == 0.0 {
                    continue;
                }
                for &(orig, lv) in &lcols[j] {
                    let o = orig as usize;
                    if stamp[o] != gen {
                        stamp[o] = gen;
                        x[o] = 0.0;
                        touched.push(orig);
                    }
                    x[o] -= lv * xj;
                }
            }
            let mut piv = usize::MAX;
            let mut piv_abs = 0.0f64;
            for &t in &touched {
                let t = t as usize;
                if pinv[t] == u32::MAX && x[t].abs() > piv_abs {
                    piv_abs = x[t].abs();
                    piv = t;
                }
            }
            if piv == usize::MAX || piv_abs < SINGULAR_EPS {
                deficient.push(k);
                lcols.push(Vec::new());
                continue;
            }
            let d = x[piv];
            pinv[piv] = k as u32;
            rowof[k] = piv as u32;
            let mut lcol = Vec::new();
            for &t in &touched {
                let t = t as usize;
                let v = x[t];
                if v == 0.0 || t == piv {
                    continue;
                }
                if pinv[t] == u32::MAX {
                    lcol.push((t as u32, v / d));
                }
            }
            lcols.push(lcol);
        }
        let mut rows: Vec<usize> = (0..m).filter(|&r| pinv[r] == u32::MAX).collect();
        rows.sort_unstable();
        (deficient, rows)
    }

    /// FTRAN: solves `B·x = b` for sparse `b` given as `(orig_row, value)`
    /// pairs; writes the dense solution (indexed by basis position) into
    /// `out`.
    pub fn ftran_sparse(&self, b: &[(usize, f64)], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.m);
        // Forward solve L·y = P·b over a workspace indexed by orig row.
        let mut work = vec![0.0f64; self.m];
        for &(r, v) in b {
            work[r] += v;
        }
        self.solve_lower_then_upper(&mut work, out);
    }

    /// FTRAN with a dense right-hand side indexed by original row.
    pub fn ftran_dense(&self, b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.m);
        let mut work = b.to_vec();
        self.solve_lower_then_upper(&mut work, out);
    }

    fn solve_lower_then_upper(&self, work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Forward: y_j accumulates in work[rowof[j]].
        for j in 0..m {
            let yj = work[self.rowof[j] as usize];
            if yj == 0.0 {
                continue;
            }
            for &(orig, lv) in &self.lcols[j] {
                work[orig as usize] -= lv * yj;
            }
        }
        // Gather y by position.
        for j in 0..m {
            out[j] = work[self.rowof[j] as usize];
        }
        // Backward: U·x = y, column-oriented.
        for k in (0..m).rev() {
            let xk = out[k] / self.diag[k];
            out[k] = xk;
            if xk == 0.0 {
                continue;
            }
            for &(j, uv) in &self.ucols[k] {
                out[j as usize] -= uv * xk;
            }
        }
    }

    /// BTRAN: solves `Bᵀ·y = c` with `c` indexed by basis position; writes
    /// the solution indexed by **original row** into `out`.
    pub fn btran(&self, c: &[f64], out: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        debug_assert_eq!(out.len(), self.m);
        let m = self.m;
        // Uᵀ·z = c, forward over positions.
        let mut z = vec![0.0f64; m];
        for k in 0..m {
            let mut zk = c[k];
            for &(j, uv) in &self.ucols[k] {
                zk -= uv * z[j as usize];
            }
            z[k] = zk / self.diag[k];
        }
        // Lᵀ·w = z, backward over positions.
        for j in (0..m).rev() {
            let mut wj = z[j];
            for &(orig, lv) in &self.lcols[j] {
                wj -= lv * z[self.pinv[orig as usize] as usize];
            }
            z[j] = wj;
        }
        // y = Pᵀ·w: back to original row indexing.
        for j in 0..m {
            out[self.rowof[j] as usize] = z[j];
        }
    }
}

/// One product-form update: the basis column at `position` was replaced by
/// a column whose FTRAN image was `w`.
#[derive(Debug, Clone)]
struct Eta {
    position: usize,
    /// Off-pivot entries `(position, w_i)`, `i ≠ position`.
    entries: Vec<(u32, f64)>,
    /// Pivot entry `w_r`.
    pivot: f64,
}

/// Sparse basis handler for the revised simplex: LU factors plus a chain
/// of eta updates, refactorized periodically.
#[derive(Debug, Clone)]
pub struct BasisFactorization {
    lu: SparseLu,
    etas: Vec<Eta>,
    refactor_every: usize,
    /// Total refactorizations performed (telemetry).
    refactor_count: usize,
}

impl BasisFactorization {
    /// Default eta-chain length before a refactorization is requested.
    pub const DEFAULT_REFACTOR_EVERY: usize = 64;

    /// Factors the basis given as the CSR of `Bᵀ`; `None` if singular.
    pub fn factor(bt: &CsrMatrix) -> Option<Self> {
        Some(Self {
            lu: SparseLu::factor(bt)?,
            etas: Vec::new(),
            refactor_every: Self::DEFAULT_REFACTOR_EVERY,
            refactor_count: 0,
        })
    }

    /// Replaces the factorization with a fresh LU of `bt`, clearing the
    /// eta chain. Returns `false` (leaving the old state intact) if the
    /// new basis is singular.
    pub fn refactor(&mut self, bt: &CsrMatrix) -> bool {
        match SparseLu::factor(bt) {
            Some(lu) => {
                self.lu = lu;
                self.etas.clear();
                self.refactor_count += 1;
                true
            }
            None => false,
        }
    }

    /// Whether the factorization is fresh — no eta updates since the last
    /// (re)factorization, so FTRAN/BTRAN solve against the bare LU with no
    /// accumulated product-form drift.
    pub fn is_fresh(&self) -> bool {
        self.etas.is_empty()
    }

    /// Whether the eta chain has grown past the refactorization threshold.
    pub fn wants_refactor(&self) -> bool {
        self.etas.len() >= self.refactor_every
    }

    /// Number of refactorizations performed so far.
    pub fn refactor_count(&self) -> usize {
        self.refactor_count
    }

    /// FTRAN through LU and the eta chain: solves `B·x = a` for the
    /// sparse column `a` (`(orig_row, value)` pairs); `out` is indexed by
    /// basis position.
    pub fn ftran_sparse(&self, a: &[(usize, f64)], out: &mut [f64]) {
        self.lu.ftran_sparse(a, out);
        self.apply_etas_forward(out);
    }

    /// FTRAN with a dense right-hand side indexed by original row.
    pub fn ftran_dense(&self, b: &[f64], out: &mut [f64]) {
        self.lu.ftran_dense(b, out);
        self.apply_etas_forward(out);
    }

    fn apply_etas_forward(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let t = x[eta.position] / eta.pivot;
            if t != 0.0 {
                for &(i, wi) in &eta.entries {
                    x[i as usize] -= wi * t;
                }
            }
            x[eta.position] = t;
        }
    }

    /// BTRAN through the eta chain and LU: solves `yᵀ·B = cᵀ` with `c`
    /// indexed by basis position; `out` is indexed by original row.
    pub fn btran(&self, c: &[f64], out: &mut [f64]) {
        let mut c = c.to_vec();
        self.btran_in_place(&mut c, out);
    }

    /// [`Self::btran`] without the defensive copy: the eta pass clobbers
    /// `c`. For hot loops that rebuild `c` every iteration anyway (the
    /// simplex prices with two BTRANs per pivot).
    pub fn btran_in_place(&self, c: &mut [f64], out: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = c[eta.position];
            for &(i, wi) in &eta.entries {
                acc -= wi * c[i as usize];
            }
            c[eta.position] = acc / eta.pivot;
        }
        self.lu.btran(c, out);
    }

    /// Records a pivot: basis `position` was replaced by the entering
    /// column whose FTRAN image is the dense `w` (by position).
    ///
    /// # Panics
    ///
    /// Panics if `|w[position]|` is numerically zero — the simplex ratio
    /// test guarantees a usable pivot element.
    pub fn update(&mut self, position: usize, w: &[f64]) {
        let pivot = w[position];
        assert!(pivot.abs() > SINGULAR_EPS, "degenerate eta pivot {pivot} at position {position}");
        let entries = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != position && v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        self.etas.push(Eta { position, entries, pivot });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense_of(bt: &CsrMatrix) -> Vec<Vec<f64>> {
        let m = bt.nrows();
        let mut a = vec![vec![0.0; m]; m];
        #[allow(clippy::needless_range_loop)] // column scatter: `a[r][k]` for varying r
        for k in 0..m {
            let (rows, vals) = bt.row(k);
            for (&r, &v) in rows.iter().zip(vals) {
                a[r as usize][k] += v;
            }
        }
        a
    }

    fn mul(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter().map(|row| row.iter().zip(x).map(|(&r, &xi)| r * xi).sum()).collect()
    }

    fn random_bt(rng: &mut StdRng, m: usize, extra: usize) -> CsrMatrix {
        // Shuffled diagonal (guarantees nonsingularity) plus random fill.
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut rows: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|k| {
                vec![(
                    perm[k],
                    rng.gen_range(0.5..2.0) * if rng.gen::<f64>() < 0.5 { -1.0 } else { 1.0 },
                )]
            })
            .collect();
        for _ in 0..extra {
            let k = rng.gen_range(0..m);
            let r = rng.gen_range(0..m);
            rows[k].push((r, rng.gen_range(-1.0..1.0)));
        }
        CsrMatrix::from_rows(m, &rows)
    }

    #[test]
    fn csr_roundtrip_and_mul() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, -1.0), (1, 2, 4.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[1u32][..], &[2.0][..]));
        assert_eq!(m.mul_vec(&[1.0, 10.0, 100.0]), vec![20.0, 399.0]);
    }

    #[test]
    fn lu_solves_identity() {
        let bt = CsrMatrix::from_rows(3, &[vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]);
        let lu = SparseLu::factor(&bt).expect("identity factors");
        let mut out = vec![0.0; 3];
        lu.ftran_sparse(&[(1, 5.0)], &mut out);
        assert_eq!(out, vec![0.0, 5.0, 0.0]);
        lu.btran(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn lu_ftran_btran_match_dense_on_random_bases() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..30 {
            let m = rng.gen_range(2..25);
            let bt = random_bt(&mut rng, m, 3 * m);
            let Some(lu) = SparseLu::factor(&bt) else {
                continue; // fill-in may have cancelled the diagonal
            };
            let dense = dense_of(&bt);
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut x = vec![0.0; m];
            lu.ftran_dense(&b, &mut x);
            let back = mul(&dense, &x);
            for (i, (&got, &want)) in back.iter().zip(&b).enumerate() {
                assert!((got - want).abs() < 1e-7, "round {round} ftran row {i}: {got} vs {want}");
            }
            // BTRAN: Bᵀ y = c  ⇔  yᵀ B = cᵀ.
            let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut y = vec![0.0; m];
            lu.btran(&c, &mut y);
            for k in 0..m {
                let lhs: f64 = (0..m).map(|r| y[r] * dense[r][k]).sum();
                assert!(
                    (lhs - c[k]).abs() < 1e-7,
                    "round {round} btran col {k}: {lhs} vs {}",
                    c[k]
                );
            }
        }
    }

    #[test]
    fn singular_basis_detected() {
        let bt = CsrMatrix::from_rows(2, &[vec![(0, 1.0)], vec![(0, 2.0)]]);
        assert!(SparseLu::factor(&bt).is_none());
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = 12;
        let bt = random_bt(&mut rng, m, 2 * m);
        let Some(mut fact) = BasisFactorization::factor(&bt) else {
            panic!("random basis should factor");
        };
        // Replace column 4 with a random new column a.
        let mut a: Vec<(usize, f64)> = Vec::new();
        for r in 0..m {
            if rng.gen::<f64>() < 0.4 {
                a.push((r, rng.gen_range(-2.0..2.0)));
            }
        }
        let mut w = vec![0.0; m];
        fact.ftran_sparse(&a, &mut w);
        if w[4].abs() < 1e-9 {
            return; // unlucky draw; pivot unusable
        }
        fact.update(4, &w);
        // The updated basis B' has column 4 = a. FTRAN of a must be e_4.
        let mut e = vec![0.0; m];
        fact.ftran_sparse(&a, &mut e);
        for (i, &v) in e.iter().enumerate() {
            let want = if i == 4 { 1.0 } else { 0.0 };
            assert!((v - want).abs() < 1e-7, "e[{i}] = {v}");
        }
        // BTRAN consistency: yᵀ B' = cᵀ on the replaced column.
        let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y = vec![0.0; m];
        fact.btran(&c, &mut y);
        let lhs: f64 = a.iter().map(|&(r, v)| y[r] * v).sum();
        assert!((lhs - c[4]).abs() < 1e-7, "{lhs} vs {}", c[4]);
    }
}
