//! Greedy rounding of a fractional assignment (paper Fig. 5).
//!
//! Given the LP-relaxation solution `x_ij` of an assignment problem
//! (each item `i` fractionally spread over choices `j`), produce a 0/1
//! solution. Two procedures:
//!
//! * [`greedy_round`] — the literal Fig. 5 rule: keep already-integral
//!   rows, otherwise pick the choice with the largest fractional value.
//!   Linear in the number of nonzero fractions; load-oblivious.
//! * [`greedy_round_loaded`] — the load-aware variant used for the
//!   min-max-capacitance objective (eq. 3): rows are fixed in decreasing
//!   max-fraction order (the global argmax order of Fig. 5), per-ring
//!   loads are maintained **incrementally** in a lazy max-heap, and each
//!   row picks — among its LP-supported candidates — the choice that
//!   least increases the peak load. [`greedy_round_loaded_rescan`] is the
//!   semantically identical quadratic reference that recomputes every
//!   load from scratch at each step; the two are equivalence-tested and
//!   benchmarked against each other.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fractions at least this close to 1 count as integral (step 1.1).
const INTEGRAL: f64 = 1.0 - 1e-9;
/// A candidate is "LP-supported" for the load-aware rule when its fraction
/// is within this slack of the row maximum (and nonzero): the rounder may
/// deviate from the plain argmax only toward choices the relaxation itself
/// put comparable weight on. Kept tight — wider slacks let the rounder
/// wander onto weakly-supported arcs, which lowers the assignment-time
/// peak marginally but degrades the downstream schedule quality the LP
/// fractions encode.
const PLAUSIBLE_SLACK: f64 = 0.25;
/// Fractions at or below this carry no LP support.
const SUPPORT_EPS: f64 = 1e-6;

/// Rounds a fractional assignment to an integral one.
///
/// `fractions[i]` lists the candidate choices of item `i` as
/// `(choice, value)` pairs (values from the LP relaxation, in `[0, 1]`).
/// Returns the chosen `choice` per item — the `argmax` rule of Fig. 5
/// ("find j_max such that x_ij_max ≥ x_ij ∀j; set x_ij_max = 1").
///
/// Ties are broken toward the smaller choice index, making the procedure
/// deterministic.
///
/// # Panics
///
/// Panics if any item has an empty candidate list.
///
/// # Examples
///
/// ```
/// use rotary_solver::greedy_round;
///
/// let fractions = vec![
///     vec![(0, 1.0)],                 // already integral: kept (step 1.1)
///     vec![(0, 0.4), (2, 0.6)],       // fractional: argmax (step 1.2)
/// ];
/// assert_eq!(greedy_round(&fractions), vec![0, 2]);
/// ```
pub fn greedy_round(fractions: &[Vec<(usize, f64)>]) -> Vec<usize> {
    fractions
        .iter()
        .enumerate()
        .map(|(i, cands)| {
            assert!(!cands.is_empty(), "item {i} has no candidates");
            // Step 1.1: an (almost) integral x_ij stays put.
            if let Some(&(j, _)) = cands.iter().find(|&&(_, v)| v >= INTEGRAL) {
                return j;
            }
            // Step 1.2: greedy argmax.
            argmax(cands).0
        })
        .collect()
}

/// The plain argmax rule: largest fraction, ties toward the smaller
/// choice index. Returns `(choice, position-in-candidate-list)`.
fn argmax(cands: &[(usize, f64)]) -> (usize, usize) {
    let mut best = 0usize;
    for (k, &(j, v)) in cands.iter().enumerate().skip(1) {
        let (bj, bv) = cands[best];
        let _ = bj;
        if v > bv + 1e-15 || (v >= bv - 1e-15 && j < cands[best].0) {
            best = k;
        }
    }
    (cands[best].0, best)
}

/// One candidate of a row for the load-aware rounders:
/// `(choice index, LP fraction, load the choice adds to that ring)`.
pub type LoadedCandidate = (usize, f64, f64);

/// `f64` ordered by `total_cmp` so loads can live in a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-ring loads plus a lazily-pruned max-heap over them, so the current
/// peak is an `O(log)` query as rows are fixed one at a time — the
/// incremental replacement for rescanning every ring per step.
struct RingLoads {
    load: Vec<f64>,
    heap: BinaryHeap<(OrdF64, Reverse<usize>)>,
}

impl RingLoads {
    fn new(n: usize) -> Self {
        Self { load: vec![0.0; n], heap: BinaryHeap::new() }
    }

    fn add(&mut self, j: usize, c: f64) {
        debug_assert!(c >= 0.0, "ring loads must be non-negative");
        self.load[j] += c;
        self.heap.push((OrdF64(self.load[j]), Reverse(j)));
    }

    /// Current maximum ring load (0.0 when nothing is loaded yet). Stale
    /// heap entries (superseded by a later `add` to the same ring) are
    /// discarded lazily.
    fn peak(&mut self) -> f64 {
        while let Some(&(OrdF64(v), Reverse(j))) = self.heap.peek() {
            if v == self.load[j] {
                return v;
            }
            self.heap.pop();
        }
        0.0
    }
}

/// Load-aware greedy rounding, incremental version.
///
/// `rows[i]` lists item `i`'s candidates as `(choice, fraction, load)`
/// with non-negative loads; `n_choices` is the number of rings. Semantics
/// (shared bit-for-bit with [`greedy_round_loaded_rescan`]):
///
/// 1. Rows with an (almost) integral fraction are kept as-is and their
///    loads committed, in row order (Fig. 5 step 1.1).
/// 2. The remaining rows are fixed in decreasing max-fraction order (ties
///    toward the smaller row index) — the order the global argmax of
///    Fig. 5 would visit them. For each row, among the LP-supported
///    candidates (fraction within `PLAUSIBLE_SLACK` = 0.25 of the row maximum),
///    pick the one whose commitment least increases the peak ring load;
///    ties prefer the larger fraction, then the smaller choice index.
///
/// Rule 2 degenerates to the plain argmax whenever the LP is confident
/// (one dominant fraction per row) and otherwise steers the unavoidable
/// rounding error away from the most loaded rings — directly the quantity
/// the min-max objective measures.
///
/// # Panics
///
/// Panics if any row has an empty candidate list or references a choice
/// `≥ n_choices`.
pub fn greedy_round_loaded(rows: &[Vec<LoadedCandidate>], n_choices: usize) -> Vec<usize> {
    let mut choice = vec![usize::MAX; rows.len()];
    let mut loads = RingLoads::new(n_choices);

    for (i, cands) in rows.iter().enumerate() {
        assert!(!cands.is_empty(), "item {i} has no candidates");
        if let Some(&(j, _, c)) = cands.iter().find(|&&(_, v, _)| v >= INTEGRAL) {
            choice[i] = j;
            loads.add(j, c);
        }
    }

    for (i, _) in fractional_order(rows, &choice) {
        let peak = loads.peak();
        let (j, c) = pick_loaded(&rows[i], &loads.load, peak);
        choice[i] = j;
        loads.add(j, c);
    }
    choice
}

/// Load-aware greedy rounding, quadratic reference: identical decision
/// rule to [`greedy_round_loaded`], but every step replays the chronology
/// of already-fixed rows to rebuild all ring loads and rescans them for
/// the peak. Kept as the equivalence-test / benchmark baseline.
pub fn greedy_round_loaded_rescan(rows: &[Vec<LoadedCandidate>], n_choices: usize) -> Vec<usize> {
    let mut choice = vec![usize::MAX; rows.len()];
    // Chronological log of committed (ring, load) — replayed in order so
    // the floating-point sums match the incremental version bit for bit.
    let mut log: Vec<(usize, f64)> = Vec::new();

    for (i, cands) in rows.iter().enumerate() {
        assert!(!cands.is_empty(), "item {i} has no candidates");
        if let Some(&(j, _, c)) = cands.iter().find(|&&(_, v, _)| v >= INTEGRAL) {
            choice[i] = j;
            log.push((j, c));
        }
    }

    for (i, _) in fractional_order(rows, &choice) {
        // Full rescan: rebuild loads and peak from the log.
        let mut load = vec![0.0; n_choices];
        for &(j, c) in &log {
            load[j] += c;
        }
        let peak = load.iter().fold(0.0f64, |a, &b| a.max(b));
        let (j, c) = pick_loaded(&rows[i], &load, peak);
        choice[i] = j;
        log.push((j, c));
    }
    choice
}

/// Fractional rows in decreasing max-fraction order, ties toward the
/// smaller row index.
fn fractional_order(rows: &[Vec<LoadedCandidate>], choice: &[usize]) -> Vec<(usize, f64)> {
    let mut order: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .filter(|&(i, _)| choice[i] == usize::MAX)
        .map(|(i, cands)| (i, cands.iter().fold(0.0f64, |a, &(_, v, _)| a.max(v))))
        .collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    order
}

/// The shared row decision: among LP-supported candidates, least peak
/// increase, then larger fraction, then smaller choice index. Falls back
/// to the plain argmax if no candidate clears the support threshold.
fn pick_loaded(cands: &[LoadedCandidate], load: &[f64], peak: f64) -> (usize, f64) {
    let vmax = cands.iter().fold(0.0f64, |a, &(_, v, _)| a.max(v));
    let mut best: Option<(f64, f64, usize, f64)> = None; // (peak_after, v, j, c)
    for &(j, v, c) in cands {
        if v < vmax - PLAUSIBLE_SLACK || v <= SUPPORT_EPS {
            continue;
        }
        let after = (load[j] + c).max(peak);
        let better = match best {
            None => true,
            Some((bp, bv, bj, _)) => after < bp || (after == bp && (v > bv || (v == bv && j < bj))),
        };
        if better {
            best = Some((after, v, j, c));
        }
    }
    match best {
        Some((_, _, j, c)) => (j, c),
        None => {
            // No LP support anywhere (degenerate row): plain argmax.
            let flat: Vec<(usize, f64)> = cands.iter().map(|&(j, v, _)| (j, v)).collect();
            let (j, k) = argmax(&flat);
            (j, cands[k].2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_rows_are_kept() {
        let f = vec![vec![(3, 0.0), (5, 1.0)]];
        assert_eq!(greedy_round(&f), vec![5]);
    }

    #[test]
    fn fractional_rows_take_argmax() {
        let f = vec![vec![(0, 0.2), (1, 0.5), (2, 0.3)]];
        assert_eq!(greedy_round(&f), vec![1]);
    }

    #[test]
    fn ties_break_to_smaller_index() {
        let f = vec![vec![(7, 0.5), (2, 0.5)]];
        assert_eq!(greedy_round(&f), vec![2]);
    }

    #[test]
    fn every_item_gets_exactly_one_choice() {
        let f: Vec<Vec<(usize, f64)>> = (0..50)
            .map(|i| (0..4).map(|j| (j, ((i * 31 + j * 17) % 10) as f64 / 10.0)).collect())
            .collect();
        let r = greedy_round(&f);
        assert_eq!(r.len(), 50);
        for (i, &j) in r.iter().enumerate() {
            assert!(f[i].iter().any(|&(c, _)| c == j));
        }
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidate_list_panics() {
        let _ = greedy_round(&[vec![]]);
    }

    #[test]
    fn near_one_counts_as_integral() {
        let f = vec![vec![(1, 1.0 - 1e-12), (0, 0.9)]];
        // 1−1e-12 ≥ 1−1e-9 is false... it IS ≥; the integral branch fires.
        assert_eq!(greedy_round(&f), vec![1]);
    }

    #[test]
    fn loaded_follows_argmax_when_lp_is_confident() {
        // Dominant fractions: the load-aware rule must not deviate.
        let rows = vec![vec![(0, 0.9, 5.0), (1, 0.1, 1.0)], vec![(1, 0.85, 4.0), (2, 0.15, 0.5)]];
        assert_eq!(greedy_round_loaded(&rows, 3), vec![0, 1]);
    }

    #[test]
    fn loaded_steers_near_ties_away_from_the_peak() {
        // Row 0 commits ring 0 to load 10. Row 1 splits 0.55/0.45; argmax
        // would pile onto ring 0 (peak 20), the load-aware rule takes the
        // supported alternative (peak stays 10).
        let rows = vec![vec![(0, 1.0, 10.0)], vec![(0, 0.55, 10.0), (1, 0.45, 3.0)]];
        assert_eq!(greedy_round_loaded(&rows, 2), vec![0, 1]);
        // The plain rule demonstrates the gap.
        let flat: Vec<Vec<(usize, f64)>> =
            rows.iter().map(|r| r.iter().map(|&(j, v, _)| (j, v)).collect()).collect();
        assert_eq!(greedy_round(&flat), vec![0, 0]);
    }

    #[test]
    fn loaded_ignores_unsupported_candidates() {
        // Ring 1 would give a lower peak but has zero LP weight: not taken.
        let rows =
            vec![vec![(0, 1.0, 8.0)], vec![(0, 1.0, 8.0)], vec![(0, 0.97, 8.0), (1, 0.03, 0.1)]];
        assert_eq!(greedy_round_loaded(&rows, 2), vec![0, 0, 0]);
    }

    #[test]
    fn incremental_matches_rescan_reference() {
        // Deterministic pseudo-random instances; dyadic fractions/loads so
        // the comparison is exact by construction (sums replay in the same
        // chronological order in both versions anyway).
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let n_rings = 6;
            let rows: Vec<Vec<LoadedCandidate>> = (0..40)
                .map(|_| {
                    let k = 2 + next(3) as usize;
                    let mut cands: Vec<LoadedCandidate> = (0..k)
                        .map(|_| {
                            (
                                next(n_rings as u64) as usize,
                                next(256) as f64 / 256.0,
                                next(64) as f64 / 16.0,
                            )
                        })
                        .collect();
                    cands.dedup_by_key(|c| c.0);
                    cands
                })
                .collect();
            assert_eq!(
                greedy_round_loaded(&rows, n_rings),
                greedy_round_loaded_rescan(&rows, n_rings),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn loaded_peak_never_worse_than_plain_argmax() {
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let n_rings = 5;
            let rows: Vec<Vec<LoadedCandidate>> = (0..30)
                .map(|i| {
                    (0..3)
                        .map(|k| {
                            let j = (i + k) % n_rings;
                            (j, next(256) as f64 / 256.0, 1.0 + next(64) as f64 / 8.0)
                        })
                        .collect()
                })
                .collect();
            let peak_of = |choice: &[usize]| {
                let mut load = vec![0.0f64; n_rings];
                for (i, &j) in choice.iter().enumerate() {
                    let &(_, _, c) = rows[i].iter().find(|&&(r, _, _)| r == j).unwrap();
                    load[j] += c;
                }
                load.iter().fold(0.0f64, |a, &b| a.max(b))
            };
            let flat: Vec<Vec<(usize, f64)>> =
                rows.iter().map(|r| r.iter().map(|&(j, v, _)| (j, v)).collect()).collect();
            let plain: Vec<usize> = greedy_round(&flat);
            let loaded = greedy_round_loaded(&rows, n_rings);
            assert!(
                peak_of(&loaded) <= peak_of(&plain) + 1e-12,
                "seed {seed}: loaded {} vs plain {}",
                peak_of(&loaded),
                peak_of(&plain)
            );
        }
    }
}
