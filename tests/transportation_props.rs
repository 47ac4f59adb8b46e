//! Property-based tests for the stage-3 network-flow assignment
//! (`solver::mcmf::solve_transportation`: one cold supply-form network
//! simplex solve plus the canonical extraction).
//!
//! * cold solves along a random sequence of cost drifts, candidate
//!   add/drop and capacity rewrites match the one-shot float
//!   `FlowNetwork` reference at every step: same feasibility verdict,
//!   exact same optimum (2^40-quantized costs are exactly representable
//!   in `f64`), and a valid assignment achieving it;
//! * the supply-form canonical distances equal exact Bellman–Ford
//!   distances over the residual of the reference optimum, including
//!   instances where every cost is equal (full ties);
//! * degenerate inputs, and an instance at the flow's cost scale that the
//!   `i128` pivot arithmetic holds and `i64` provably does not.

use proptest::prelude::*;
use rotary::solver::mcmf::{
    solve_transportation, ArcId, Circulation, FlowNetwork, TransportationInfeasible,
    TransportationSolution,
};

/// Fixed-point scale matching the engine integration in `core::assign`.
const COST_SCALE: f64 = 1_099_511_627_776.0; // 2^40

/// Builds per-flip-flop candidate lists from raw proptest draws: each
/// flip-flop gets up to three distinct rings with 2^40-quantized costs.
fn build_cands(f: usize, r: usize, picks: &[(usize, f64)]) -> Vec<Vec<(u32, i64)>> {
    (0..f)
        .map(|i| {
            let mut list: Vec<(u32, i64)> = Vec::new();
            for &(ring, cost) in &picks[3 * i..3 * i + 3] {
                let j = (ring % r) as u32;
                if !list.iter().any(|&(jj, _)| jj == j) {
                    list.push((j, (cost * COST_SCALE).round() as i64));
                }
            }
            list
        })
        .collect()
}

/// The Fig.-4 network on the float reference engine, solved by successive
/// shortest paths: `None` when the instance is infeasible, else the
/// network (for its optimal flow), the candidate arc handles per
/// flip-flop, the ring→sink arc handles, and the optimal cost.
type Reference = (FlowNetwork, Vec<Vec<ArcId>>, Vec<ArcId>, i128);

fn reference(cands: &[Vec<(u32, i64)>], caps: &[i64]) -> Option<Reference> {
    let f = cands.len();
    let r = caps.len();
    let mut net = FlowNetwork::new(2 + f + r);
    let s = net.node(0);
    let t = net.node(1);
    let mut cand_arcs = Vec::new();
    for (i, list) in cands.iter().enumerate() {
        net.add_arc(s, net.node(2 + i), 1, 0.0);
        cand_arcs.push(
            list.iter()
                .map(|&(j, c)| {
                    net.add_arc(net.node(2 + i), net.node(2 + f + j as usize), 1, c as f64)
                })
                .collect(),
        );
    }
    let sink_arcs = caps
        .iter()
        .enumerate()
        .map(|(j, &cap)| net.add_arc(net.node(2 + f + j), t, cap, 0.0))
        .collect();
    let (flow, cost) = if f == 0 { (0, 0.0) } else { net.min_cost_flow(s, t, f as i64)? };
    (flow == f as i64).then_some((net, cand_arcs, sink_arcs, cost.round() as i128))
}

fn oracle(cands: &[Vec<(u32, i64)>], caps: &[i64]) -> Option<i128> {
    reference(cands, caps).map(|(.., cost)| cost)
}

/// Validity of an extracted assignment: every flip-flop on one of its own
/// candidates, no ring over capacity, reported cost consistent.
fn assert_valid(
    tp: &TransportationSolution,
    cands: &[Vec<(u32, i64)>],
    caps: &[i64],
) -> Result<(), String> {
    prop_assert_eq!(tp.assignment.len(), cands.len());
    let mut loads = vec![0i64; caps.len()];
    let mut total = 0i128;
    for (i, &ring) in tp.assignment.iter().enumerate() {
        let c = cands[i].iter().find(|&&(j, _)| j == ring);
        prop_assert!(c.is_some(), "flip-flop {} assigned to non-candidate ring {}", i, ring);
        total += c.unwrap().1 as i128;
        loads[ring as usize] += 1;
    }
    for (j, (&l, &cap)) in loads.iter().zip(caps).enumerate() {
        prop_assert!(l <= cap, "ring {} over capacity: {} > {}", j, l, cap);
    }
    prop_assert_eq!(total, tp.total_cost);
    Ok(())
}

/// Canonical distances of the supply-form engine on the stage-3 layout
/// (flip-flop `i` = `i`, ring `j` = `f + j`, sink = `f + r`; candidate
/// pairs in rank order, then one ring → sink pair per ring), or `None`
/// when the supplies cannot be met.
fn engine_distances(cands: &[Vec<(u32, i64)>], caps: &[i64]) -> Option<Vec<i128>> {
    let (f, r) = (cands.len(), caps.len());
    let mut pairs = Vec::new();
    let mut pair_caps = Vec::new();
    let mut costs = Vec::new();
    for (i, list) in cands.iter().enumerate() {
        for &(j, c) in list {
            pairs.push((i as u32, (f as u32) + j));
            pair_caps.push(1);
            costs.push(i128::from(c));
        }
    }
    for (j, &cap) in caps.iter().enumerate() {
        pairs.push(((f + j) as u32, (f + r) as u32));
        pair_caps.push(cap);
        costs.push(0);
    }
    let mut supply = vec![0i64; f + r + 1];
    supply[..f].fill(1);
    supply[f + r] = -(f as i64);
    let mut net = Circulation::with_supply(f + r + 1, &pairs, &supply);
    net.solve(&pair_caps, &costs, false);
    net.is_feasible().then(|| net.canonical_distances())
}

/// Exact Bellman–Ford distances from a virtual source (every node at 0)
/// over the residual of the reference optimum, restricted to the pairs
/// the engine models (source arcs excluded), in the engine's node ids.
fn residual_distances(cands: &[Vec<(u32, i64)>], caps: &[i64], reference: &Reference) -> Vec<i128> {
    let (net, cand_arcs, sink_arcs, _) = reference;
    let (f, r) = (cands.len(), caps.len());
    let mut arcs: Vec<(usize, usize, i128)> = Vec::new();
    for (i, list) in cands.iter().enumerate() {
        for (&(j, c), &a) in list.iter().zip(&cand_arcs[i]) {
            let (u, v, c) = (i, f + j as usize, i128::from(c));
            if net.flow_on(a) < 1 {
                arcs.push((u, v, c));
            }
            if net.flow_on(a) > 0 {
                arcs.push((v, u, -c));
            }
        }
    }
    for (j, (&cap, &a)) in caps.iter().zip(sink_arcs).enumerate() {
        let (u, v) = (f + j, f + r);
        if net.flow_on(a) < cap {
            arcs.push((u, v, 0));
        }
        if net.flow_on(a) > 0 {
            arcs.push((v, u, 0));
        }
    }
    let mut d = vec![0i128; f + r + 1];
    for _ in 0..=d.len() {
        let mut changed = false;
        for &(u, v, c) in &arcs {
            if d[u] + c < d[v] {
                d[v] = d[u] + c;
                changed = true;
            }
        }
        if !changed {
            return d;
        }
    }
    panic!("negative residual cycle: reference flow not optimal");
}

proptest! {
    /// Cold solve ≡ the float reference at every step of a drift /
    /// add-drop / capacity sequence: same feasibility verdict, exact same
    /// optimum, and a valid assignment achieving it.
    #[test]
    fn cold_solve_matches_float_reference(
        f in 4usize..10,
        r in 2usize..5,
        picks in prop::collection::vec((0usize..64, 0.0..2.0f64), 30),
        caps_raw in prop::collection::vec(0i64..8, 5),
        steps in prop::collection::vec(
            (
                // Per-flip-flop cost drift (index chooses the flip-flop).
                prop::collection::vec((0usize..64, -0.3..0.3f64), 0..8),
                // Candidate toggles: drop the ring if present, add it if not.
                prop::collection::vec((0usize..64, 0.0..2.0f64), 0..4),
                // One capacity rewrite.
                (0usize..5, 0i64..8),
            ),
            0..5,
        ),
    ) {
        let mut cands = build_cands(f, r, &picks);
        let mut caps: Vec<i64> = caps_raw[..r].to_vec();
        for step in 0..=steps.len() {
            if step > 0 {
                let (drifts, toggles, (cap_ix, cap_val)) = &steps[step - 1];
                for &(ix, delta) in drifts {
                    let dq = (delta * COST_SCALE).round() as i64;
                    for c in cands[ix % f].iter_mut() {
                        c.1 = (c.1 + dq).max(0);
                    }
                }
                for &(ix, cost) in toggles {
                    let i = ix % f;
                    let j = ((ix / f) % r) as u32;
                    if let Some(at) = cands[i].iter().position(|&(jj, _)| jj == j) {
                        if cands[i].len() > 1 {
                            cands[i].remove(at);
                        }
                    } else {
                        cands[i].push((j, (cost * COST_SCALE).round() as i64));
                    }
                }
                caps[cap_ix % r] = *cap_val;
            }
            match (solve_transportation(&cands, &caps), oracle(&cands, &caps)) {
                (Ok(tp), Some(cost)) => {
                    prop_assert!(tp.total_cost == cost, "step {}: cost {} != {}", step, tp.total_cost, cost);
                    assert_valid(&tp, &cands, &caps)?;
                }
                (Err(TransportationInfeasible), None) => {}
                (got, want) => prop_assert!(
                    false, "step {}: engine {:?} disagrees with reference {:?}", step, got, want
                ),
            }
        }
    }

    /// The supply-form canonical distances are the exact shortest residual
    /// distances of *any* optimum — here the float reference's — on small
    /// integer costs (exact in `f64`); `tie == 0` makes every cost equal.
    #[test]
    fn canonical_distances_match_residual_bellman_ford(
        f in 1usize..10,
        r in 1usize..5,
        tie in 0usize..3,
        picks in prop::collection::vec((0usize..64, 0i64..9), 30),
        caps_raw in prop::collection::vec(0i64..8, 5),
    ) {
        let cands: Vec<Vec<(u32, i64)>> = (0..f)
            .map(|i| {
                let mut list: Vec<(u32, i64)> = Vec::new();
                for &(ring, cost) in &picks[3 * i..3 * i + 3] {
                    let j = (ring % r) as u32;
                    if !list.iter().any(|&(jj, _)| jj == j) {
                        list.push((j, if tie == 0 { 5 } else { cost }));
                    }
                }
                list
            })
            .collect();
        let caps: Vec<i64> = caps_raw[..r].to_vec();
        match (engine_distances(&cands, &caps), reference(&cands, &caps)) {
            (Some(d), Some(reference)) => {
                prop_assert_eq!(d, residual_distances(&cands, &caps, &reference));
            }
            (None, None) => {}
            (got, want) => prop_assert!(
                false, "engine {:?} disagrees with reference feasibility {}", got, want.is_some()
            ),
        }
    }
}

#[test]
fn degenerate_zero_flip_flops() {
    let tp = solve_transportation(&[], &[3, 0, 1]).expect("nothing to assign is feasible");
    assert!(tp.assignment.is_empty());
    assert_eq!((tp.total_cost, tp.pivots), (0, 0));
    assert!(solve_transportation(&[], &[]).expect("empty instance").assignment.is_empty());
}

#[test]
fn degenerate_single_ring() {
    let cands: Vec<Vec<(u32, i64)>> = (0..5).map(|i| vec![(0, 10 * i)]).collect();
    let tp = solve_transportation(&cands, &[5]).expect("one ring holds all five");
    assert_eq!(tp.assignment, [0; 5]);
    assert_eq!(tp.total_cost, 100);
    assert_eq!(solve_transportation(&cands, &[4]), Err(TransportationInfeasible));
}

#[test]
fn degenerate_all_zero_costs() {
    // Every arc is tight, so every flip-flop goes through the tie
    // peeling / completion; caps force some off their rank-0 ring.
    let cands: Vec<Vec<(u32, i64)>> =
        (0..9).map(|i| (0..3).map(|k| (((i + k) % 3) as u32, 0)).collect()).collect();
    for caps in [vec![3, 3, 3], vec![9, 0, 0], vec![5, 4, 0], vec![1, 1, 7]] {
        let tp = solve_transportation(&cands, &caps).expect("feasible");
        assert_valid(&tp, &cands, &caps).unwrap();
        assert_eq!(tp.total_cost, 0);
        assert_eq!(solve_transportation(&cands, &caps), Ok(tp), "extraction is deterministic");
    }
    let tp = solve_transportation(&cands, &[3, 3, 3]).unwrap();
    for (i, &ring) in tp.assignment.iter().enumerate() {
        assert_eq!(ring, cands[i][0].0, "rank tiebreak must prefer rank 0 when caps allow");
    }
}

#[test]
fn degenerate_zero_cap_ring() {
    let cands = vec![vec![(0, 1), (1, 9)], vec![(0, 2), (1, 8)], vec![(1, 3)]];
    let tp = solve_transportation(&cands, &[0, 3]).expect("ring 1 takes everyone");
    assert_eq!(tp.assignment, [1, 1, 1]);
    assert_eq!(tp.total_cost, 20);
    let only_dead = vec![vec![(0, 1)], vec![(1, 2)]];
    assert_eq!(solve_transportation(&only_dead, &[0, 5]), Err(TransportationInfeasible));
}

#[test]
fn degenerate_caps_below_flip_flop_count() {
    let cands: Vec<Vec<(u32, i64)>> = (0..6).map(|_| vec![(0, 1), (1, 2), (2, 3)]).collect();
    assert_eq!(solve_transportation(&cands, &[2, 2, 1]), Err(TransportationInfeasible));
    assert!(solve_transportation(&cands, &[2, 2, 2]).is_ok());
}

/// Stage-3 scale: costs ≈ 2^51 (the s35932 maximum is ≈ 2^50.7 at the
/// 2^40 quantization) on f = 1728 flip-flops. The supply form's overflow
/// bound `3·Σ|cost| + 1` is far beyond `i64` here, so an `i64` engine
/// refuses the instance, while the `i128` pivot arithmetic solves it
/// exactly: every flip-flop sends one unit, so the optimum is
/// `f·2^51` plus the optimum of the small offsets, which the float
/// reference computes exactly.
#[test]
fn stage3_cost_scale_needs_i128_and_solves_exactly() {
    let (f, r) = (1728usize, 96usize);
    let base = 1i64 << 51;
    let mut st = 0x5EED_u64;
    let mut next = move || {
        st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (st >> 33) as usize
    };
    let small: Vec<Vec<(u32, i64)>> = (0..f)
        .map(|i| {
            let home = i % r;
            (0..4).map(|k| (((home + 7 * k) % r) as u32, (next() % 1000) as i64)).collect()
        })
        .collect();
    let caps = vec![20i64; r];
    let scaled: Vec<Vec<(u32, i64)>> =
        small.iter().map(|l| l.iter().map(|&(j, c)| (j, base + c)).collect()).collect();

    let sum: i128 = scaled.iter().flatten().map(|&(_, c)| i128::from(c)).sum();
    assert!(3 * sum + 1 > i128::from(i64::MAX), "instance must exceed the i64 bound");
    let i64_engine = std::panic::catch_unwind(|| {
        let pairs: Vec<(u32, u32)> = scaled
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.iter().map(move |&(j, _)| (i as u32, f as u32 + j)))
            .chain((0..r).map(|j| ((f + j) as u32, (f + r) as u32)))
            .collect();
        let mut supply = vec![0i64; f + r + 1];
        supply[..f].fill(1);
        supply[f + r] = -(f as i64);
        let costs: Vec<i64> =
            scaled.iter().flatten().map(|&(_, c)| c).chain(std::iter::repeat_n(0, r)).collect();
        let mut caps_all = vec![1i64; pairs.len() - r];
        caps_all.extend(&caps);
        let mut net: Circulation<i64> = Circulation::with_supply(f + r + 1, &pairs, &supply);
        net.solve(&caps_all, &costs, false);
    });
    assert!(i64_engine.is_err(), "an i64 supply-form engine must refuse, not wrap");

    let tp = solve_transportation(&scaled, &caps).expect("feasible");
    let small_opt = oracle(&small, &caps).expect("feasible");
    assert_eq!(tp.total_cost, f as i128 * i128::from(base) + small_opt);
    let mut loads = vec![0i64; r];
    for (i, &ring) in tp.assignment.iter().enumerate() {
        assert!(scaled[i].iter().any(|&(j, _)| j == ring), "flip-flop {i} off its candidates");
        loads[ring as usize] += 1;
    }
    assert!(loads.iter().zip(&caps).all(|(l, c)| l <= c), "ring over capacity");
}
