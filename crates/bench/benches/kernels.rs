//! Criterion micro-benchmarks of the optimization kernels: tapping solver,
//! min-cost flow assignment, LP relaxation + greedy rounding, and the skew
//! schedulers. These are the per-stage costs behind the CPU columns of
//! Tables I and III–V.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rotary_bench::{placed_circuit, TABLE_SEED};
use rotary_core::assign::{assign_min_max_cap, assign_network_flow};
use rotary_core::skew::{max_slack_schedule, min_feasible_period, weighted_schedule};
use rotary_core::tapping::CandidateCosts;
use rotary_netlist::geom::Point;
use rotary_netlist::BenchmarkSuite;
use rotary_ring::{Ring, RingArray, RingDirection, RingParams};
use rotary_solver::graph::{Source, SpfaGraph};
use rotary_solver::lp::{LpProblem, RowKind};
use rotary_solver::mcmf::{solve_transportation, Circulation, FlowNetwork};
use rotary_solver::rounding::{greedy_round_loaded, greedy_round_loaded_rescan, LoadedCandidate};
use rotary_solver::sparse::{CsrMatrix, SparseLu};
use rotary_solver::{DifferenceSystem, ParametricSystem};
use rotary_timing::{SequentialGraph, Technology};

fn bench_tapping(c: &mut Criterion) {
    let ring =
        Ring::new(Point::new(500.0, 500.0), 150.0, RingDirection::Ccw, RingParams::default());
    c.bench_function("tapping/solve_one_flip_flop", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            let ff = Point::new(300.0 + (k % 400) as f64, 250.0 + (k % 300) as f64);
            let target = (k % 100) as f64 / 100.0;
            std::hint::black_box(ring.tap_for_target(ff, 0.012, target))
        })
    });
}

fn setup_costs(suite: BenchmarkSuite) -> (CandidateCosts, Vec<usize>, usize) {
    setup_costs_k(suite, 9)
}

fn setup_costs_k(suite: BenchmarkSuite, k: usize) -> (CandidateCosts, Vec<usize>, usize) {
    let circuit = placed_circuit(suite);
    let tech = Technology::default();
    let graph = SequentialGraph::extract(&circuit, &tech);
    let schedule = max_slack_schedule(&graph, &tech);
    let params = RingParams { period: schedule.period, ..RingParams::default() };
    let array = RingArray::generate(circuit.die, suite.ring_grid(), params);
    let costs = CandidateCosts::compute(&circuit, &array, &schedule, k);
    let caps = array.capacities();
    let n = array.rings().len();
    (costs, caps, n)
}

fn bench_assignment(c: &mut Criterion) {
    let (costs, caps, n_rings) = setup_costs(BenchmarkSuite::S9234);
    c.bench_function("assign/network_flow_s9234", |b| {
        b.iter_batched(
            || costs.clone(),
            |costs| std::hint::black_box(assign_network_flow(&costs, &caps).expect("feasible")),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("assign/min_max_cap_lp_s9234", |b| {
        b.iter_batched(
            || costs.clone(),
            |costs| std::hint::black_box(assign_min_max_cap(&costs, n_rings).expect("solved")),
            BatchSize::SmallInput,
        )
    });
}

/// The stage-3 transportation at s38417 scale: one cold supply-form
/// network-simplex solve plus the canonical extraction.
fn bench_transportation(c: &mut Criterion) {
    let (costs, caps, _) = setup_costs_k(BenchmarkSuite::S38417, 9);
    let cands: Vec<Vec<(u32, i64)>> = costs
        .candidates
        .iter()
        .map(|list| {
            list.iter().map(|&(rid, wl, _)| (rid.0, (wl * COST_SCALE).round() as i64)).collect()
        })
        .collect();
    let ring_caps: Vec<i64> = caps.iter().map(|&u| u as i64).collect();
    c.bench_function("assign/transportation_cold_s38417", |b| {
        b.iter(|| {
            let tp = solve_transportation(&cands, &ring_caps).expect("feasible");
            std::hint::black_box(tp.assignment.len())
        })
    });
}

fn bench_skew(c: &mut Criterion) {
    let circuit = placed_circuit(BenchmarkSuite::S9234);
    let tech = Technology::default();
    let graph = SequentialGraph::extract(&circuit, &tech);
    c.bench_function("skew/max_slack_s9234", |b| {
        b.iter(|| std::hint::black_box(max_slack_schedule(&graph, &tech)))
    });
    let schedule = max_slack_schedule(&graph, &tech);
    let tech_eff = Technology { clock_period: schedule.period, ..tech };
    let n = graph.flip_flops().len();
    let ideal: Vec<f64> = (0..n).map(|i| 0.13 * (i % 7) as f64).collect();
    let weight: Vec<f64> = (0..n).map(|i| 10.0 + (i % 5) as f64).collect();
    c.bench_function("skew/weighted_dual_s9234", |b| {
        b.iter(|| std::hint::black_box(weighted_schedule(&graph, &tech_eff, &ideal, &weight, 0.0)))
    });
}

fn bench_sta(c: &mut Criterion) {
    let tech = Technology::default();
    for suite in [BenchmarkSuite::S9234, BenchmarkSuite::S38417] {
        let circuit = placed_circuit(suite);
        c.bench_function(format!("sta/sequential_graph_{suite}"), |b| {
            b.iter(|| std::hint::black_box(SequentialGraph::extract(&circuit, &tech)))
        });
    }
    let _ = TABLE_SEED;
}

/// Simplex-basis-like sparse matrix: diagonally dominant, ~4 off-diagonal
/// entries per row at pseudo-random columns (deterministic LCG).
fn basis_like_matrix(m: usize) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(5 * m);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in 0..m {
        triplets.push((i, i, 4.0));
        for k in 0..4 {
            let j = next() % m;
            if j != i {
                triplets.push((i, j, if k % 2 == 0 { -0.5 } else { 0.25 }));
            }
        }
    }
    CsrMatrix::from_triplets(m, m, &triplets)
}

/// Dense Gauss–Jordan inverse — the refactorization step of the dense
/// basis-inverse simplex that `solver::sparse` replaced. Re-implemented
/// here so the speedup stays measurable after the dense path's deletion.
fn dense_inverse(a: &CsrMatrix) -> Vec<Vec<f64>> {
    let m = a.nrows();
    let mut aug: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let mut row = vec![0.0; 2 * m];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                row[j as usize] += v;
            }
            row[m + i] = 1.0;
            row
        })
        .collect();
    for col in 0..m {
        let piv = (col..m)
            .max_by(|&r, &s| aug[r][col].abs().partial_cmp(&aug[s][col].abs()).unwrap())
            .unwrap();
        aug.swap(col, piv);
        let d = aug[col][col];
        for v in aug[col].iter_mut() {
            *v /= d;
        }
        let pivot_row = aug[col].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != col && row[col] != 0.0 {
                let f = row[col];
                for (dst, &p) in row.iter_mut().zip(&pivot_row) {
                    *dst -= f * p;
                }
            }
        }
    }
    aug.into_iter().map(|row| row[m..].to_vec()).collect()
}

fn bench_sparse_lu(c: &mut Criterion) {
    let m = 300;
    let a = basis_like_matrix(m);
    let rhs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 9) as f64 * 0.125).collect();

    c.bench_function("sparse/lu_factor_solve_m300", |b| {
        b.iter(|| {
            let lu = SparseLu::factor(&a).expect("nonsingular");
            let mut x = vec![0.0; m];
            lu.ftran_dense(&rhs, &mut x);
            std::hint::black_box(x)
        })
    });
    c.bench_function("sparse/dense_inverse_solve_m300", |b| {
        b.iter(|| {
            let inv = dense_inverse(&a);
            let x: Vec<f64> =
                inv.iter().map(|row| row.iter().zip(&rhs).map(|(a, b)| a * b).sum()).collect();
            std::hint::black_box(x)
        })
    });
}

/// Difference-constraint-style graph: `n` nodes, ~4n arcs. A node
/// potential `phi` generates the weights (`w = phi(i) − phi(j) + slack`,
/// `slack ≥ 0`), so every cycle is non-negative, while a tight chain
/// (slack 0 along `v → v+1`) forces an `n`-deep shortest-path tree — the
/// structure long FF-to-FF timing paths induce in the skew constraint
/// systems. Arc order is shuffled so pass-based relaxation cannot sweep
/// the chain in one scan.
fn difference_graph(n: usize) -> SpfaGraph {
    let phi = |v: usize| 0.1 * v as f64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut arcs: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * n);
    for v in 0..n - 1 {
        arcs.push((v, v + 1, phi(v) - phi(v + 1)));
    }
    for _ in 0..3 * n {
        let i = next() % n;
        let j = next() % n;
        let slack = ((next() % 64) as f64) / 8.0 * 0.25;
        arcs.push((i, j, phi(i) - phi(j) + slack));
    }
    for k in (1..arcs.len()).rev() {
        arcs.swap(k, next() % (k + 1));
    }
    let mut g = SpfaGraph::new(n);
    for (i, j, w) in arcs {
        g.add_arc(i, j, w);
    }
    g
}

/// The hand-rolled loop `solver::graph` replaced: full-arc relaxation
/// passes until quiescent (textbook Bellman–Ford, no queue).
fn naive_bellman_ford(g: &SpfaGraph, eps: f64) -> Vec<f64> {
    let n = g.num_nodes();
    let arcs: Vec<(usize, usize, f64)> = (0..g.num_arcs()).map(|id| g.arc(id)).collect();
    let mut dist = vec![0.0; n];
    for _ in 0..=n {
        let mut changed = false;
        for &(f, t, w) in &arcs {
            if dist[f] + w < dist[t] - eps {
                dist[t] = dist[f] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

fn bench_spfa(c: &mut Criterion) {
    let g = difference_graph(2000);
    c.bench_function("graph/spfa_virtual_n2000", |b| {
        b.iter(|| std::hint::black_box(g.run(Source::Virtual, 1e-12).into_dist()))
    });
    c.bench_function("graph/naive_bellman_ford_n2000", |b| {
        b.iter(|| std::hint::black_box(naive_bellman_ford(&g, 1e-12)))
    });
}

/// The s9234 timing constraints as the max-slack parametric system:
/// long-path row `t̂_i − t̂_j ≤ skew_upper − m`, short-path row
/// `t̂_j − t̂_i ≤ −skew_lower − m` per sequential pair, tighten 1 on every
/// row — exactly the system stage 2 and stage 4 maximize slack over.
fn timing_difference_system(
    graph: &SequentialGraph,
    tech: &Technology,
) -> (DifferenceSystem, Vec<f64>) {
    let ffs = graph.flip_flops();
    let index_of = |id| ffs.binary_search(&id).expect("flip-flop in graph");
    let mut sys = DifferenceSystem::new(ffs.len());
    for p in graph.pairs() {
        let (i, j) = (index_of(p.from), index_of(p.to));
        sys.add(i, j, p.skew_upper(tech));
        sys.add(j, i, -p.skew_lower(tech));
    }
    let tighten = vec![1.0; sys.constraints().len()];
    (sys, tighten)
}

/// Warm-started parametric engine vs the cold bisection path it replaced:
/// one exact Newton slack maximization against the historical 50-ish-probe
/// rebuild-and-resolve search, and a warm probe sweep (tighten in small
/// steps, relaxing only the violated wavefront) against rebuilding the
/// substituted system cold at every step. Both run on the s9234 timing
/// system — the instance the flow's stage-2/stage-4 schedulers solve.
fn bench_parametric(c: &mut Criterion) {
    let circuit = placed_circuit(BenchmarkSuite::S9234);
    let tech = Technology::default();
    let graph = SequentialGraph::extract(&circuit, &tech);
    // Same period bump as stage 2: the suite cannot run at the nominal
    // period, so slack is maximized at 1.05× the minimum feasible one.
    let period = 1.05 * min_feasible_period(&graph, &tech);
    let tech_eff = Technology { clock_period: period, ..tech };
    let (sys, tighten) = timing_difference_system(&graph, &tech_eff);
    let hi = period;
    c.bench_function("difference/newton_exact_slack_s9234", |b| {
        b.iter(|| {
            let mut par = ParametricSystem::new(&sys, &tighten);
            std::hint::black_box(par.maximize_slack_exact(hi))
        })
    });
    c.bench_function("difference/cold_bisection_slack_s9234", |b| {
        b.iter(|| std::hint::black_box(sys.maximize_slack_with_stats(&tighten, hi, 1e-9)))
    });

    // Probe below the optimum in ascending steps — the feasibility
    // re-checks the cost-driven stage issues as it tightens its wrap
    // bound between placement iterations.
    let mut par0 = ParametricSystem::new(&sys, &tighten);
    let (mstar, _) = par0.maximize_slack_exact(hi).expect("timing system feasible at m = 0");
    let sweep: Vec<f64> = (0..16).map(|k| mstar * k as f64 / 16.0).collect();
    c.bench_function("difference/warm_probe_sweep_s9234", |b| {
        b.iter_batched(
            || {
                let mut par = ParametricSystem::new(&sys, &tighten);
                par.probe(0.0);
                par
            },
            |mut par| {
                for &m in &sweep {
                    std::hint::black_box(par.probe(m));
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("difference/cold_probe_sweep_s9234", |b| {
        b.iter(|| {
            for &m in &sweep {
                let mut cold = DifferenceSystem::new(sys.num_vars());
                for (cns, &t) in sys.constraints().iter().zip(&tighten) {
                    cold.add(cns.i, cns.j, cns.bound - m * t);
                }
                std::hint::black_box(cold.is_feasible());
            }
        })
    });

    // Delta rebind: one Fig. 3 placement iteration perturbs a small
    // fraction of the bounds, then stage 2 re-solves. The warm engine
    // patches the dirty arcs and relaxes from the carried fixpoint; the
    // baseline pays a full rebuild plus a cold Newton solve.
    let patched: Vec<f64> = sys
        .constraints()
        .iter()
        .enumerate()
        .map(|(k, cns)| {
            if k % 16 == 0 {
                cns.bound + if k % 32 == 0 { 0.0009765625 } else { -0.0009765625 }
            } else {
                cns.bound
            }
        })
        .collect();
    let updates: Vec<(usize, f64)> =
        patched.iter().enumerate().filter(|&(k, _)| k % 16 == 0).map(|(k, &b)| (k, b)).collect();
    let mut warmed = ParametricSystem::new(&sys, &tighten);
    warmed.maximize_slack_exact(hi).expect("timing system feasible before the delta");
    c.bench_function("difference/delta_rebind_resolve_s9234", |b| {
        b.iter_batched(
            || warmed.clone(),
            |mut par| {
                par.update_bounds(&updates);
                std::hint::black_box(par.maximize_slack_exact(hi))
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("difference/full_rebuild_resolve_s9234", |b| {
        b.iter(|| {
            let mut rebuilt = DifferenceSystem::new(sys.num_vars());
            for (cns, &bound) in sys.constraints().iter().zip(&patched) {
                rebuilt.add(cns.i, cns.j, bound);
            }
            let mut par = ParametricSystem::new(&rebuilt, &tighten);
            std::hint::black_box(par.maximize_slack_exact(hi))
        })
    });
}

/// An s38417-sized eq. 3 relaxation: `items` flip-flops with up to `k`
/// candidate rings each out of `bins` rings, min-max load with a small
/// distinct wirelength tiebreak — the column/row shape stage 3 hands the
/// simplex on the largest suites (~13k columns × ~1.5k rows).
fn assignment_lp(items: usize, bins: usize, k: usize) -> LpProblem {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64
    };
    let mut obj = Vec::new();
    let mut item_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(items);
    let mut bin_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); bins];
    for i in 0..items {
        let first = (i * 7) % bins;
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(k);
        let mut seen = vec![false; bins];
        for c in 0..k {
            let bin = (first + c * (c + 3)) % bins;
            if seen[bin] {
                continue;
            }
            seen[bin] = true;
            let col = obj.len();
            obj.push(1e-4 * (1.0 + next()));
            bin_rows[bin].push((col, 0.25 + next()));
            row.push((col, 1.0));
        }
        item_rows.push(row);
    }
    let t = obj.len();
    obj.push(1.0);
    let mut lp = LpProblem::minimize(obj);
    for row in &item_rows {
        lp.add_row(RowKind::Eq, 1.0, row);
    }
    for mut br in bin_rows {
        if br.is_empty() {
            continue;
        }
        br.push((t, -1.0));
        lp.add_row(RowKind::Le, 0.0, &br);
    }
    lp
}

/// Rounding input at the same scale: per-row candidate lists where the LP
/// left one dominant fraction and a couple of small competitors.
fn rounding_rows(items: usize, bins: usize, k: usize) -> Vec<Vec<LoadedCandidate>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64
    };
    (0..items)
        .map(|i| {
            let first = (i * 11) % bins;
            let lead = 0.55 + 0.45 * next();
            let mut rest = 1.0 - lead;
            (0..k)
                .map(|c| {
                    let bin = (first + c * (c + 5)) % bins;
                    let frac = if c == 0 {
                        lead
                    } else {
                        let f = rest / (k - c) as f64;
                        rest -= f;
                        f
                    };
                    (bin, frac, 0.25 + next())
                })
                .collect()
        })
        .collect()
}

fn bench_lp(c: &mut Criterion) {
    let lp = assignment_lp(1463, 49, 9);
    c.bench_function("lp/simplex_dantzig_full_s38417_sized", |b| {
        b.iter(|| std::hint::black_box(lp.solve()))
    });

    // The same solve on the *real* s38417 relaxation (stage-3 problem at
    // the stage-2 schedule, this file's K = 9 pruning depth).
    let (costs, _, n_rings) = setup_costs(BenchmarkSuite::S38417);
    let (real, _) = rotary_core::assign::min_max_lp(&costs, n_rings);
    c.bench_function("lp/simplex_dantzig_full_s38417_real", |b| {
        b.iter(|| std::hint::black_box(real.solve()))
    });

    let rows = rounding_rows(1463, 49, 6);
    c.bench_function("lp/round_incremental_s38417_sized", |b| {
        b.iter(|| std::hint::black_box(greedy_round_loaded(&rows, 49)))
    });
    c.bench_function("lp/round_rescan_s38417_sized", |b| {
        b.iter(|| std::hint::black_box(greedy_round_loaded_rescan(&rows, 49)))
    });

    // Dual-simplex basis repair vs a cold restart on a drifted s38417
    // relaxation: the K=9 optimum's basis is resolved by stable key into
    // the K=8 problem (every flip-flop loses its farthest candidate
    // column), exactly the carry stage 3 performs between Fig. 3
    // iterations. Both benches solve the *same* K=8 LP, so the gap is
    // pure pivot work saved by the repaired basis.
    let (costs9, _, n_rings9) = setup_costs(BenchmarkSuite::S38417);
    let (lp9, _) = rotary_core::assign::min_max_lp(&costs9, n_rings9);
    let (_, basis9) = lp9.solve_with_basis(None);
    let basis9 = basis9.expect("K=9 relaxation solves to optimality");
    let (costs8, _, n_rings8) = setup_costs_k(BenchmarkSuite::S38417, 8);
    let (lp8, _) = rotary_core::assign::min_max_lp(&costs8, n_rings8);
    c.bench_function("lp/dual_repair_warm_vs_cold/warm_s38417_real", |b| {
        b.iter(|| std::hint::black_box(lp8.solve_with_basis(Some(&basis9))))
    });
    c.bench_function("lp/dual_repair_warm_vs_cold/cold_s38417_real", |b| {
        b.iter(|| std::hint::black_box(lp8.solve()))
    });
}

/// Fixed-point cost scale matching `core::skew`'s engine integration.
const COST_SCALE: f64 = 1_099_511_627_776.0; // 2^40

/// Stage-4 circulation dual at a given flip-flop count: `n` nodes plus
/// the reference node R, ~4n constraint arcs generated from a potential
/// (every cycle non-negative, as a feasible timing system guarantees; a
/// tight chain forces deep shortest-path trees like long FF-to-FF paths
/// do), and an R-arc pair per node with integer weight capacity and
/// ±ideal cost. Returns `(pairs, caps, quantized costs)` in the same arc
/// order `core::skew` builds: constraints first, then R pairs.
fn circulation_instance(n: usize) -> (Vec<(u32, u32)>, Vec<i64>, Vec<i64>) {
    let phi = |v: usize| 0.001 * ((v * 37) % 1000) as f64;
    let q = |x: f64| (x * COST_SCALE).round() as i64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let weights: Vec<i64> = (0..n).map(|i| 1 + ((i * 13) % 40) as i64).collect();
    let total_w: i64 = weights.iter().sum();
    let mut pairs = Vec::with_capacity(6 * n);
    let mut caps = Vec::with_capacity(6 * n);
    let mut costs = Vec::with_capacity(6 * n);
    for v in 0..n - 1 {
        pairs.push((v as u32, (v + 1) as u32));
        caps.push(total_w);
        costs.push(q(phi(v) - phi(v + 1)));
    }
    for _ in 0..3 * n {
        let i = next() % n;
        let j = next() % n;
        if i == j {
            continue;
        }
        let slack = (next() % 64) as f64 / 256.0;
        pairs.push((i as u32, j as u32));
        caps.push(total_w);
        costs.push(q(phi(i) - phi(j) + slack));
    }
    for (i, &w) in weights.iter().enumerate() {
        let t = 0.25 * ((i * 7) % 8) as f64;
        pairs.push((i as u32, n as u32));
        caps.push(w);
        costs.push(q(t));
        pairs.push((n as u32, i as u32));
        caps.push(w);
        costs.push(q(-t));
    }
    (pairs, caps, costs)
}

fn bench_mcmf(c: &mut Criterion) {
    // s35932 has 1728 flip-flops — the largest stage-4 instance the
    // battery solves.
    let n = 1728;
    let (pairs, caps, costs) = circulation_instance(n);
    c.bench_function("mcmf/network_simplex_cold_s35932_sized", |b| {
        b.iter_batched(
            || Circulation::new(n + 1, &pairs),
            |mut eng| {
                eng.solve(&caps, &costs, false);
                std::hint::black_box(eng.canonical_distances())
            },
            BatchSize::SmallInput,
        )
    });

    // Warm re-solve after a phase re-wrap round: a T/2 shift on ~3% of
    // the R-arc pairs (the flip-flops that wrapped), everything else
    // untouched — the exact cost drift `Flow::cost_driven` produces. The
    // caps are unchanged, so the solve resumes from the carried basis.
    let mut warm_src = Circulation::new(n + 1, &pairs);
    warm_src.solve(&caps, &costs, false);
    let base = pairs.len() - 2 * n;
    let half = (0.5 * COST_SCALE) as i64;
    let mut wrapped = costs.clone();
    for i in (0..n).step_by(32) {
        wrapped[base + 2 * i] += half;
        wrapped[base + 2 * i + 1] -= half;
    }
    c.bench_function("mcmf/network_simplex_warm_rewrap_s35932_sized", |b| {
        b.iter_batched(
            || warm_src.clone(),
            |mut eng| {
                eng.solve(&caps, &wrapped, true);
                std::hint::black_box(eng.canonical_distances())
            },
            BatchSize::SmallInput,
        )
    });

    // The one-shot f64 reference engine, kept at a smaller size
    // (s15850-ish flip-flop count) so the bench stays tractable — it
    // augments one path per round.
    let n_ref = 600;
    let (rpairs, rcaps, rcosts) = circulation_instance(n_ref);
    c.bench_function("mcmf/reference_circulation_n600", |b| {
        b.iter_batched(
            || {
                let mut net = FlowNetwork::new(n_ref + 1);
                for ((&(i, j), &cap), &cost) in rpairs.iter().zip(&rcaps).zip(&rcosts) {
                    net.add_arc(
                        net.node(i as usize),
                        net.node(j as usize),
                        cap,
                        cost as f64 / COST_SCALE,
                    );
                }
                net
            },
            |mut net| std::hint::black_box(net.min_cost_circulation()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_tapping, bench_assignment, bench_transportation, bench_skew, bench_sta,
        bench_sparse_lu, bench_spfa, bench_parametric, bench_lp, bench_mcmf
}
criterion_main!(kernels);
