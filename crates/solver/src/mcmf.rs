//! Min-cost network flow.
//!
//! Three entry points:
//!
//! * [`FlowNetwork::min_cost_flow`] — successive shortest augmenting paths
//!   with Johnson potentials (Dijkstra inside); optimal for the flip-flop
//!   assignment network of Section V (Fig. 4), which has non-negative costs
//!   and integral capacities.
//! * [`FlowNetwork::min_cost_circulation`] — saturate every negative-cost
//!   arc, then route the resulting imbalances back via successive shortest
//!   paths; the original one-shot engine for the dual of the weighted-sum
//!   skew optimization, where arcs carry signed costs and no source/sink
//!   exists. Kept as the reference implementation.
//! * [`Transportation`] — the incremental engine behind the stage-3
//!   flip-flop → ring assignment: exact integer costs on the same
//!   paired-slot CSR layout as [`Circulation`], warm re-solves that carry
//!   flow keyed by `(ff, ring)` and dual potentials across Fig.-3
//!   iterations, and a canonical-dual extraction that makes warm and cold
//!   assignments bit-identical by construction.
//! * [`Circulation`] — the incremental engine the flow actually runs:
//!   fixed topology built once into flat CSR adjacency (mirroring
//!   [`crate::graph::WarmSpfa`]), exact *integer* arc costs, primal-dual
//!   rounds (each multi-source Dijkstra serves its settled deficits along
//!   the shortest-path trees, then reroutes any saturation shortfall with
//!   a root-guided blocking flow over the admissible subgraph — not one
//!   path per round), and warm re-solves that keep the previous flow and
//!   potentials when only caps/costs change.
//!
//! [`FlowNetwork`] costs are `f64` with a small comparison tolerance;
//! [`Circulation`] costs are `i64` (callers quantize once) so optimality
//! is exact and the recovered duals are canonical. Capacities are integral
//! (`i64`) everywhere, so augmentations preserve integrality and the
//! assignment solutions are automatically 0/1.
//!
//! No relaxation loop lives in this module: all Bellman–Ford-style work
//! (potential initialization, negative-cycle search, optimal and canonical
//! potentials) runs on the shared SPFA kernel in [`crate::graph`], and the
//! Dijkstra passes of the successive-shortest-path methods run on the
//! generic [`crate::graph::Dijkstra`] kernel — [`FlowNetwork`] with `f64`
//! reduced costs, [`Circulation`] and [`Transportation`] with exact `i64`
//! reduced costs.

use crate::graph::{Dijkstra, RelaxOutcome, SettleControl, Source, SpfaGraph, WarmSpfa, NO_PRED};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Node handle in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Arc handle in a [`FlowNetwork`] (refers to the forward arc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArcId(pub u32);

#[derive(Debug, Clone)]
struct Arc {
    to: u32,
    cap: i64,
    cost: f64,
}

/// A directed flow network with paired residual arcs.
///
/// # Examples
///
/// ```
/// use rotary_solver::mcmf::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// let s = net.node(0);
/// let t = net.node(3);
/// net.add_arc(s, net.node(1), 1, 1.0);
/// net.add_arc(s, net.node(2), 1, 2.0);
/// net.add_arc(net.node(1), t, 1, 1.0);
/// net.add_arc(net.node(2), t, 1, 1.0);
/// let (flow, cost) = net.min_cost_flow(s, t, 2).expect("feasible");
/// assert_eq!(flow, 2);
/// assert!((cost - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    arcs: Vec<Arc>,
    adj: Vec<Vec<u32>>,
    augmentations: usize,
    correction_paths: usize,
}

const EPS: f64 = 1e-9;

impl FlowNetwork {
    /// Creates a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { arcs: Vec::new(), adj: vec![Vec::new(); n], augmentations: 0, correction_paths: 0 }
    }

    /// Augmenting paths pushed by [`Self::min_cost_flow`] so far
    /// (telemetry).
    pub fn augmentations(&self) -> usize {
        self.augmentations
    }

    /// Correction paths routed by [`Self::min_cost_circulation`] so far
    /// (telemetry). Each is one successive-shortest-path augmentation of
    /// phase 2 — *not* a negative-cycle cancellation; the PR-2 rewrite
    /// replaced Klein's cycle canceling with saturate-and-correct but kept
    /// the old counter name, fixed here.
    pub fn correction_paths(&self) -> usize {
        self.correction_paths
    }

    /// Node handle for index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> NodeId {
        assert!(i < self.adj.len(), "node {i} out of range");
        NodeId(i as u32)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds an arc `from → to` with capacity `cap ≥ 0` and per-unit `cost`.
    /// Returns a handle usable with [`Self::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics if `cap < 0`.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cap: i64, cost: f64) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        let id = self.arcs.len() as u32;
        self.arcs.push(Arc { to: to.0, cap, cost });
        self.arcs.push(Arc { to: from.0, cap: 0, cost: -cost });
        self.adj[from.0 as usize].push(id);
        self.adj[to.0 as usize].push(id + 1);
        ArcId(id)
    }

    /// Flow currently on a forward arc (= residual capacity of its twin).
    pub fn flow_on(&self, arc: ArcId) -> i64 {
        self.arcs[arc.0 as usize ^ 1].cap
    }

    /// Sends up to `target` units from `s` to `t` at minimum cost.
    /// Returns `(flow_sent, total_cost)`; `None` if *no* flow can be sent at
    /// all. `flow_sent < target` means the network saturated early.
    ///
    /// Costs may be negative: potentials are initialized with Bellman–Ford,
    /// then maintained by Dijkstra (Johnson's technique).
    pub fn min_cost_flow(&mut self, s: NodeId, t: NodeId, target: i64) -> Option<(i64, f64)> {
        let n = self.adj.len();
        let mut potential = self.bellman_ford_potentials(s.0 as usize)?;
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        let mut dij = Dijkstra::<f64>::new(n);

        while total_flow < target {
            // Dijkstra on reduced costs.
            {
                let (arcs, adj, pot) = (&self.arcs, &self.adj, &potential);
                dij.run(
                    std::iter::once(s.0 as usize),
                    EPS,
                    |u| {
                        adj[u].iter().filter_map(move |&ai| {
                            let arc = &arcs[ai as usize];
                            if arc.cap <= 0 {
                                return None;
                            }
                            let v = arc.to as usize;
                            if pot[v].is_infinite() || pot[u].is_infinite() {
                                return None;
                            }
                            let rc = arc.cost + pot[u] - pot[v];
                            // clamp tiny negatives from fp noise
                            Some((ai, arc.to, rc.max(0.0)))
                        })
                    },
                    |_, _| SettleControl::Continue,
                );
            }
            if dij.dist()[t.0 as usize].is_infinite() {
                break;
            }
            for (v, d) in dij.dist().iter().enumerate() {
                if d.is_finite() && potential[v].is_finite() {
                    potential[v] += d;
                }
            }
            // Bottleneck along the path.
            let mut push = target - total_flow;
            let mut v = t.0 as usize;
            while dij.pred()[v] != NO_PRED {
                let ai = dij.pred()[v] as usize;
                push = push.min(self.arcs[ai].cap);
                v = self.arcs[ai ^ 1].to as usize;
            }
            // Apply.
            let mut v = t.0 as usize;
            while dij.pred()[v] != NO_PRED {
                let ai = dij.pred()[v] as usize;
                self.arcs[ai].cap -= push;
                self.arcs[ai ^ 1].cap += push;
                total_cost += push as f64 * self.arcs[ai].cost;
                v = self.arcs[ai ^ 1].to as usize;
            }
            total_flow += push;
            self.augmentations += 1;
        }
        if total_flow == 0 && target > 0 {
            None
        } else {
            Some((total_flow, total_cost))
        }
    }

    /// The residual graph (arcs with remaining capacity) as an SPFA
    /// problem, plus the map from SPFA arc id back to network arc index.
    fn residual_graph(&self) -> (SpfaGraph, Vec<u32>) {
        let n = self.adj.len();
        let mut g = SpfaGraph::new(n);
        let mut back = Vec::new();
        for (u, out) in self.adj.iter().enumerate() {
            for &ai in out {
                let arc = &self.arcs[ai as usize];
                if arc.cap > 0 {
                    g.add_arc(u, arc.to as usize, arc.cost);
                    back.push(ai);
                }
            }
        }
        (g, back)
    }

    /// Initial potentials via SPFA from `s` over residual arcs.
    /// Unreachable nodes get `+∞`. Returns `None` on a negative cycle
    /// reachable from `s` (cannot happen for well-formed inputs).
    fn bellman_ford_potentials(&self, s: usize) -> Option<Vec<f64>> {
        let (g, _) = self.residual_graph();
        g.run(Source::Node(s), EPS).shortest().map(|sp| sp.dist)
    }

    /// Computes a minimum-cost circulation. Returns the total cost of the
    /// circulation (≤ 0).
    ///
    /// Instead of canceling one negative residual cycle per SPFA run
    /// (Klein's algorithm — a full negative-cycle detection per round),
    /// this uses the classic saturate-and-correct reduction: every
    /// negative-cost residual arc is forced to capacity (phase 1), which
    /// leaves a residual network whose arcs all cost ≥ 0 plus node
    /// imbalances; the imbalances are then routed back at minimum cost by
    /// successive shortest paths with Dijkstra on Johnson-reduced costs
    /// (phase 2). Undoing a phase-1 push through an arc's own twin is
    /// always possible, so phase 2 terminates with every node balanced
    /// and the combined flow is an optimal circulation.
    ///
    /// After return, node *potentials* consistent with optimality
    /// (`cost + π_u − π_v ≥ 0` on every residual arc) can be obtained from
    /// [`Self::optimal_potentials`].
    pub fn min_cost_circulation(&mut self) -> f64 {
        let n = self.adj.len();
        // Phase 1: force flow onto every negative-cost residual arc.
        let mut excess = vec![0i64; n];
        let mut total = 0.0f64;
        for ai in 0..self.arcs.len() {
            let cap = self.arcs[ai].cap;
            if cap > 0 && self.arcs[ai].cost < 0.0 {
                let from = self.arcs[ai ^ 1].to as usize;
                let to = self.arcs[ai].to as usize;
                self.arcs[ai].cap = 0;
                self.arcs[ai ^ 1].cap += cap;
                total += cap as f64 * self.arcs[ai].cost;
                excess[to] += cap;
                excess[from] -= cap;
            }
        }
        // Phase 2: all residual arcs now cost ≥ 0, so zero potentials are
        // valid and each round is a multi-source Dijkstra from the excess
        // nodes to the nearest deficit on reduced costs (shared kernel).
        let mut potential = vec![0.0f64; n];
        let mut dij = Dijkstra::<f64>::new(n);
        while excess.iter().any(|&e| e > 0) {
            {
                let (arcs, adj, pot) = (&self.arcs, &self.adj, &potential);
                dij.run(
                    excess.iter().enumerate().filter_map(|(v, &e)| (e > 0).then_some(v)),
                    EPS,
                    |u| {
                        adj[u].iter().filter_map(move |&ai| {
                            let arc = &arcs[ai as usize];
                            if arc.cap <= 0 {
                                return None;
                            }
                            let v = arc.to as usize;
                            let rc = arc.cost + pot[u] - pot[v];
                            // clamp tiny negatives from fp noise
                            Some((ai, arc.to, rc.max(0.0)))
                        })
                    },
                    |_, _| SettleControl::Continue,
                );
            }
            let Some(t) =
                (0..n).filter(|&v| excess[v] < 0 && dij.dist()[v].is_finite()).min_by(|&a, &b| {
                    dij.dist()[a].partial_cmp(&dij.dist()[b]).unwrap().then(a.cmp(&b))
                })
            else {
                // Unreachable for well-formed inputs: the twin of every
                // phase-1 arc offers a route back to its tail.
                return total;
            };
            // Cap the potential update at the augmenting distance so
            // nodes beyond (or unreached by) this round keep a valid
            // reduced-cost invariant.
            let dt = dij.dist()[t];
            for (v, &d) in dij.dist().iter().enumerate() {
                potential[v] += d.min(dt);
            }
            // Bottleneck along the path, bounded by both imbalances.
            let mut push = -excess[t];
            let mut v = t;
            while dij.pred()[v] != NO_PRED {
                let ai = dij.pred()[v] as usize;
                push = push.min(self.arcs[ai].cap);
                v = self.arcs[ai ^ 1].to as usize;
            }
            let src = v;
            push = push.min(excess[src]);
            let mut v = t;
            while dij.pred()[v] != NO_PRED {
                let ai = dij.pred()[v] as usize;
                self.arcs[ai].cap -= push;
                self.arcs[ai ^ 1].cap += push;
                total += push as f64 * self.arcs[ai].cost;
                v = self.arcs[ai ^ 1].to as usize;
            }
            excess[src] -= push;
            excess[t] += push;
            self.correction_paths += 1;
        }
        total
    }

    /// Potentials `π` with `cost + π_u − π_v ≥ −tol` on all residual arcs
    /// of the current flow (valid after [`Self::min_cost_circulation`]).
    /// Computed by SPFA from the virtual source (every node at 0).
    ///
    /// Canceling stops at a coarser tolerance (1e-7) than this relaxation
    /// (1e-9), so a sub-tolerance negative cycle may survive; the partial
    /// relaxation snapshot is returned in that case, matching the bounded
    /// round count of the old hand-rolled loop.
    pub fn optimal_potentials(&self) -> Vec<f64> {
        let (g, _) = self.residual_graph();
        g.run(Source::Virtual, 1e-9).into_dist()
    }
}

/// Effort counters of one [`Circulation::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CirculationStats {
    /// Correction paths augmented in phase 2 (one per served deficit).
    pub correction_paths: usize,
    /// Multi-source Dijkstra rounds (each serves a batch of deficits).
    pub rounds: usize,
    /// Largest number of correction paths any single round served — the
    /// plateau width of the admissible subgraph. 1 means every round was
    /// a single path (the rounds-≈-paths regime of near-unique quantized
    /// distances); large values mean bulk augmentation fired.
    pub max_round_paths: usize,
    /// Residual arcs force-saturated in phase 1 (negative reduced cost
    /// under the starting potentials).
    pub saturated_arcs: usize,
    /// Arc pairs whose carried flow survived the cap update untouched —
    /// work a cold solve would redo from scratch. Zero on cold solves.
    pub reused_arcs: usize,
    /// Arc pairs whose cap or cost actually changed relative to the warm
    /// engine state (the warm-rebind delta: only these pairs are
    /// re-checked for saturation). Zero on cold solves.
    pub delta_pairs: usize,
    /// Distinct endpoint nodes of the changed pairs. Zero on cold solves.
    pub touched_nodes: usize,
    /// Arc pairs a [`Circulation::solve_hinted`] caller certified
    /// unchanged, which the rebind therefore never scanned (the
    /// converged-subgraph dropout). Zero without a hint.
    pub frozen_pairs: usize,
}

const NO_ARC: u32 = u32::MAX;

/// Borrowed residual arrays + DFS scratch of an incremental engine, as
/// [`admissible_blocking_flow`] needs them. Both [`Circulation`] and
/// [`Transportation`] keep the same paired-slot layout, so the admissible
/// blocking-flow pass is one shared routine instead of two copies.
struct BlockingScratch<'a> {
    heads: &'a [u32],
    cap: &'a mut [i64],
    cost: &'a [i64],
    csr_start: &'a [u32],
    csr_arcs: &'a [u32],
    potential: &'a [i64],
    excess: &'a mut [i64],
    cur: &'a mut Vec<u32>,
    on_path: &'a mut [bool],
    dead: &'a mut [bool],
    path: &'a mut Vec<u32>,
}

/// Pushes a blocking flow from excess to deficit nodes over the admissible
/// subgraph (residual arcs with zero reduced cost under the just-updated
/// potentials) and returns the total units moved.
///
/// Current-arc DFS with two standard marks: `on_path` guards against
/// zero-cost admissible cycles, `dead` prunes nodes whose admissible
/// out-arcs were exhausted when visited. An augmentation grants twin
/// capacity along its path, which can in principle revive pruned arcs
/// behind a cursor or under a `dead` mark — those are deliberately left
/// stale (pruning is always sound, and rewinding was measured quadratic on
/// plateau-heavy rounds); whatever a stale prune hides is served by a
/// later round. May push nothing at all — it runs on the post-tree-serve
/// residual, where the remaining deficits' only access may be a saturated
/// shared arc; round progress is the tree serve's guarantee, not this
/// pass's.
fn admissible_blocking_flow(
    g: BlockingScratch<'_>,
    roots: &[u32],
    correction_paths: &mut usize,
) -> i64 {
    let n = g.potential.len();
    g.cur.clear();
    g.cur.extend_from_slice(&g.csr_start[..n]);
    g.dead.iter_mut().for_each(|d| *d = false);
    debug_assert!(g.on_path.iter().all(|&p| !p));
    let mut pushed = 0i64;
    for &s in roots {
        let s = s as usize;
        if g.excess[s] <= 0 || g.dead[s] {
            continue;
        }
        g.on_path[s] = true;
        g.path.clear();
        let mut v = s;
        loop {
            // Advance v's cursor to its next admissible arc.
            let row_end = g.csr_start[v + 1];
            let mut found = NO_ARC;
            while g.cur[v] < row_end {
                let a = g.csr_arcs[g.cur[v] as usize] as usize;
                if g.cap[a] > 0 {
                    let h = g.heads[a] as usize;
                    if !g.dead[h]
                        && !g.on_path[h]
                        && g.cost[a] + g.potential[v] - g.potential[h] == 0
                    {
                        found = a as u32;
                        break;
                    }
                }
                g.cur[v] += 1;
            }
            let Some(a) = (found != NO_ARC).then_some(found as usize) else {
                // Exhausted: retreat, pruning v for the whole pass.
                g.dead[v] = true;
                g.on_path[v] = false;
                match g.path.pop() {
                    None => break,
                    Some(pa) => {
                        let tail = g.heads[pa as usize ^ 1] as usize;
                        g.cur[tail] += 1;
                        v = tail;
                    }
                }
                continue;
            };
            let h = g.heads[a] as usize;
            if g.excess[h] < 0 {
                // Augment along path + a, bounded by both imbalances
                // and the path bottleneck, then restart from s.
                let mut amt = g.excess[s].min(-g.excess[h]).min(g.cap[a]);
                for &pa in g.path.iter() {
                    amt = amt.min(g.cap[pa as usize]);
                }
                debug_assert!(amt > 0);
                g.cap[a] -= amt;
                g.cap[a ^ 1] += amt;
                for &pa in g.path.iter() {
                    let pa = pa as usize;
                    g.cap[pa] -= amt;
                    g.cap[pa ^ 1] += amt;
                }
                g.excess[s] -= amt;
                g.excess[h] += amt;
                pushed += amt;
                *correction_paths += 1;
                for &pa in g.path.iter() {
                    g.on_path[g.heads[pa as usize] as usize] = false;
                }
                // Cursors and `dead` marks are NOT rewound: the push
                // did grant twin capacity at reduced cost zero along
                // the path, but chasing those revived arcs would
                // rescan every row per augmentation (quadratic in a
                // plateau-heavy round, measured ~0.5 ms/round on the
                // s38417 re-wraps). Monotone cursors keep the pass
                // linear; any path a stale mark hides is found by a
                // later round's fresh pass.
                g.path.clear();
                if g.excess[s] <= 0 {
                    g.on_path[s] = false;
                    break;
                }
                v = s;
                continue;
            }
            // Descend.
            g.path.push(a as u32);
            g.on_path[h] = true;
            v = h;
        }
    }
    pushed
}

/// Which min-cost-circulation algorithm [`Circulation::solve`] runs.
///
/// Both backends terminate at an *exactly* optimal integer circulation, and
/// [`Circulation::canonical_distances`] recovers duals that are a constant
/// of the quantized problem — so schedules derived from either backend are
/// byte-identical. The choice is purely a performance knob:
///
/// * [`Self::SuccessiveShortestPaths`] pays per augmenting path; on
///   near-unique 2^40-quantized distances rounds ≈ paths, which caps it on
///   large cold instances.
/// * [`Self::QuantLadder`] runs the same SSP machinery through a
///   coarse-to-fine ladder of cost quantizations: coarse levels have
///   plateau-rich distances (bulk augmentation serves many deficits per
///   Dijkstra round), and each finer level is a warm repair of the
///   previous level's optimum; the final level runs at the exact input
///   costs, so optimality is identical to the direct solve.
///
/// The configured value can be overridden process-wide by the
/// `ROTARY_MCMF_BACKEND` environment variable (see [`parse_backend`] for
/// the accepted names), read once and cached like
/// [`crate::par::default_max_threads`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CirculationBackend {
    /// Resolves to the empirically fastest backend for this machine class
    /// (see [`effective_backend`]). Currently the quantization ladder:
    /// it shares the SSP warm path exactly and won the cold solves on
    /// every measured suite and route in interleaved A/B (1.1–1.3×
    /// stage-4 wall clock, 29–41% fewer Dijkstra rounds; see
    /// EXPERIMENTS.md). The variant exists so the policy can change
    /// with evidence without touching any caller.
    #[default]
    Auto,
    /// Saturate-and-correct with multi-source Dijkstra rounds (the PR-5
    /// engine).
    SuccessiveShortestPaths,
    /// Coarse-to-fine quantization ladder of warm SSP repairs on cold
    /// solves (effective 4-quantization → exact, see [`LADDER_SHIFTS`])
    /// with wide full-settle plateau rounds, plus the converged-subgraph
    /// dropout hint layered on by `core::skew`.
    QuantLadder,
}

/// Every name [`parse_backend`] accepts, for error listings.
pub const BACKEND_NAMES: &str =
    "auto, ssp / successive_shortest_paths, quant_ladder / quant-ladder / ql";

/// Parses a backend name as accepted by the `ROTARY_MCMF_BACKEND`
/// environment variable and the `tables --backend` flag. Unknown names
/// return an error listing every valid value — never a silent fallback.
pub fn parse_backend(name: &str) -> Result<CirculationBackend, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "auto" => Ok(CirculationBackend::Auto),
        "ssp" | "successive_shortest_paths" => Ok(CirculationBackend::SuccessiveShortestPaths),
        "quant_ladder" | "quant-ladder" | "ql" => Ok(CirculationBackend::QuantLadder),
        other => Err(format!("unknown circulation backend `{other}`; valid: {BACKEND_NAMES}")),
    }
}

/// The `ROTARY_MCMF_BACKEND` override, if the variable is set.
/// Read once per process and cached.
///
/// # Panics
///
/// Panics if the variable is set to an unrecognized value (listing the
/// valid names) — a typo'd backend override must never silently fall back
/// to the default and invalidate an A/B measurement.
pub fn env_backend() -> Option<CirculationBackend> {
    static BACKEND: OnceLock<Option<CirculationBackend>> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let v = std::env::var("ROTARY_MCMF_BACKEND").ok()?;
        match parse_backend(&v) {
            Ok(b) => Some(b),
            Err(msg) => panic!("ROTARY_MCMF_BACKEND: {msg}"),
        }
    })
}

/// The backend a solve configured with `configured` will actually run:
/// the `ROTARY_MCMF_BACKEND` override wins, then the configured value;
/// [`CirculationBackend::Auto`] resolves to the empirically fastest
/// backend — the quantization ladder, which won the interleaved A/B on
/// every measured suite and route (see EXPERIMENTS.md "Runtime —
/// stage-4 quantization ladder"; its warm path is the SSP warm path, so
/// the promotion only changes cold solves). Never returns `Auto`.
pub fn effective_backend(configured: CirculationBackend) -> CirculationBackend {
    match env_backend().unwrap_or(configured) {
        CirculationBackend::Auto => CirculationBackend::QuantLadder,
        resolved => resolved,
    }
}

/// The quantization-ladder refinement schedule: right-shift amounts
/// applied to the exact 2^40-quantized costs, coarsest first. Shift 38
/// solves at an effective 4-quantization — skew costs are O(1) in
/// periods (≲ 2^41 once scaled), so level costs collapse to a handful
/// of distinct values and path distances tie constantly: the wide
/// full-settle rounds drain whole plateaus per blocking pass (~160
/// paths/round on s35932 versus ~1 for direct 2^40 SSP). The second
/// level is shift 0 — the exact costs — entered with the coarse
/// potentials scaled up: the repair it runs is bulk work too (the
/// unwind excess is broad and shallow), and its exactness certifies
/// optimality and pins the canonical dual face. Intermediate 8- or
/// 16-bit steps were measured and lost: every extra level re-unwinds
/// the tight flow-carrying arcs (~one path per flip-flop) without
/// making the final repair any cheaper.
const LADDER_SHIFTS: [u32; 2] = [38, 0];

/// Incremental min-cost circulation over a fixed arc topology.
///
/// Built once from `(from, to)` endpoint pairs; every [`Self::solve`] call
/// supplies fresh capacities and **integer** costs for the same pairs.
/// Storage is flat: paired residual slots (`2k` forward, `2k + 1` twin,
/// twin of slot `a` is `a ^ 1`) and a CSR adjacency over the slots, so the
/// scan of a node's residual out-arcs is one contiguous slice — no
/// `Vec<Vec<u32>>` pointer chasing, no per-solve graph rebuild.
///
/// The algorithm is saturate-and-correct, like
/// [`FlowNetwork::min_cost_circulation`], with three upgrades:
///
/// * **Primal-dual blocking-flow rounds** — each round runs one
///   multi-source Dijkstra (from all excess nodes, on reduced costs, via
///   the shared [`Dijkstra`] kernel) that stops as soon as the settled
///   deficits can absorb the outstanding excess, applies the capped
///   potential update `π_v += min(dist_v, d_max)` (where `d_max` is the
///   stopping distance; it keeps every residual reduced cost
///   non-negative), and then serves
///   the settled deficits along their shortest-path trees at O(path) per
///   push. Only when tree pushes collide on shared saturated arcs does a
///   *blocking flow* run over the admissible (reduced-cost-zero)
///   subgraph — a current-arc DFS from the shortest-path-tree roots that
///   reroutes the shortfall through the detours only a plateau-rich
///   residual has. One label pass therefore serves as many augmentations
///   as the admissible graph supports: on warm re-wrap solves (carried
///   potentials leave wide reduced-cost-zero regions) this collapses
///   rounds by an order of magnitude, while on near-unique distances the
///   admissible graph is a path, rounds stay ≈ one per augmentation, and
///   the serve never pays the graph-scan DFS at all.
/// * **Warm starts** — flow and potentials persist across solves. A
///   re-solve clamps the carried flow to the new caps (shedding surplus as
///   excess/deficit pairs), re-saturates the arcs whose reduced cost went
///   negative under the new costs, and routes only the resulting small
///   imbalances. When few arcs changed, that is a handful of short
///   corrections instead of thousands of full-graph rounds.
/// * **Per-pair early termination** — a warm re-solve diffs the incoming
///   caps/costs against the engine state and re-checks saturation only
///   for the pairs that actually changed: an unchanged pair under
///   unchanged potentials kept its non-negative reduced cost from the
///   previous optimality certificate, so it drops out of the rebind scan
///   entirely. The delta is reported as [`CirculationStats::delta_pairs`]
///   / [`CirculationStats::touched_nodes`].
///
/// Costs are exact `i64` (callers quantize `f64` costs once, at a fixed
/// power-of-two scale): every comparison is exact, so a terminating solve
/// is *exactly* optimal — no tolerance slack. That exactness is what makes
/// warm and cold solves interchangeable: the shortest residual distance
/// from the virtual source to each node equals
/// `OPT(circulation + unit demand) − OPT(circulation)`, a constant of the
/// *problem* rather than of the particular optimal flow, so
/// [`Self::canonical_distances`] returns bit-identical duals no matter
/// which optimal circulation the solve landed on.
///
/// # Examples
///
/// ```
/// use rotary_solver::mcmf::Circulation;
///
/// // Cycle 0 → 1 → 2 → 0, every arc cost −1, caps 2: optimum −6.
/// let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
/// net.solve(&[2, 2, 2], &[-1, -1, -1], false);
/// assert_eq!(net.total_cost(), -6);
/// // Re-solve with one cost flipped: warm start keeps the rest.
/// let stats = net.solve(&[2, 2, 2], &[-1, 3, -1], true);
/// assert_eq!(net.total_cost(), 0);
/// assert!(stats.reused_arcs > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Circulation {
    n: usize,
    /// Head node per residual slot (tail of slot `a` is `heads[a ^ 1]`).
    heads: Vec<u32>,
    /// Residual capacity per slot (forward = cap − flow, twin = flow).
    cap: Vec<i64>,
    /// Signed integer cost per slot (twin = −forward).
    cost: Vec<i64>,
    /// CSR over slots: slots leaving node `u` are
    /// `csr_arcs[csr_start[u]..csr_start[u + 1]]`.
    csr_start: Vec<u32>,
    csr_arcs: Vec<u32>,
    /// Johnson potentials; carried across warm solves.
    potential: Vec<i64>,
    /// Node imbalance (inflow − outflow) during a solve; all-zero between
    /// solves.
    excess: Vec<i64>,
    stats: CirculationStats,
    /// Shared-kernel Dijkstra scratch for the phase-2 label passes.
    dij: Dijkstra<i64>,
    /// Shared-kernel SPFA over the residual slots for
    /// [`Self::canonical_distances`] (arc id = slot id; disabled slots
    /// return [`i64::MAX`]).
    canon: WarmSpfa<i64>,
    backend: CirculationBackend,
    /// Label of the engine variant the last [`Self::solve`] actually ran
    /// (`"ssp-sequential"` or `"quant-ladder"`) — telemetry for A/B
    /// attribution.
    label: &'static str,
    /// Per-slot costs at the quantization-ladder level currently being
    /// routed (empty unless the ladder backend ran a coarse level).
    lcost: Vec<i64>,
    /// Pair indices whose caps/costs changed in the current warm rebind.
    changed: Vec<u32>,
    /// Stamp per node marking it touched by the current rebind delta.
    node_stamp: Vec<u32>,
    stamp_round: u32,
    /// Blocking-flow scratch: current-arc cursor, on-DFS-path and
    /// exhausted-node marks, and the DFS path as a stack of arc slots.
    cur: Vec<u32>,
    on_path: Vec<bool>,
    dead: Vec<bool>,
    path: Vec<u32>,
    /// Dedup mark while collecting the tree roots of a round's served
    /// deficits (cleared after each round).
    root_seen: Vec<bool>,
}

impl Circulation {
    /// Builds the engine over `n` nodes and the given `(from, to)` pairs.
    /// Pair `k` owns residual slots `2k` (forward) and `2k + 1` (twin);
    /// capacities and costs arrive per [`Self::solve`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut heads = Vec::with_capacity(2 * pairs.len());
        for &(from, to) in pairs {
            assert!((from as usize) < n && (to as usize) < n, "arc ({from}, {to}) out of range");
            heads.push(to);
            heads.push(from);
        }
        // CSR over slots, grouped by tail (= head of the twin).
        let mut csr_start = vec![0u32; n + 1];
        for a in 0..heads.len() {
            csr_start[heads[a ^ 1] as usize + 1] += 1;
        }
        for u in 0..n {
            csr_start[u + 1] += csr_start[u];
        }
        let mut cursor = csr_start.clone();
        let mut csr_arcs = vec![0u32; heads.len()];
        for a in 0..heads.len() {
            let u = heads[a ^ 1] as usize;
            csr_arcs[cursor[u] as usize] = a as u32;
            cursor[u] += 1;
        }
        let slot_arcs: Vec<(usize, usize)> =
            (0..heads.len()).map(|a| (heads[a ^ 1] as usize, heads[a] as usize)).collect();
        Self {
            n,
            heads,
            cap: vec![0; 2 * pairs.len()],
            cost: vec![0; 2 * pairs.len()],
            csr_start,
            csr_arcs,
            potential: vec![0; n],
            excess: vec![0; n],
            stats: CirculationStats::default(),
            dij: Dijkstra::new(n),
            canon: WarmSpfa::new(n, &slot_arcs),
            backend: CirculationBackend::default(),
            label: "",
            lcost: Vec::new(),
            changed: Vec::new(),
            node_stamp: vec![u32::MAX; n],
            stamp_round: 0,
            cur: vec![0; n],
            on_path: vec![false; n],
            dead: vec![false; n],
            path: Vec::new(),
            root_seen: vec![false; n],
        }
    }

    /// Selects the circulation backend (defaults to
    /// [`CirculationBackend::Auto`]); the `ROTARY_MCMF_BACKEND` environment
    /// variable overrides this process-wide. Results are byte-identical
    /// either way — only wall clock changes.
    pub fn set_backend(&mut self, backend: CirculationBackend) {
        self.backend = backend;
    }

    /// Label of the engine variant the last [`Self::solve`] ran:
    /// `"ssp-sequential"` or `"quant-ladder"` (empty before the first
    /// solve).
    pub fn backend_label(&self) -> &'static str {
        self.label
    }

    /// Whether [`Self::solve`] should run the quantization ladder: the
    /// env override first, then the configured value, with `Auto`
    /// resolved by [`effective_backend`].
    fn use_quant_ladder(&self) -> bool {
        matches!(effective_backend(self.backend), CirculationBackend::QuantLadder)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of arc pairs.
    pub fn num_pairs(&self) -> usize {
        self.heads.len() / 2
    }

    /// Flow currently on forward arc `k` (= residual capacity of its twin).
    pub fn flow(&self, k: usize) -> i64 {
        self.cap[2 * k + 1]
    }

    /// Total cost of the current circulation, `Σ flow_k · cost_k`, exact.
    pub fn total_cost(&self) -> i64 {
        (0..self.num_pairs())
            .map(|k| i128::from(self.cap[2 * k + 1]) * i128::from(self.cost[2 * k]))
            .sum::<i128>()
            .try_into()
            .expect("circulation cost fits i64")
    }

    /// The Johnson potentials of the last solve (certify `cost + π_u − π_v
    /// ≥ 0` on every residual arc — exact, no tolerance). *Not* canonical
    /// across different optimal circulations; use
    /// [`Self::canonical_distances`] for dual recovery.
    pub fn potentials(&self) -> &[i64] {
        &self.potential
    }

    /// Effort counters of the last [`Self::solve`].
    pub fn stats(&self) -> CirculationStats {
        self.stats
    }

    /// Computes a minimum-cost circulation for the given capacities and
    /// integer costs (indexed by pair, like the constructor's `pairs`).
    ///
    /// With `warm = false` the carried flow and potentials are discarded —
    /// a from-scratch solve. With `warm = true` the previous solve's flow
    /// is clamped to the new caps, arcs whose reduced cost turned negative
    /// under the carried potentials are re-saturated, and only the
    /// resulting imbalances are routed. Either way the result is exactly
    /// optimal; warm starting only changes how fast it arrives.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the pair count or a capacity
    /// is negative.
    pub fn solve(&mut self, caps: &[i64], costs: &[i64], warm: bool) -> CirculationStats {
        self.solve_hinted(caps, costs, warm, None)
    }

    /// [`Self::solve`] with a caller-supplied rebind hint: `hint` lists
    /// the pair indices that *may* have changed since the previous solve
    /// on this engine, certifying every other pair's caps and costs as
    /// byte-identical to the engine state. The rebind diff then scans only
    /// the hinted pairs — the frozen complement never enters the solve's
    /// active region (reported as [`CirculationStats::frozen_pairs`]).
    /// This is the converged-subgraph dropout of the re-wrap loop: between
    /// phase re-wrap rounds only the re-wrapped flip-flops' reference-arc
    /// pairs move, so the caller can name them exactly.
    ///
    /// The hint is a pure accelerator: the `changed` set it produces is
    /// identical to the full diff's (hinted-but-unchanged pairs fail the
    /// same equality test), so the solve path — and every result — is
    /// byte-identical with or without it. Debug builds verify the
    /// caller's certificate against the full diff.
    ///
    /// Ignored (full diff) when `warm` is false.
    pub fn solve_hinted(
        &mut self,
        caps: &[i64],
        costs: &[i64],
        warm: bool,
        hint: Option<&[u32]>,
    ) -> CirculationStats {
        assert_eq!(caps.len(), self.num_pairs(), "capacity vector length mismatch");
        assert_eq!(costs.len(), self.num_pairs(), "cost vector length mismatch");
        self.stats = CirculationStats::default();
        debug_assert!(self.excess.iter().all(|&e| e == 0), "imbalance left by a previous solve");
        if !warm {
            self.potential.iter_mut().for_each(|p| *p = 0);
        }
        self.stamp_round = self.stamp_round.wrapping_add(1);
        if self.stamp_round == 0 {
            self.node_stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.stamp_round = 1;
        }
        self.changed.clear();
        // Install the new caps/costs, clamping carried flow to the new
        // capacity; shed flow becomes an excess/deficit pair routed below.
        // Warm solves diff each pair against the engine state first: a
        // pair with the same total capacity and forward cost is binary-
        // identical to its previous residual state. A hint restricts the
        // diff to the named pairs.
        match hint {
            Some(hinted) if warm => {
                #[cfg(debug_assertions)]
                self.debug_check_hint(caps, costs, hinted);
                self.stats.frozen_pairs = self.num_pairs() - hinted.len();
                for &k in hinted {
                    self.rebind_pair(k as usize, caps[k as usize], costs[k as usize], true);
                }
            }
            _ => {
                for (k, (&cap_k, &cost_k)) in caps.iter().zip(costs).enumerate() {
                    self.rebind_pair(k, cap_k, cost_k, warm);
                }
            }
        }
        self.stats.delta_pairs = self.changed.len();
        // Backend dispatch. Both paths start from the same rebound state
        // (installed caps/costs, carried flow clamped, shed imbalances in
        // `excess`) and end at an exactly optimal circulation.
        if self.use_quant_ladder() {
            self.label = "quant-ladder";
            self.solve_quant_ladder(warm);
            return self.stats;
        }
        self.label = "ssp-sequential";
        self.saturate_phase(warm, false);
        self.route_excess();
        self.stats
    }

    /// Installs pair `k`'s new cap/cost, clamping carried flow and
    /// shedding the surplus into `excess`; on warm rebinds, unchanged
    /// pairs short-circuit out (their previous optimality certificate
    /// still covers them) and changed pairs are recorded in `changed`.
    #[inline]
    fn rebind_pair(&mut self, k: usize, cap_k: i64, cost_k: i64, warm: bool) {
        assert!(cap_k >= 0, "negative capacity");
        let (fwd, twin) = (2 * k, 2 * k + 1);
        if warm {
            if self.cap[fwd] + self.cap[twin] == cap_k && self.cost[fwd] == cost_k {
                if self.cap[twin] > 0 {
                    self.stats.reused_arcs += 1;
                }
                return;
            }
            self.changed.push(k as u32);
            for node in [self.heads[fwd] as usize, self.heads[twin] as usize] {
                if self.node_stamp[node] != self.stamp_round {
                    self.node_stamp[node] = self.stamp_round;
                    self.stats.touched_nodes += 1;
                }
            }
        }
        let carried = if warm { self.cap[twin] } else { 0 };
        let kept = carried.min(cap_k);
        if kept < carried {
            let shed = carried - kept;
            self.excess[self.heads[twin] as usize] += shed;
            self.excess[self.heads[fwd] as usize] -= shed;
        } else if carried > 0 {
            self.stats.reused_arcs += 1;
        }
        self.cap[fwd] = cap_k - kept;
        self.cap[twin] = kept;
        self.cost[fwd] = cost_k;
        self.cost[twin] = -cost_k;
    }

    /// Verifies a [`Self::solve_hinted`] caller's certificate: every pair
    /// outside the hint must be byte-identical to the engine state.
    #[cfg(debug_assertions)]
    fn debug_check_hint(&self, caps: &[i64], costs: &[i64], hinted: &[u32]) {
        let mut in_hint = vec![false; self.num_pairs()];
        for &k in hinted {
            in_hint[k as usize] = true;
        }
        for k in 0..self.num_pairs() {
            if !in_hint[k] {
                assert!(
                    self.cap[2 * k] + self.cap[2 * k + 1] == caps[k]
                        && self.cost[2 * k] == costs[k],
                    "hint certificate violated: pair {k} changed but was not hinted"
                );
            }
        }
    }

    /// Phase 1: force flow onto every residual arc whose reduced cost
    /// under the starting potentials is negative. Cold (π = 0, no carried
    /// flow) this is exactly the classic saturation of negative-cost arcs.
    /// Warm, only the changed pairs need the check — an unchanged pair's
    /// residual slots are byte-identical to the previous solve's, whose
    /// optimality certificate already proved them non-negative under the
    /// carried potentials.
    fn saturate_phase(&mut self, warm: bool, coarse: bool) {
        if warm {
            let changed = std::mem::take(&mut self.changed);
            for &k in &changed {
                self.saturate_slot(2 * k as usize, coarse);
                self.saturate_slot(2 * k as usize + 1, coarse);
            }
            self.changed = changed;
        } else {
            for a in 0..self.heads.len() {
                self.saturate_slot(a, coarse);
            }
        }
    }

    /// Saturates residual slot `a` if its reduced cost under the current
    /// potentials is negative (phase-1 step). With `coarse`, the reduced
    /// cost is taken at the quantization-ladder level materialized in
    /// `lcost` instead of the exact costs.
    fn saturate_slot(&mut self, a: usize, coarse: bool) {
        if self.cap[a] <= 0 {
            return;
        }
        let u = self.heads[a ^ 1] as usize;
        let v = self.heads[a] as usize;
        let c = if coarse { self.lcost[a] } else { self.cost[a] };
        if c + self.potential[u] - self.potential[v] < 0 {
            let push = self.cap[a];
            self.cap[a] = 0;
            self.cap[a ^ 1] += push;
            self.excess[v] += push;
            self.excess[u] -= push;
            self.stats.saturated_arcs += 1;
        }
    }

    /// [`Self::route_excess_on`] at the exact costs (the non-ladder path).
    fn route_excess(&mut self) {
        self.route_excess_on(false, false);
    }

    /// Phase 2: route all node imbalances back at minimum cost. Every
    /// residual arc has non-negative reduced cost on entry (phase 1
    /// guarantees it), so each round is one multi-source Dijkstra from the
    /// excess nodes — on the shared kernel, stopping as soon as the settled
    /// deficits can absorb the outstanding excess — followed by the capped
    /// potential update and a blocking flow over the admissible
    /// (reduced-cost-zero) residual subgraph. With `coarse`, every reduced
    /// cost is taken at the quantization-ladder level materialized in
    /// `lcost`; the exact-cost path reads `cost` directly, so the ladder
    /// costs the hot SSP loop nothing. `wide_roots` hands *every*
    /// outstanding excess node to the round's blocking pass instead of
    /// only the served tree roots — the ladder sets it on all its levels
    /// (distances tie constantly there, so the whole plateau drains per
    /// round), the SSP path never does (ties are rare at near-unique
    /// exact distances, so the wide scan would be flat overhead).
    fn route_excess_on(&mut self, coarse: bool, wide_roots: bool) {
        let mut total: i64 = self.excess.iter().filter(|&&e| e > 0).sum();
        let mut served: Vec<u32> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        while total > 0 {
            self.stats.rounds += 1;
            let round_paths0 = self.stats.correction_paths;
            // d_max = the stopping distance (largest settled deficit
            // distance); caps the potential update so nodes beyond (or
            // unreached by) this round keep the reduced-cost invariant.
            // Every unsettled node's tentative label is ≥ d_max when the
            // pass stops, so `min(dist, d_max)` clamps all of them to
            // d_max.
            let mut d_max = 0i64;
            let mut served_cap = 0i64;
            served.clear();
            {
                let dij = &mut self.dij;
                let cost = if coarse { &self.lcost } else { &self.cost };
                let (heads, cap) = (&self.heads, &self.cap);
                let (csr_start, csr_arcs) = (&self.csr_start, &self.csr_arcs);
                let (potential, excess) = (&self.potential, &self.excess);
                let sources = excess.iter().enumerate().filter_map(|(v, &e)| (e > 0).then_some(v));
                let arcs = |u: usize| {
                    let row = csr_start[u] as usize..csr_start[u + 1] as usize;
                    csr_arcs[row].iter().filter_map(move |&a| {
                        let ai = a as usize;
                        if cap[ai] <= 0 {
                            return None;
                        }
                        let v = heads[ai] as usize;
                        let rc = cost[ai] + potential[u] - potential[v];
                        debug_assert!(rc >= 0, "negative reduced cost inside Dijkstra");
                        Some((a, heads[ai], rc))
                    })
                };
                let served = &mut served;
                // Ladder rounds settle the whole reachable graph instead
                // of stopping at covering capacity: the uncapped update
                // then makes *every* source's shortest path to *every*
                // settled deficit admissible at once, and the wide-root
                // blocking pass drains them all in this round. On the SSP
                // path the covering stop stands — distances are
                // near-unique there, so a full settle would pay the whole
                // graph scan to serve the same single path.
                let settle = |u: usize, d: i64| {
                    if excess[u] < 0 {
                        served.push(u as u32);
                        served_cap += -excess[u];
                        d_max = d;
                        if !wide_roots && served_cap >= total {
                            return SettleControl::Stop;
                        }
                    }
                    SettleControl::Continue
                };
                dij.run(sources, 0, arcs, settle);
            }
            if served.is_empty() {
                // Unreachable for well-formed inputs (the twin of every
                // push offers a route back); clear the imbalance so a
                // later warm solve starts consistent.
                self.excess.iter_mut().for_each(|e| *e = 0);
                return;
            }
            for (p, &d) in self.potential.iter_mut().zip(self.dij.dist()) {
                *p += d.min(d_max);
            }
            // Serve the settled deficits along their shortest-path trees
            // first — O(path) per push, and on near-unique distances (the
            // admissible subgraph is a path) it serves everything this
            // round can serve. Only when tree pushes collide on shared
            // saturated arcs is there anything left to reroute, and only
            // then is the admissible subgraph plateau-rich enough for a
            // blocking-flow pass to find the detours — so the O(scan)
            // pass runs exactly on the rounds where it collapses the
            // round count, never as flat overhead.
            let want = served_cap.min(total);
            let mut pushed = self.tree_serve(&served, total);
            if pushed < want {
                roots.clear();
                if wide_roots {
                    // Quantization-ladder level: distance ties at exactly
                    // d_max are the *common* case (coarse costs fit in a
                    // few bits; refinement repairs start within 2^8 of
                    // optimal), so after the capped update almost every
                    // outstanding source has an admissible route — hand
                    // them all to the blocking pass. This is the bulk
                    // augmentation the ladder levels exist for: one
                    // O(scan) pass drains the whole plateau instead of
                    // one covering-stop Dijkstra per source.
                    roots.extend(
                        self.excess
                            .iter()
                            .enumerate()
                            .filter_map(|(v, &e)| (e > 0).then_some(v as u32)),
                    );
                    // Loop the pass until it runs dry: each pass restarts
                    // with fresh prune marks over the *advanced* residual
                    // capacities, so augmentations a stale `dead` mark hid
                    // (admissible twins revived by an earlier push) are
                    // found now instead of after a whole re-Dijkstra that
                    // would make no dual progress and rediscover the same
                    // admissible graph.
                    loop {
                        let drained = self.blocking_flow(&roots, coarse);
                        pushed += drained;
                        if drained == 0 || pushed >= want {
                            break;
                        }
                    }
                } else {
                    // Admissible excess→deficit detours start (up to
                    // distance ties at exactly d_max — rare on the
                    // near-unique exact-cost distances) from the tree
                    // roots of this round's served deficits: any other
                    // source kept a strictly positive reduced distance to
                    // every settled deficit, and the capped update
                    // preserves that gap.
                    {
                        let pred = self.dij.pred();
                        for &t in &served {
                            let mut v = t as usize;
                            while pred[v] != NO_PRED {
                                v = self.heads[pred[v] as usize ^ 1] as usize;
                            }
                            if !self.root_seen[v] {
                                self.root_seen[v] = true;
                                roots.push(v as u32);
                            }
                        }
                    }
                    roots.sort_unstable();
                    pushed += self.blocking_flow(&roots, coarse);
                    for &r in &roots {
                        self.root_seen[r as usize] = false;
                    }
                }
            }
            total -= pushed;
            let width = self.stats.correction_paths - round_paths0;
            self.stats.max_round_paths = self.stats.max_round_paths.max(width);
        }
    }

    /// Serves settled deficits along their Dijkstra shortest-path trees,
    /// in settle order: bottleneck the pred chain, push, move on. Costs
    /// O(path) per deficit — no scanning, no marks. Earlier pushes may
    /// saturate shared tree arcs or drain a root; such deficits are left
    /// for [`Self::blocking_flow`] (or the next round). The first served
    /// deficit's chain is always unsaturated (Dijkstra only traverses
    /// positive-capacity arcs), so every call pushes ≥ 1 unit — the
    /// round-progress guarantee of [`Self::route_excess`].
    fn tree_serve(&mut self, served: &[u32], total: i64) -> i64 {
        let mut pushed = 0i64;
        let pred = self.dij.pred();
        for &t in served {
            let t = t as usize;
            let mut push = -self.excess[t];
            if push <= 0 {
                continue;
            }
            let mut v = t;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                push = push.min(self.cap[a]);
                v = self.heads[a ^ 1] as usize;
            }
            let root = v;
            push = push.min(self.excess[root]);
            if push <= 0 {
                continue;
            }
            let mut v = t;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                v = self.heads[a ^ 1] as usize;
            }
            self.excess[root] -= push;
            self.excess[t] += push;
            pushed += push;
            self.stats.correction_paths += 1;
            if pushed == total {
                break;
            }
        }
        pushed
    }

    /// Pushes a blocking flow from excess to deficit nodes over the
    /// admissible subgraph (residual arcs with zero reduced cost under the
    /// just-updated potentials) and returns the total units moved. Thin
    /// wrapper over the engine-shared [`admissible_blocking_flow`] pass.
    fn blocking_flow(&mut self, roots: &[u32], coarse: bool) -> i64 {
        admissible_blocking_flow(
            BlockingScratch {
                heads: &self.heads,
                cap: &mut self.cap,
                cost: if coarse { &self.lcost } else { &self.cost },
                csr_start: &self.csr_start,
                csr_arcs: &self.csr_arcs,
                potential: &self.potential,
                excess: &mut self.excess,
                cur: &mut self.cur,
                on_path: &mut self.on_path,
                dead: &mut self.dead,
                path: &mut self.path,
            },
            roots,
            &mut self.stats.correction_paths,
        )
    }

    /// The quantization-ladder backend: solve the circulation at coarse
    /// cost quantization first, then refine level by level down to the
    /// exact 2^40-quantized costs, carrying flow and potentials on the
    /// same paired-slot residual arrays throughout.
    ///
    /// Structure per level (shift `s`): floor-scale the carried potentials
    /// to the level (`π · 2^Δ` between levels — exact — and `π / 2^s` on
    /// coarse entry), materialize the level costs `c_k / 2^s` into
    /// `lcost` (always derived from the *forward* cost and negated for the
    /// twin — an arithmetic shift of the negative twin would break the
    /// antisymmetry), then run one full-slot sign-flip saturation scan and
    /// route the resulting imbalance with the ordinary covering-stop
    /// Dijkstra rounds at the level costs. Coarse levels are plateau-rich
    /// (many distance ties → bulk tree-serve/blocking-flow augmentation,
    /// few rounds); each finer level starts from the previous level's
    /// near-optimal flow, so it is a warm SSP *repair*, not a from-scratch
    /// solve. The final level runs at shift 0 — the exact costs — so the
    /// result is exactly optimal and [`Self::canonical_distances`] lands
    /// on the same canonical dual face as the other backends.
    ///
    /// Warm solves skip the ladder entirely and run a finest-level repair
    /// — identical to the SSP warm path. This is a measured decision, not a
    /// shortcut: carried full-resolution potentials already place most of
    /// the graph on reduced-cost plateaus, so even *dense* rebinds batch
    /// ~5 paths per round under them, while re-coarsening destroys that
    /// precision and then pays ~one unwind path per flip-flop at every
    /// refinement step (each level's floor-rounding error makes every
    /// tight flow-carrying arc's twin slightly negative). The ladder wins
    /// exactly where no potentials exist yet — cold solves, where direct
    /// 2^40 distances are near-unique and rounds ≈ paths.
    fn solve_quant_ladder(&mut self, warm: bool) {
        if warm {
            self.saturate_phase(warm, false);
            self.route_excess_on(false, false);
            return;
        }
        if self.lcost.len() != self.heads.len() {
            self.lcost = vec![0; self.heads.len()];
        }
        // Coarse entry: floor-scale the carried potentials (zero on cold
        // solves) down to the coarsest level. Any potentials are legal —
        // the per-level scan repairs the reduced-cost invariant — but a
        // scaled carry keeps the violation set small on dense rebinds.
        let mut prev_shift = LADDER_SHIFTS[0];
        for p in self.potential.iter_mut() {
            *p >>= prev_shift;
        }
        for (level, &shift) in LADDER_SHIFTS.iter().enumerate() {
            if level > 0 {
                let up = prev_shift - shift;
                for p in self.potential.iter_mut() {
                    *p <<= up;
                }
            }
            prev_shift = shift;
            let coarse = shift != 0;
            if coarse {
                for k in 0..self.num_pairs() {
                    let c = self.cost[2 * k] >> shift;
                    self.lcost[2 * k] = c;
                    self.lcost[2 * k + 1] = -c;
                }
            }
            // Full-slot scan: de/re-saturate exactly the arcs whose
            // reduced-cost sign flips under this level's refined costs
            // (a saturated forward arc that turned strictly profitable
            // to undo shows up as its twin's negative reduced cost).
            for a in 0..self.heads.len() {
                self.saturate_slot(a, coarse);
            }
            self.route_excess_on(coarse, true);
        }
    }

    /// Shortest integer distances from the virtual source (every node at 0)
    /// over the residual arcs of the current circulation — the canonical
    /// dual. Because the solve is exactly optimal, these distances are a
    /// constant of the problem (`OPT(+unit demand) − OPT`), identical for
    /// *every* optimal circulation; warm and cold solves therefore recover
    /// bit-identical values with no re-solve.
    ///
    /// # Panics
    ///
    /// Panics on a negative residual cycle (impossible after a terminating
    /// [`Self::solve`]; guards misuse on an unsolved engine).
    pub fn canonical_distances(&mut self) -> Vec<i64> {
        // Zero labels = virtual source; the exact (`eps = 0`) SPFA
        // fixpoint from fixed starting labels is unique, so this matches
        // any other relaxation order bit for bit. Disabled (zero-cap)
        // slots report `i64::MAX` = `Cost::UNREACHED`.
        let Self { canon, cap, cost, .. } = self;
        canon.reset_zero();
        match canon.relax(|a| if cap[a] > 0 { cost[a] } else { i64::MAX }, 0) {
            RelaxOutcome::Converged => canon.dist().to_vec(),
            RelaxOutcome::NegativeCycle(_) => {
                panic!("negative residual cycle: circulation not optimal")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_network_is_optimal() {
        // 2 flip-flops × 2 rings, costs [[1,5],[4,2]], caps 1 ⇒ optimum 3.
        let mut net = FlowNetwork::new(6);
        let s = net.node(0);
        let t = net.node(5);
        let f = [net.node(1), net.node(2)];
        let r = [net.node(3), net.node(4)];
        for &fi in &f {
            net.add_arc(s, fi, 1, 0.0);
        }
        let costs = [[1.0, 5.0], [4.0, 2.0]];
        let mut arcs = Vec::new();
        for i in 0..2 {
            for j in 0..2 {
                arcs.push(net.add_arc(f[i], r[j], 1, costs[i][j]));
            }
        }
        for &rj in &r {
            net.add_arc(rj, t, 1, 0.0);
        }
        let (flow, cost) = net.min_cost_flow(s, t, 2).expect("feasible");
        assert_eq!(flow, 2);
        assert!((cost - 3.0).abs() < 1e-9);
        assert_eq!(net.flow_on(arcs[0]), 1); // f0→r0
        assert_eq!(net.flow_on(arcs[3]), 1); // f1→r1
    }

    #[test]
    fn capacity_limits_respected() {
        // Both items prefer ring 0 but its capacity is 1.
        let mut net = FlowNetwork::new(5);
        let (s, t) = (net.node(0), net.node(4));
        let f = [net.node(1), net.node(2)];
        let r0 = net.node(3);
        for &fi in &f {
            net.add_arc(s, fi, 1, 0.0);
            net.add_arc(fi, r0, 1, 1.0);
        }
        net.add_arc(r0, t, 1, 0.0);
        let (flow, _) = net.min_cost_flow(s, t, 2).expect("partial");
        assert_eq!(flow, 1, "ring capacity must cap the flow");
    }

    #[test]
    fn saturates_early_when_target_too_large() {
        let mut net = FlowNetwork::new(2);
        let (s, t) = (net.node(0), net.node(1));
        net.add_arc(s, t, 3, 2.0);
        let (flow, cost) = net.min_cost_flow(s, t, 10).expect("some flow");
        assert_eq!(flow, 3);
        assert!((cost - 6.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut net = FlowNetwork::new(2);
        let (s, t) = (net.node(0), net.node(1));
        assert!(net.min_cost_flow(s, t, 1).is_none());
    }

    #[test]
    fn cheaper_long_path_beats_expensive_short_path() {
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (net.node(0), net.node(1), net.node(2), net.node(3));
        net.add_arc(s, t, 1, 10.0);
        net.add_arc(s, a, 1, 1.0);
        net.add_arc(a, b, 1, 1.0);
        net.add_arc(b, t, 1, 1.0);
        let (flow, cost) = net.min_cost_flow(s, t, 1).expect("feasible");
        assert_eq!(flow, 1);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_costs_supported_via_bellman_ford_init() {
        let mut net = FlowNetwork::new(3);
        let (s, a, t) = (net.node(0), net.node(1), net.node(2));
        net.add_arc(s, a, 1, 5.0);
        net.add_arc(a, t, 1, -3.0);
        let (flow, cost) = net.min_cost_flow(s, t, 1).expect("feasible");
        assert_eq!(flow, 1);
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn circulation_cancels_negative_cycle() {
        // Cycle 0→1→2→0 with total cost −3 and bottleneck 2 ⇒ cost −6.
        let mut net = FlowNetwork::new(3);
        let (a, b, c) = (net.node(0), net.node(1), net.node(2));
        net.add_arc(a, b, 2, -1.0);
        net.add_arc(b, c, 2, -1.0);
        net.add_arc(c, a, 2, -1.0);
        let cost = net.min_cost_circulation();
        assert!((cost + 6.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn circulation_on_positive_graph_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(net.node(0), net.node(1), 5, 1.0);
        net.add_arc(net.node(1), net.node(2), 5, 1.0);
        net.add_arc(net.node(2), net.node(0), 5, 1.0);
        assert_eq!(net.min_cost_circulation(), 0.0);
    }

    /// Every residual arc of `net` satisfies `cost + d_u − d_v ≥ 0` under
    /// the canonical distances, and the forward constraint implied by each
    /// *unsaturated* arc holds.
    fn assert_canonical_certificate(net: &mut Circulation) {
        let d = net.canonical_distances();
        for k in 0..net.num_pairs() {
            for (a, sign) in [(2 * k, 1i64), (2 * k + 1, -1i64)] {
                if net.cap[a] > 0 {
                    let (u, v) = (net.heads[a ^ 1] as usize, net.heads[a] as usize);
                    let rc = sign * net.cost[2 * k] + d[u] - d[v];
                    assert!(rc >= 0, "residual slot {a} has negative reduced cost {rc}");
                }
            }
        }
    }

    #[test]
    fn engine_cancels_negative_cycle_exactly() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        let stats = net.solve(&[2, 2, 2], &[-1, -1, -1], false);
        assert_eq!(net.total_cost(), -6);
        assert_eq!(stats.reused_arcs, 0, "cold solve reuses nothing");
        assert_eq!(stats.delta_pairs, 0, "cold solve reports no rebind delta");
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn engine_on_positive_graph_is_zero() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        net.solve(&[5, 5, 5], &[1, 1, 1], false);
        assert_eq!(net.total_cost(), 0);
        assert_eq!((0..3).map(|k| net.flow(k)).sum::<i64>(), 0);
    }

    /// Deterministic pseudo-random circulation instance: `n` nodes, a mix
    /// of cheap cycles and signed chords.
    fn random_instance(n: usize, m: usize, seed: u64) -> (Vec<(u32, u32)>, Vec<i64>, Vec<i64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut pairs = Vec::new();
        let mut caps = Vec::new();
        let mut costs = Vec::new();
        for v in 0..n {
            pairs.push((v as u32, ((v + 1) % n) as u32));
            caps.push((next() % 5) as i64);
            costs.push((next() % 9) as i64 - 4);
        }
        for _ in 0..m {
            let i = next() % n;
            let j = next() % n;
            if i == j {
                continue;
            }
            pairs.push((i as u32, j as u32));
            caps.push((next() % 7) as i64);
            costs.push((next() % 13) as i64 - 6);
        }
        (pairs, caps, costs)
    }

    #[test]
    fn engine_matches_reference_on_random_instances() {
        for seed in 0..12 {
            let (pairs, caps, costs) = random_instance(9, 24, 0xC0FFEE + seed);
            let mut reference = FlowNetwork::new(9);
            for ((&(f, t), &cap), &cost) in pairs.iter().zip(&caps).zip(&costs) {
                reference.add_arc(
                    reference.node(f as usize),
                    reference.node(t as usize),
                    cap,
                    cost as f64,
                );
            }
            let want = reference.min_cost_circulation();
            let mut net = Circulation::new(9, &pairs);
            net.solve(&caps, &costs, false);
            assert!(
                (net.total_cost() as f64 - want).abs() < 1e-9,
                "seed {seed}: engine {} vs reference {want}",
                net.total_cost()
            );
            assert_canonical_certificate(&mut net);
        }
    }

    #[test]
    fn warm_resolve_is_exactly_optimal_and_reuses_flow() {
        let (pairs, caps, costs) = random_instance(11, 30, 0xBEEF);
        let mut warm = Circulation::new(11, &pairs);
        warm.solve(&caps, &costs, false);
        // Perturb a few costs and re-solve warm vs a fresh cold engine.
        let mut costs2 = costs.clone();
        costs2[3] += 5;
        costs2[7] -= 3;
        costs2[12] = -costs2[12];
        let stats = warm.solve(&caps, &costs2, true);
        let mut cold = Circulation::new(11, &pairs);
        cold.solve(&caps, &costs2, false);
        assert_eq!(warm.total_cost(), cold.total_cost(), "warm must stay exactly optimal");
        assert_eq!(
            warm.canonical_distances(),
            cold.canonical_distances(),
            "canonical duals are flow-independent"
        );
        assert!(stats.reused_arcs > 0, "perturbing 3 of 41 arcs must keep some flow");
        assert!(stats.delta_pairs > 0 && stats.delta_pairs <= 3, "3 costs changed");
        assert!(stats.touched_nodes > 0, "changed pairs touch nodes");
        assert_canonical_certificate(&mut warm);
    }

    #[test]
    fn warm_resolve_clamps_flow_to_shrunk_caps() {
        let (pairs, caps, costs) = random_instance(8, 20, 0xDEAD);
        let mut warm = Circulation::new(8, &pairs);
        warm.solve(&caps, &costs, false);
        let caps2: Vec<i64> = caps.iter().map(|&c| c / 2).collect();
        warm.solve(&caps2, &costs, true);
        for (k, &cap) in caps2.iter().enumerate() {
            assert!(warm.flow(k) <= cap, "arc {k} overflows its shrunk cap");
            assert!(warm.flow(k) >= 0);
        }
        let mut cold = Circulation::new(8, &pairs);
        cold.solve(&caps2, &costs, false);
        assert_eq!(warm.total_cost(), cold.total_cost());
        assert_eq!(warm.canonical_distances(), cold.canonical_distances());
    }

    #[test]
    fn duplicate_warm_solve_short_circuits() {
        let (pairs, caps, costs) = random_instance(10, 26, 0xFACE);
        for backend in
            [CirculationBackend::SuccessiveShortestPaths, CirculationBackend::QuantLadder]
        {
            let mut net = Circulation::new(10, &pairs);
            net.set_backend(backend);
            net.solve(&caps, &costs, false);
            let cost = net.total_cost();
            let d = net.canonical_distances();
            // Identical warm re-solve: no pair changed, so the carried
            // potentials prove optimality outright — no rounds, no
            // pushes, no saturation.
            let stats = net.solve(&caps, &costs, true);
            assert_eq!(stats.rounds, 0, "{backend:?}: duplicate solve must skip every round");
            assert_eq!(stats.correction_paths, 0, "{backend:?}");
            assert_eq!(stats.saturated_arcs, 0, "{backend:?}");
            assert_eq!(stats.delta_pairs, 0, "{backend:?}");
            assert_eq!(net.total_cost(), cost, "{backend:?}");
            assert_eq!(net.canonical_distances(), d, "{backend:?}");
        }
    }

    #[test]
    fn backend_switching_mid_sequence_stays_exact() {
        // Ladder state feeds a warm SSP solve and vice versa: the carried
        // potentials certify `rc ≥ 0` exactly in both directions.
        let (pairs, caps, costs) = scaled_instance(12, 32, 0xABBA);
        let mut net = Circulation::new(12, &pairs);
        net.set_backend(CirculationBackend::QuantLadder);
        net.solve(&caps, &costs, false);
        let mut costs2 = costs.clone();
        costs2[5] = -costs2[5] - 3;
        net.set_backend(CirculationBackend::SuccessiveShortestPaths);
        net.solve(&caps, &costs2, true);
        let mut cold = Circulation::new(12, &pairs);
        cold.solve(&caps, &costs2, false);
        assert_eq!(net.total_cost(), cold.total_cost());
        assert_eq!(net.canonical_distances(), cold.canonical_distances());
        net.set_backend(CirculationBackend::QuantLadder);
        let mut costs3 = costs2.clone();
        costs3[9] += 7;
        net.solve(&caps, &costs3, true);
        let mut cold3 = Circulation::new(12, &pairs);
        cold3.solve(&caps, &costs3, false);
        assert_eq!(net.total_cost(), cold3.total_cost());
        assert_eq!(net.canonical_distances(), cold3.canonical_distances());
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn parse_backend_accepts_aliases_and_rejects_unknown() {
        for (name, want) in [
            ("auto", CirculationBackend::Auto),
            ("ssp", CirculationBackend::SuccessiveShortestPaths),
            ("successive_shortest_paths", CirculationBackend::SuccessiveShortestPaths),
            ("quant_ladder", CirculationBackend::QuantLadder),
            ("quant-ladder", CirculationBackend::QuantLadder),
            ("ql", CirculationBackend::QuantLadder),
            ("  QL  ", CirculationBackend::QuantLadder),
        ] {
            assert_eq!(parse_backend(name), Ok(want), "{name}");
        }
        let err = parse_backend("quantum-leap").unwrap_err();
        assert!(err.contains("quantum-leap"), "error names the bad value: {err}");
        for listed in ["auto", "ssp", "quant_ladder"] {
            assert!(err.contains(listed), "error lists `{listed}`: {err}");
        }
    }

    /// `random_instance` with costs lifted to a 2^40-like scale so the
    /// coarse ladder levels see nonzero (and non-trivially rounded) costs.
    fn scaled_instance(n: usize, m: usize, seed: u64) -> (Vec<(u32, u32)>, Vec<i64>, Vec<i64>) {
        let (pairs, caps, mut costs) = random_instance(n, m, seed);
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        for c in costs.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // High bits exercise the coarse levels, low bits force the
            // finest level to actually refine.
            *c = *c * (1i64 << 30) + ((state >> 40) as i64 - (1 << 23));
        }
        (pairs, caps, costs)
    }

    #[test]
    fn quant_ladder_matches_ssp_on_random_instances() {
        for seed in 0..12 {
            let (pairs, caps, costs) = scaled_instance(9, 24, 0xC0FFEE + seed);
            let mut ssp = Circulation::new(9, &pairs);
            ssp.set_backend(CirculationBackend::SuccessiveShortestPaths);
            ssp.solve(&caps, &costs, false);
            let mut ql = Circulation::new(9, &pairs);
            ql.set_backend(CirculationBackend::QuantLadder);
            ql.solve(&caps, &costs, false);
            assert_eq!(ql.total_cost(), ssp.total_cost(), "seed {seed}: backend costs differ");
            assert_eq!(
                ql.canonical_distances(),
                ssp.canonical_distances(),
                "seed {seed}: canonical duals differ"
            );
            assert_eq!(ql.backend_label(), "quant-ladder");
            assert_canonical_certificate(&mut ql);
        }
    }

    #[test]
    fn quant_ladder_warm_resolve_matches_cold_ssp() {
        let (pairs, caps, costs) = scaled_instance(11, 30, 0xBEEF);
        let mut warm = Circulation::new(11, &pairs);
        warm.set_backend(CirculationBackend::QuantLadder);
        warm.solve(&caps, &costs, false);
        let mut costs2 = costs.clone();
        for step in 0..4 {
            // Sparse perturbations ride the finest-level repair; the dense
            // re-scale on step 2 drives the full ladder warm.
            costs2[3 + step] += 5 * (1 << 20) - step as i64;
            costs2[12 - step] = -costs2[12 - step];
            if step == 2 {
                for c in costs2.iter_mut() {
                    *c = c.wrapping_mul(3) / 2;
                }
            }
            let stats = warm.solve(&caps, &costs2, true);
            let mut cold = Circulation::new(11, &pairs);
            cold.solve(&caps, &costs2, false);
            assert_eq!(warm.total_cost(), cold.total_cost(), "step {step}");
            assert_eq!(warm.canonical_distances(), cold.canonical_distances(), "step {step}");
            assert!(stats.delta_pairs > 0, "step {step}");
            assert_canonical_certificate(&mut warm);
        }
    }

    #[test]
    fn quant_ladder_cancels_negative_cycle_exactly() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        net.set_backend(CirculationBackend::QuantLadder);
        let c = -(1i64 << 40);
        net.solve(&[2, 2, 2], &[c, c, c], false);
        assert_eq!(net.total_cost(), 6 * c);
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn hinted_solve_matches_full_diff_and_freezes_complement() {
        let (pairs, caps, costs) = scaled_instance(11, 30, 0xFEED);
        let num_pairs = pairs.len();
        let mut hinted = Circulation::new(11, &pairs);
        hinted.set_backend(CirculationBackend::QuantLadder);
        hinted.solve(&caps, &costs, false);
        let mut full = Circulation::new(11, &pairs);
        full.set_backend(CirculationBackend::QuantLadder);
        full.solve(&caps, &costs, false);
        let mut costs2 = costs.clone();
        costs2[4] += 1 << 21;
        costs2[9] -= 1 << 21;
        // The hint may over-approximate: pair 2 is named but unchanged.
        let hint = [2u32, 4, 9];
        let hs = hinted.solve_hinted(&caps, &costs2, true, Some(&hint));
        let fs = full.solve(&caps, &costs2, true);
        assert_eq!(hs.frozen_pairs, num_pairs - hint.len());
        assert_eq!(fs.frozen_pairs, 0);
        assert_eq!(hs.delta_pairs, fs.delta_pairs, "hinted diff must equal the full diff");
        assert_eq!(hinted.total_cost(), full.total_cost());
        assert_eq!(hinted.canonical_distances(), full.canonical_distances());
        for k in 0..num_pairs {
            assert_eq!(hinted.flow(k), full.flow(k), "pair {k} flow diverged under the hint");
        }
        assert_canonical_certificate(&mut hinted);
    }

    #[test]
    #[should_panic(expected = "hint certificate violated")]
    #[cfg(debug_assertions)]
    fn hinted_solve_rejects_a_lying_certificate() {
        let (pairs, caps, costs) = scaled_instance(9, 20, 0xF00D);
        let mut net = Circulation::new(9, &pairs);
        net.solve(&caps, &costs, false);
        let mut costs2 = costs.clone();
        costs2[4] += 1 << 21;
        // Pair 4 changed but the hint omits it.
        net.solve_hinted(&caps, &costs2, true, Some(&[1u32]));
    }

    #[test]
    fn stats_report_round_width() {
        let mut pairs = Vec::new();
        for k in 0..3u32 {
            let v = 1 + k;
            pairs.push((v, 0));
            pairs.push((0, v));
        }
        let mut net = Circulation::new(4, &pairs);
        let stats = net.solve(&[3; 6], &[-2, 1, -2, 1, -2, 1], false);
        assert!(
            stats.max_round_paths >= 2,
            "hub instance serves several deficits in one round, got {}",
            stats.max_round_paths
        );
        assert!(stats.max_round_paths as i64 <= stats.correction_paths as i64);
        assert_eq!(stats.frozen_pairs, 0, "unhinted solve freezes nothing");
    }

    #[test]
    fn bulk_augmentation_serves_many_deficits_per_round() {
        // Three negative 2-cycles into a shared hub: phase 1 saturates the
        // three spoke arcs, leaving one excess hub and three deficit
        // spokes, and a single Dijkstra round serves all three.
        let mut pairs = Vec::new();
        for k in 0..3u32 {
            let v = 1 + k;
            pairs.push((v, 0));
            pairs.push((0, v));
        }
        let mut net = Circulation::new(4, &pairs);
        let stats = net.solve(&[3; 6], &[-2, 1, -2, 1, -2, 1], false);
        assert_eq!(net.total_cost(), -3 * 3);
        assert!(stats.correction_paths >= 3, "three pairs need three corrections");
        assert!(
            stats.rounds < stats.correction_paths,
            "bulk rounds ({}) must batch corrections ({})",
            stats.rounds,
            stats.correction_paths
        );
    }

    #[test]
    fn optimal_potentials_certify_no_negative_reduced_cost() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(net.node(0), net.node(1), 3, -2.0);
        net.add_arc(net.node(1), net.node(2), 3, 1.0);
        net.add_arc(net.node(2), net.node(0), 3, 0.5);
        net.add_arc(net.node(2), net.node(3), 1, -1.0);
        net.add_arc(net.node(3), net.node(0), 1, 0.5);
        net.min_cost_circulation();
        let pi = net.optimal_potentials();
        for u in 0..net.num_nodes() {
            for &ai in &net.adj[u] {
                let arc = &net.arcs[ai as usize];
                if arc.cap > 0 {
                    let rc = arc.cost + pi[u] - pi[arc.to as usize];
                    assert!(rc >= -1e-6, "residual arc with negative reduced cost: {rc}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental bipartite transportation (the stage-3 assignment engine).
// ---------------------------------------------------------------------------

/// The transportation instance admits no full assignment: some flip-flop
/// cannot reach the sink through the remaining ring capacity. Feasibility
/// is a property of the *problem* (a max-flow cut), so warm and cold
/// solves of the same instance fail alike; the engine resets itself and
/// the next [`Transportation::solve`] starts from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportationInfeasible;

impl std::fmt::Display for TransportationInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transportation infeasible: ring capacities cannot absorb every flip-flop")
    }
}

impl std::error::Error for TransportationInfeasible {}

/// Effort counters of one [`Transportation::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportationStats {
    /// Augmenting paths pushed in phase 2 (tree serves plus blocking-flow
    /// augmentations).
    pub correction_paths: usize,
    /// Multi-source Dijkstra rounds (each serves a batch of excesses).
    pub rounds: usize,
    /// Residual slots force-saturated in phase 1 (negative reduced cost
    /// under the starting potentials).
    pub saturated_arcs: usize,
    /// Pairs whose carried flow survived the rebind untouched — candidate
    /// `(ff, ring)` arcs still priced as before (or re-installed by key
    /// across a structural rebuild) and ring pairs whose load fit the new
    /// cap. Zero on cold solves.
    pub reused_arcs: usize,
    /// Pairs re-priced or re-capped relative to the carried engine state;
    /// the full pair count on any rebuild. Zero on a duplicate warm solve.
    pub delta_pairs: usize,
    /// Distinct endpoint nodes of the changed pairs (the whole node set on
    /// a rebuild).
    pub touched_nodes: usize,
}

/// Incremental exact min-cost bipartite transportation: `f` unit-supply
/// flip-flops, `r` capacitated rings, one sink. The Fig.-3 stage-3
/// assignment re-solves this every placement↔skew iteration with slowly
/// drifting costs; this engine carries flow and dual potentials across
/// those solves the way [`Circulation`] does for stage 4.
///
/// Same paired-slot CSR residual layout as [`Circulation`]: pair `k` owns
/// forward slot `2k` and twin `2k + 1`; candidate pairs first (grouped by
/// flip-flop, in candidate-rank order), then one `ring → sink` pair per
/// ring. Node ids: flip-flop `i` = `i`, ring `j` = `f + j`, sink =
/// `f + r`. Costs are exact integers (callers quantize once, as stage 4
/// does), so optimality is exact and the recovered duals are canonical.
///
/// A warm [`Self::solve`] diffs the new instance against the carried
/// state: same candidate structure → re-price drifted arcs in place and
/// clamp changed ring caps (shedding overflow into excess); changed
/// structure → rebuild the CSR but re-install carried flow keyed by
/// `(ff, ring)` and keep the potentials (node identity is fixed at
/// construction). Phase 1 re-saturates slots whose reduced cost went
/// negative; phase 2 routes the imbalance with *reverse* multi-source
/// Dijkstra rounds — sources are the deficits, settled nodes the
/// excesses — so one round serves a whole batch of flip-flops through
/// shared tree serves and the engine-shared [`admissible_blocking_flow`]
/// pass. (Forward rounds would settle the lone sink deficit and serve
/// ~one unit each — the orientation is what makes cold solves a handful
/// of rounds instead of `f`.)
///
/// The extracted assignment is **bit-identical between warm and cold**
/// solves of the same instance by construction, not by luck: it is
/// recovered from [`Self::canonical_distances`] (a constant of the
/// problem) — arcs with negative canonical reduced cost are in *every*
/// optimum and force their flip-flop; the rare flip-flops left ambiguous
/// by exact cost ties are completed by a deterministic min-cost matching
/// over the tight subgraph that prefers lower candidate rank. The
/// engine's internal flow never leaks into the answer.
#[derive(Debug, Clone)]
pub struct Transportation {
    f: usize,
    r: usize,
    n: usize,
    built: bool,
    /// Candidate ring ids per flip-flop of the built CSR, in rank order.
    structure: Vec<Vec<u32>>,
    ring_caps: Vec<i64>,
    n_cand_pairs: usize,
    heads: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    csr_start: Vec<u32>,
    csr_arcs: Vec<u32>,
    potential: Vec<i64>,
    excess: Vec<i64>,
    dij: Dijkstra<i64>,
    canon: WarmSpfa<i64>,
    stats: TransportationStats,
    label: &'static str,
    changed: Vec<u32>,
    node_stamp: Vec<u32>,
    stamp_round: u32,
    cur: Vec<u32>,
    on_path: Vec<bool>,
    dead: Vec<bool>,
    path: Vec<u32>,
    assignment: Vec<u32>,
    total_cost: i128,
}

/// Carry key of candidate arc `(ff, ring)` — the same keying discipline as
/// the stage-3 LP columns (`core::assign::col_key`), so carried flow
/// survives candidate add/drop between iterations.
fn tp_key(ff: usize, ring: u32) -> u64 {
    ((ff as u64) << 32) | (u64::from(ring) + 1)
}

impl Transportation {
    /// Engine for `f` flip-flops and `r` rings. The node set is fixed for
    /// the engine's lifetime; candidate arcs and capacities arrive per
    /// [`Self::solve`].
    pub fn new(f: usize, r: usize) -> Self {
        let n = f + r + 1;
        Self {
            f,
            r,
            n,
            built: false,
            structure: Vec::new(),
            ring_caps: Vec::new(),
            n_cand_pairs: 0,
            heads: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            csr_start: Vec::new(),
            csr_arcs: Vec::new(),
            potential: vec![0; n],
            excess: vec![0; n],
            dij: Dijkstra::new(n),
            canon: WarmSpfa::new(n, &[]),
            stats: TransportationStats::default(),
            label: "",
            changed: Vec::new(),
            node_stamp: vec![u32::MAX; n],
            stamp_round: 0,
            cur: vec![0; n],
            on_path: vec![false; n],
            dead: vec![false; n],
            path: Vec::new(),
            assignment: Vec::new(),
            total_cost: 0,
        }
    }

    /// `"tp-cold"` or `"tp-warm"` — how the last [`Self::solve`] started
    /// (empty before the first).
    pub fn backend_label(&self) -> &'static str {
        self.label
    }

    /// The `(f, r)` the engine was built for — carried contexts recreate
    /// the engine when the problem dimensions change.
    pub fn dims(&self) -> (usize, usize) {
        (self.f, self.r)
    }

    /// Counters of the last [`Self::solve`].
    pub fn stats(&self) -> TransportationStats {
        self.stats
    }

    /// Ring id assigned to each flip-flop by the last successful
    /// [`Self::solve`] (canonical — identical for warm and cold).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Exact quantized cost of [`Self::assignment`] — the optimal
    /// objective (`i128`: `f` arcs of up to ~2^57 each overflow `i64`
    /// headroom on large drifted instances).
    pub fn total_cost(&self) -> i128 {
        self.total_cost
    }

    /// Solves the instance: candidate `(ring, quantized_cost)` lists per
    /// flip-flop (rank order — the order is the deterministic tiebreak)
    /// and per-ring capacities. `warm` reuses the carried flow and
    /// potentials (automatically downgraded to cold when nothing is
    /// carried); cold re-initializes in place.
    ///
    /// On `Err` the engine has reset itself; the next solve is cold.
    ///
    /// # Panics
    ///
    /// Panics if `cands.len() != f`, `ring_caps.len() != r`, or a
    /// candidate names a ring out of range.
    pub fn solve(
        &mut self,
        cands: &[Vec<(u32, i64)>],
        ring_caps: &[i64],
        warm: bool,
    ) -> Result<TransportationStats, TransportationInfeasible> {
        assert_eq!(cands.len(), self.f, "candidate list count != f");
        assert_eq!(ring_caps.len(), self.r, "ring cap count != r");
        let warm = warm && self.built;
        self.stats = TransportationStats::default();
        self.stamp_round = self.stamp_round.wrapping_add(1);
        if warm && self.same_structure(cands) {
            self.label = "tp-warm";
            self.patch(cands, ring_caps);
        } else {
            self.label = if warm { "tp-warm" } else { "tp-cold" };
            self.rebuild(cands, ring_caps, warm);
        }
        self.route_excess()?;
        self.extract(cands);
        Ok(self.stats)
    }

    fn same_structure(&self, cands: &[Vec<(u32, i64)>]) -> bool {
        self.structure.len() == cands.len()
            && self
                .structure
                .iter()
                .zip(cands)
                .all(|(s, c)| s.len() == c.len() && s.iter().zip(c).all(|(&j, &(cj, _))| j == cj))
    }

    /// Marks `v` touched this solve (for [`TransportationStats::touched_nodes`]).
    fn touch(&mut self, v: usize) {
        if self.node_stamp[v] != self.stamp_round {
            self.node_stamp[v] = self.stamp_round;
            self.stats.touched_nodes += 1;
        }
    }

    /// Warm rebind on unchanged structure: re-price drifted candidate
    /// arcs in place, clamp changed ring caps (shedding the overflow into
    /// node excess), then re-saturate exactly the changed pairs — an
    /// unchanged pair's slots are byte-identical to the previous solve's,
    /// whose optimality certificate already proved them non-negative
    /// under the carried potentials.
    fn patch(&mut self, cands: &[Vec<(u32, i64)>], ring_caps: &[i64]) {
        debug_assert!(self.excess.iter().all(|&e| e == 0));
        self.changed.clear();
        let mut k = 0usize;
        for (i, list) in cands.iter().enumerate() {
            for &(ring, c) in list {
                let a = 2 * k;
                if self.cost[a] != c {
                    self.cost[a] = c;
                    self.cost[a ^ 1] = -c;
                    self.changed.push(k as u32);
                    self.touch(i);
                    self.touch(self.f + ring as usize);
                } else if self.cap[a ^ 1] > 0 {
                    self.stats.reused_arcs += 1;
                }
                k += 1;
            }
        }
        let sink = self.n - 1;
        for (j, &cap_j) in ring_caps.iter().enumerate() {
            let k = self.n_cand_pairs + j;
            let a = 2 * k;
            let carried = self.cap[a ^ 1];
            if self.cap[a] + carried == cap_j {
                if carried > 0 {
                    self.stats.reused_arcs += 1;
                }
                continue;
            }
            let keep = carried.min(cap_j);
            let shed = carried - keep;
            self.cap[a] = cap_j - keep;
            self.cap[a ^ 1] = keep;
            if shed > 0 {
                self.excess[self.f + j] += shed;
                self.excess[sink] -= shed;
            }
            self.changed.push(k as u32);
            self.touch(self.f + j);
            self.touch(sink);
        }
        self.ring_caps.clear();
        self.ring_caps.extend_from_slice(ring_caps);
        self.stats.delta_pairs = self.changed.len();
        let changed = std::mem::take(&mut self.changed);
        for &k in &changed {
            self.saturate_slot(2 * k as usize);
            self.saturate_slot(2 * k as usize + 1);
        }
        self.changed = changed;
    }

    /// (Re)initializes the residual arrays for a new candidate structure
    /// (or a cold start on the existing one). With `carry`, flow survives
    /// keyed by `(ff, ring)` — a carried unit whose arc still exists is
    /// re-installed, everything else starts empty — and the potentials are
    /// kept (node identity is fixed); without, flow and potentials reset.
    fn rebuild(&mut self, cands: &[Vec<(u32, i64)>], ring_caps: &[i64], carry: bool) {
        let carried: std::collections::HashSet<u64> = if carry {
            let mut s = std::collections::HashSet::new();
            let mut k = 0usize;
            for (i, list) in self.structure.iter().enumerate() {
                for &ring in list {
                    if self.cap[2 * k + 1] > 0 {
                        s.insert(tp_key(i, ring));
                    }
                    k += 1;
                }
            }
            s
        } else {
            std::collections::HashSet::new()
        };
        if !self.same_structure(cands) {
            self.build_csr(cands);
        }
        // Install caps/costs; re-seat carried flow where its arc survived.
        let mut inflow = vec![0i64; self.r];
        let mut k = 0usize;
        for (i, list) in cands.iter().enumerate() {
            let mut out = 0i64;
            for &(ring, c) in list {
                let a = 2 * k;
                self.cost[a] = c;
                self.cost[a ^ 1] = -c;
                if out == 0 && carry && carried.contains(&tp_key(i, ring)) {
                    self.cap[a] = 0;
                    self.cap[a ^ 1] = 1;
                    inflow[ring as usize] += 1;
                    out = 1;
                    self.stats.reused_arcs += 1;
                } else {
                    self.cap[a] = 1;
                    self.cap[a ^ 1] = 0;
                }
                k += 1;
            }
            self.excess[i] = 1 - out;
        }
        let mut sink_flow = 0i64;
        for (j, &cap_j) in ring_caps.iter().enumerate() {
            let a = 2 * (self.n_cand_pairs + j);
            self.cost[a] = 0;
            self.cost[a ^ 1] = 0;
            let flow = inflow[j].min(cap_j);
            self.cap[a] = cap_j - flow;
            self.cap[a ^ 1] = flow;
            if flow > 0 {
                self.stats.reused_arcs += 1;
            }
            self.excess[self.f + j] = inflow[j] - flow;
            sink_flow += flow;
        }
        self.excess[self.n - 1] = sink_flow - self.f as i64;
        if !carry {
            self.potential.iter_mut().for_each(|p| *p = 0);
        }
        self.ring_caps.clear();
        self.ring_caps.extend_from_slice(ring_caps);
        self.stats.delta_pairs = self.n_cand_pairs + self.r;
        self.stats.touched_nodes = self.n;
        self.built = true;
        for a in 0..self.heads.len() {
            self.saturate_slot(a);
        }
    }

    /// Rebuilds heads/CSR/canonical-SPFA for a new candidate structure.
    fn build_csr(&mut self, cands: &[Vec<(u32, i64)>]) {
        self.structure.clear();
        self.structure
            .extend(cands.iter().map(|list| list.iter().map(|&(j, _)| j).collect::<Vec<u32>>()));
        self.n_cand_pairs = cands.iter().map(Vec::len).sum();
        let n_pairs = self.n_cand_pairs + self.r;
        let sink = (self.n - 1) as u32;
        self.heads.clear();
        self.heads.reserve(2 * n_pairs);
        for (i, list) in cands.iter().enumerate() {
            for &(ring, _) in list {
                let ring = ring as usize;
                assert!(ring < self.r, "candidate ring {ring} out of range");
                self.heads.push((self.f + ring) as u32);
                self.heads.push(i as u32);
            }
        }
        for j in 0..self.r {
            self.heads.push(sink);
            self.heads.push((self.f + j) as u32);
        }
        // CSR over slots, grouped by tail (= head of the twin).
        self.csr_start.clear();
        self.csr_start.resize(self.n + 1, 0);
        for a in 0..self.heads.len() {
            self.csr_start[self.heads[a ^ 1] as usize + 1] += 1;
        }
        for u in 0..self.n {
            self.csr_start[u + 1] += self.csr_start[u];
        }
        let mut cursor = self.csr_start.clone();
        self.csr_arcs.clear();
        self.csr_arcs.resize(self.heads.len(), 0);
        for a in 0..self.heads.len() {
            let u = self.heads[a ^ 1] as usize;
            self.csr_arcs[cursor[u] as usize] = a as u32;
            cursor[u] += 1;
        }
        self.cap.clear();
        self.cap.resize(self.heads.len(), 0);
        self.cost.clear();
        self.cost.resize(self.heads.len(), 0);
        let slot_arcs: Vec<(usize, usize)> = (0..self.heads.len())
            .map(|a| (self.heads[a ^ 1] as usize, self.heads[a] as usize))
            .collect();
        self.canon = WarmSpfa::new(self.n, &slot_arcs);
    }

    /// Saturates residual slot `a` if its reduced cost under the current
    /// potentials is negative (phase-1 step).
    fn saturate_slot(&mut self, a: usize) {
        if self.cap[a] <= 0 {
            return;
        }
        let u = self.heads[a ^ 1] as usize;
        let v = self.heads[a] as usize;
        if self.cost[a] + self.potential[u] - self.potential[v] < 0 {
            let push = self.cap[a];
            self.cap[a] = 0;
            self.cap[a ^ 1] += push;
            self.excess[v] += push;
            self.excess[u] -= push;
            self.stats.saturated_arcs += 1;
        }
    }

    /// Phase 2: route all node imbalances back at minimum cost. Each
    /// round is one multi-source Dijkstra on the shared kernel, with the
    /// orientation picked per round from the imbalance shape:
    ///
    /// * **Reverse** (one deficit node — the cold shape, where only the
    ///   sink is short): sources are the deficits, the pass settles
    ///   excess nodes until the settled supply covers the outstanding
    ///   total, and the potential update is the mirrored
    ///   `π_v -= min(dist_v, d_max)`. One terminal with huge absorption
    ///   means the settled trees serve dozens of chains per round.
    /// * **Forward** (scattered deficits — the warm-repair shape, where
    ///   re-pricing displaced units all over the graph): sources are the
    ///   excess nodes and the pass settles deficits, exactly like
    ///   [`Circulation::route_excess`]. Every settled deficit is a
    ///   distinct chain terminal, so a round serves ~one unit per
    ///   settled deficit instead of ~one per *winning* deficit — on
    ///   scattered ±1 imbalances this is the difference between a
    ///   handful of rounds and one round per unit.
    ///
    /// Either way the settled shortest-path trees are admissible after
    /// the capped update: tree serves push along pred chains and
    /// whatever they leave stranded is rerouted by
    /// [`admissible_blocking_flow`] from the excess-side roots. A round
    /// that settles nothing while imbalance remains proves a saturated
    /// cut: the instance is infeasible.
    fn route_excess(&mut self) -> Result<(), TransportationInfeasible> {
        let mut total: i64 = self.excess.iter().filter(|&&e| e > 0).sum();
        debug_assert_eq!(self.excess.iter().sum::<i64>(), 0, "imbalance must net out");
        let mut served: Vec<u32> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        while total > 0 {
            self.stats.rounds += 1;
            let n_def = self.excess.iter().filter(|&&e| e < 0).count();
            let n_exc = self.excess.iter().filter(|&&e| e > 0).count();
            // Settle the scattered side, source from the concentrated
            // side: chains terminate at distinct settled nodes, so the
            // round serves up to one chain per settled node — while the
            // concentrated side's large per-node mass keeps shared
            // chain roots from starving the serves.
            let forward = n_def >= n_exc;
            let mut d_max = 0i64;
            let mut served_cap = 0i64;
            served.clear();
            {
                let dij = &mut self.dij;
                let (heads, cap, cost) = (&self.heads, &self.cap, &self.cost);
                let (csr_start, csr_arcs) = (&self.csr_start, &self.csr_arcs);
                let (potential, excess) = (&self.potential, &self.excess);
                let served = &mut served;
                if forward {
                    let sources =
                        excess.iter().enumerate().filter_map(|(v, &e)| (e > 0).then_some(v));
                    let arcs = |u: usize| {
                        let row = csr_start[u] as usize..csr_start[u + 1] as usize;
                        csr_arcs[row].iter().filter_map(move |&a| {
                            let ai = a as usize;
                            if cap[ai] <= 0 {
                                return None;
                            }
                            let v = heads[ai] as usize;
                            let rc = cost[ai] + potential[u] - potential[v];
                            debug_assert!(rc >= 0, "negative reduced cost inside Dijkstra");
                            Some((a, heads[ai], rc))
                        })
                    };
                    let settle = |u: usize, d: i64| {
                        if excess[u] < 0 {
                            served.push(u as u32);
                            served_cap += -excess[u];
                            d_max = d;
                            if served_cap >= total {
                                return SettleControl::Stop;
                            }
                        }
                        SettleControl::Continue
                    };
                    dij.run(sources, 0, arcs, settle);
                } else {
                    let sources =
                        excess.iter().enumerate().filter_map(|(v, &e)| (e < 0).then_some(v));
                    // In-arcs of `u` are the twins of its CSR row;
                    // relaxing slot `b = a ^ 1` (forward `w → u`) walks
                    // the residual graph backward, so `dist` measures
                    // cost *to* the deficit and pred chains point along
                    // forward arcs.
                    let arcs = |u: usize| {
                        let row = csr_start[u] as usize..csr_start[u + 1] as usize;
                        csr_arcs[row].iter().filter_map(move |&a| {
                            let b = (a ^ 1) as usize;
                            if cap[b] <= 0 {
                                return None;
                            }
                            let w = heads[a as usize] as usize;
                            let rc = cost[b] + potential[w] - potential[u];
                            debug_assert!(rc >= 0, "negative reduced cost inside Dijkstra");
                            Some((a ^ 1, heads[a as usize], rc))
                        })
                    };
                    let settle = |u: usize, d: i64| {
                        if excess[u] > 0 {
                            served.push(u as u32);
                            served_cap += excess[u];
                            d_max = d;
                            if served_cap >= total {
                                return SettleControl::Stop;
                            }
                        }
                        SettleControl::Continue
                    };
                    dij.run(sources, 0, arcs, settle);
                }
            }
            if served.is_empty() {
                // No excess can reach a deficit: a saturated cut separates
                // some flip-flop from the sink. Reset so the next solve
                // starts clean.
                self.built = false;
                self.excess.iter_mut().for_each(|e| *e = 0);
                self.potential.iter_mut().for_each(|p| *p = 0);
                return Err(TransportationInfeasible);
            }
            // Capped update: every unsettled node's tentative label is
            // ≥ d_max when the pass stops, so the clamp keeps the
            // reduced-cost invariant on arcs crossing the settled set.
            if forward {
                for (p, &d) in self.potential.iter_mut().zip(self.dij.dist()) {
                    *p += d.min(d_max);
                }
            } else {
                for (p, &d) in self.potential.iter_mut().zip(self.dij.dist()) {
                    *p -= d.min(d_max);
                }
            }
            let want = served_cap.min(total);
            let mut pushed = if forward {
                self.tree_serve_forward(&served, total)
            } else {
                self.tree_serve(&served, total)
            };
            if pushed < want {
                // Blocking-flow roots are always the excess side of the
                // settled trees: the settled excess nodes themselves in
                // reverse orientation, the tree roots of the settled
                // deficits in forward orientation (any other excess kept
                // a strictly positive reduced distance to every settled
                // deficit, and the capped update preserves that gap).
                roots.clear();
                if forward {
                    let pred = self.dij.pred();
                    for &t in &served {
                        let mut v = t as usize;
                        while pred[v] != NO_PRED {
                            v = self.heads[pred[v] as usize ^ 1] as usize;
                        }
                        roots.push(v as u32);
                    }
                    roots.sort_unstable();
                    roots.dedup();
                } else {
                    roots.extend_from_slice(&served);
                    roots.sort_unstable();
                }
                pushed += admissible_blocking_flow(
                    BlockingScratch {
                        heads: &self.heads,
                        cap: &mut self.cap,
                        cost: &self.cost,
                        csr_start: &self.csr_start,
                        csr_arcs: &self.csr_arcs,
                        potential: &self.potential,
                        excess: &mut self.excess,
                        cur: &mut self.cur,
                        on_path: &mut self.on_path,
                        dead: &mut self.dead,
                        path: &mut self.path,
                    },
                    &roots,
                    &mut self.stats.correction_paths,
                );
            }
            total -= pushed;
        }
        Ok(())
    }

    /// Serves settled deficits along their forward-orientation Dijkstra
    /// pred chains (root excess → deficit), in settle order: bottleneck
    /// the chain, push, move on — the mirror of [`Self::tree_serve`].
    /// The first served deficit's chain is always unsaturated and its
    /// root still in excess, so every call pushes ≥ 1 unit.
    fn tree_serve_forward(&mut self, served: &[u32], total: i64) -> i64 {
        let mut pushed = 0i64;
        let pred = self.dij.pred();
        for &t in served {
            let t = t as usize;
            let mut push = -self.excess[t];
            if push <= 0 {
                continue;
            }
            let mut v = t;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                push = push.min(self.cap[a]);
                v = self.heads[a ^ 1] as usize;
            }
            let root = v;
            push = push.min(self.excess[root]);
            if push <= 0 {
                continue;
            }
            let mut v = t;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                v = self.heads[a ^ 1] as usize;
            }
            self.excess[root] -= push;
            self.excess[t] += push;
            pushed += push;
            self.stats.correction_paths += 1;
            if pushed == total {
                break;
            }
        }
        pushed
    }

    /// Serves settled excess nodes along their reverse-Dijkstra pred
    /// chains (which point forward, excess → deficit), in settle order:
    /// bottleneck the chain, push, move on. The first served excess's
    /// chain is always unsaturated and its terminal still in deficit, so
    /// every call pushes ≥ 1 unit — the round-progress guarantee of
    /// [`Self::route_excess`].
    fn tree_serve(&mut self, served: &[u32], total: i64) -> i64 {
        let mut pushed = 0i64;
        let pred = self.dij.pred();
        for &s in served {
            let s = s as usize;
            let mut push = self.excess[s];
            if push <= 0 {
                continue;
            }
            let mut v = s;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                push = push.min(self.cap[a]);
                v = self.heads[a] as usize;
            }
            let t = v;
            push = push.min(-self.excess[t]);
            if push <= 0 {
                continue;
            }
            let mut v = s;
            while pred[v] != NO_PRED {
                let a = pred[v] as usize;
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                v = self.heads[a] as usize;
            }
            self.excess[s] -= push;
            self.excess[t] += push;
            pushed += push;
            self.stats.correction_paths += 1;
            if pushed == total {
                break;
            }
        }
        pushed
    }

    /// Shortest integer distances from the virtual source over the
    /// residual arcs of the current flow — the canonical dual, a constant
    /// of the problem identical for every optimal flow (see
    /// [`Circulation::canonical_distances`]).
    ///
    /// # Panics
    ///
    /// Panics on a negative residual cycle (impossible after a
    /// terminating [`Self::solve`]).
    pub fn canonical_distances(&mut self) -> Vec<i64> {
        let Self { canon, cap, cost, .. } = self;
        canon.reset_zero();
        match canon.relax(|a| if cap[a] > 0 { cost[a] } else { i64::MAX }, 0) {
            RelaxOutcome::Converged => canon.dist().to_vec(),
            RelaxOutcome::NegativeCycle(_) => {
                panic!("negative residual cycle: transportation not optimal")
            }
        }
    }

    /// Recovers the canonical assignment from the canonical duals, never
    /// from the engine's internal flow — warm and cold solves therefore
    /// extract bit-identical answers.
    ///
    /// Complementary slackness against the canonical dual `d` sorts every
    /// candidate arc into three classes by reduced cost `rc = c + d_ff −
    /// d_ring`: `rc < 0` arcs are saturated in *every* optimum (at most
    /// one per flip-flop — they force the answer outright), `rc > 0`
    /// arcs carry nothing, and `rc = 0` arcs are the *tight* subgraph
    /// containing the support of all optima. With non-negative costs the
    /// canonical fixpoint prices every flow arc tight, so the strictly
    /// forced class is empty and the tight subgraph decides everything:
    /// [`Self::peel_ties`] resolves it by degree-one cascade (near-total
    /// on 2^40-quantized distinct costs) and the ambiguous residue falls
    /// to one deterministic exact min-cost matching in
    /// [`Self::complete_ties`], where ring sink classes (`d_ring −
    /// d_sink` negative = must fill to cap, zero = free, positive = must
    /// stay empty) become capacities and a large free-ring surcharge, and
    /// the arc cost is the candidate rank — the deterministic tiebreak.
    fn extract(&mut self, cands: &[Vec<(u32, i64)>]) {
        let d = self.canonical_distances();
        self.assignment.clear();
        self.assignment.resize(self.f, u32::MAX);
        let mut total: i128 = 0;
        let mut forced_cnt = vec![0i64; self.r];
        let mut unforced: Vec<u32> = Vec::new();
        for (i, list) in cands.iter().enumerate() {
            for &(ring, c) in list {
                let rc = c + d[i] - d[self.f + ring as usize];
                if rc < 0 {
                    assert_eq!(
                        self.assignment[i],
                        u32::MAX,
                        "two forced arcs on one flip-flop: duals inconsistent"
                    );
                    self.assignment[i] = ring;
                    forced_cnt[ring as usize] += 1;
                    total += c as i128;
                }
            }
            if self.assignment[i] == u32::MAX {
                unforced.push(i as u32);
            }
        }
        let residue = self.peel_ties(cands, &d, &mut forced_cnt, &unforced, &mut total);
        if !residue.is_empty() {
            total += self.complete_ties(cands, &d, &forced_cnt, &residue);
        }
        self.total_cost = total;
    }

    /// Degree-one peeling over the canonical tight subgraph — the fast
    /// path of tie completion.
    ///
    /// With non-negative costs the canonical dual prices every flow arc
    /// *tight* (a flip-flop's distance is defined through its own flow
    /// twin), so `unforced` is typically every flip-flop and the tight
    /// subgraph is the support of all optima. Complementary slackness
    /// says each flip-flop must use a tight arc into a ring that is
    /// neither priced empty (`rc_sink > 0`) nor already at capacity in
    /// every optimum — so a flip-flop whose *only* such arc is unique is
    /// forced, can be assigned outright, and its ring's remaining
    /// availability drops, possibly forcing further flip-flops. With
    /// 2^40-quantized distinct costs this cascade resolves almost every
    /// flip-flop; only the genuinely ambiguous residue (returned) needs
    /// the exact matching of [`Self::complete_ties`].
    ///
    /// Peeled moves are present in every optimum, so the peel is
    /// flow-independent (warm and cold agree bit-identically) and any
    /// processing order yields the same assignment.
    fn peel_ties(
        &mut self,
        cands: &[Vec<(u32, i64)>],
        d: &[i64],
        forced_cnt: &mut [i64],
        unforced: &[u32],
        total: &mut i128,
    ) -> Vec<u32> {
        let sink = self.n - 1;
        let mut avail: Vec<i64> = (0..self.r).map(|j| self.ring_caps[j] - forced_cnt[j]).collect();
        let mut live: Vec<bool> =
            (0..self.r).map(|j| d[self.f + j] - d[sink] <= 0 && avail[j] > 0).collect();
        let mut deg = vec![0u32; self.f];
        let mut ring_ffs: Vec<Vec<u32>> = vec![Vec::new(); self.r];
        for &i in unforced {
            for &(ring, c) in &cands[i as usize] {
                if c + d[i as usize] - d[self.f + ring as usize] == 0 && live[ring as usize] {
                    deg[i as usize] += 1;
                    ring_ffs[ring as usize].push(i);
                }
            }
        }
        let mut queue: Vec<u32> =
            unforced.iter().copied().filter(|&i| deg[i as usize] == 1).collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head] as usize;
            head += 1;
            if self.assignment[i] != u32::MAX {
                continue;
            }
            let (ring, c) = cands[i]
                .iter()
                .copied()
                .find(|&(ring, c)| live[ring as usize] && c + d[i] - d[self.f + ring as usize] == 0)
                .expect("peeled flip-flop lost its last tight ring: duals inconsistent");
            self.assignment[i] = ring;
            *total += c as i128;
            let j = ring as usize;
            forced_cnt[j] += 1;
            avail[j] -= 1;
            if avail[j] == 0 {
                live[j] = false;
                for &ff in &ring_ffs[j] {
                    let u = ff as usize;
                    if self.assignment[u] == u32::MAX {
                        deg[u] -= 1;
                        if deg[u] == 1 {
                            queue.push(u as u32);
                        }
                    }
                }
            }
        }
        unforced.iter().copied().filter(|&i| self.assignment[i as usize] == u32::MAX).collect()
    }

    /// The tie-completion matching of [`Self::extract`]: assigns the
    /// flip-flops no arc forces, using only tight (`rc = 0`) arcs into
    /// rings that may still take flow. Feasible by construction — the
    /// engine's own optimal flow restricted to these flip-flops is a
    /// witness. Returns the quantized cost of the chosen arcs.
    fn complete_ties(
        &mut self,
        cands: &[Vec<(u32, i64)>],
        d: &[i64],
        forced_cnt: &[i64],
        unforced: &[u32],
    ) -> i128 {
        let sink = self.n - 1;
        // Rings that may carry tie flow: sink reduced cost ≤ 0 and spare
        // capacity beyond the forced load. (`rc_sink > 0` rings carry
        // nothing in any optimum; complementary slackness means they
        // also have no forced arcs.)
        let mut ring_node = vec![u32::MAX; self.r];
        let mut rings: Vec<u32> = Vec::new();
        for j in 0..self.r {
            let rc_sink = d[self.f + j] - d[sink];
            debug_assert!(rc_sink <= 0 || forced_cnt[j] == 0, "forced arc into an empty ring");
            let avail = self.ring_caps[j] - forced_cnt[j];
            debug_assert!(avail >= 0, "forced load exceeds ring cap");
            if rc_sink <= 0 && avail > 0 {
                ring_node[j] = (2 + unforced.len() + rings.len()) as u32;
                rings.push(j as u32);
            }
        }
        let mut net = FlowNetwork::new(2 + unforced.len() + rings.len());
        let s = net.node(0);
        let t = net.node(1);
        // Rank costs are small integers and the surcharge keeps their
        // total below it, so all f64 arithmetic below is exact.
        let max_rank = cands.iter().map(Vec::len).max().unwrap_or(0);
        let big = (self.f as f64) * (max_rank as f64) + 1.0;
        let mut tie_arcs: Vec<(u32, u32, i64, ArcId)> = Vec::new();
        for (mi, &i) in unforced.iter().enumerate() {
            let ff = net.node(2 + mi);
            net.add_arc(s, ff, 1, 0.0);
            for (rank, &(ring, c)) in cands[i as usize].iter().enumerate() {
                let rc = c + d[i as usize] - d[self.f + ring as usize];
                if rc == 0 && ring_node[ring as usize] != u32::MAX {
                    let arc = net.add_arc(
                        ff,
                        net.node(ring_node[ring as usize] as usize),
                        1,
                        rank as f64,
                    );
                    tie_arcs.push((i, ring, c, arc));
                }
            }
        }
        for &j in &rings {
            let j = j as usize;
            let rc_sink = d[self.f + j] - d[sink];
            let avail = self.ring_caps[j] - forced_cnt[j];
            let cost = if rc_sink < 0 { 0.0 } else { big };
            net.add_arc(net.node(ring_node[j] as usize), t, avail, cost);
        }
        let (flow, _) = net
            .min_cost_flow(s, t, unforced.len() as i64)
            .expect("tie completion must route at least one unit");
        assert_eq!(flow, unforced.len() as i64, "tie completion must assign every flip-flop");
        let mut total: i128 = 0;
        for &(i, ring, c, arc) in &tie_arcs {
            if net.flow_on(arc) > 0 {
                debug_assert_eq!(self.assignment[i as usize], u32::MAX);
                self.assignment[i as usize] = ring;
                total += c as i128;
            }
        }
        debug_assert!(self.assignment.iter().all(|&a| a != u32::MAX));
        total
    }
}

#[cfg(test)]
mod transportation_tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Random instance: `f` unit supplies, `r` rings, each FF gets 1–4
    /// distinct candidate rings with small integer costs; ring caps 0–3.
    /// Not feasible by construction — infeasible draws exercise the error
    /// path against the oracle.
    fn random_instance(f: usize, r: usize, seed: u64) -> (Vec<Vec<(u32, i64)>>, Vec<i64>) {
        let mut st = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let cands = (0..f)
            .map(|_| {
                let k = 1 + (lcg(&mut st) as usize) % 4.min(r);
                let mut rings: Vec<u32> = Vec::new();
                while rings.len() < k {
                    let j = (lcg(&mut st) as u32) % r as u32;
                    if !rings.contains(&j) {
                        rings.push(j);
                    }
                }
                rings.into_iter().map(|j| (j, (lcg(&mut st) % 100) as i64)).collect()
            })
            .collect();
        // Mean cap ≈ f/r + 1: most draws are feasible, a healthy minority
        // are not (capacity shortfall or candidate-coverage cuts).
        let span = 2 * (f / r) as u64 + 1;
        let caps = (0..r).map(|_| (lcg(&mut st) % span) as i64 + 1).collect();
        (cands, caps)
    }

    /// Drifts costs in place (same structure), occasionally leaving a
    /// flip-flop untouched so warm reuse has something to reuse.
    fn drift(cands: &mut [Vec<(u32, i64)>], seed: u64) {
        let mut st = seed.wrapping_add(0x5851_f42d_4c95_7f2d);
        for list in cands.iter_mut() {
            if lcg(&mut st).is_multiple_of(3) {
                continue;
            }
            for c in list.iter_mut() {
                c.1 = (c.1 + (lcg(&mut st) % 21) as i64 - 10).max(0);
            }
        }
    }

    /// Reference: the float [`FlowNetwork`] one-shot solve of the same
    /// bipartite network. Small integer costs are exact in `f64`.
    fn oracle(cands: &[Vec<(u32, i64)>], caps: &[i64]) -> Option<i64> {
        let f = cands.len();
        let r = caps.len();
        let mut net = FlowNetwork::new(2 + f + r);
        let s = net.node(0);
        let t = net.node(1);
        for (i, list) in cands.iter().enumerate() {
            net.add_arc(s, net.node(2 + i), 1, 0.0);
            for &(j, c) in list {
                net.add_arc(net.node(2 + i), net.node(2 + f + j as usize), 1, c as f64);
            }
        }
        for (j, &cap) in caps.iter().enumerate() {
            net.add_arc(net.node(2 + f + j), t, cap, 0.0);
        }
        let (flow, cost) = net.min_cost_flow(s, t, f as i64)?;
        (flow == f as i64).then_some(cost.round() as i64)
    }

    /// Checks the extracted assignment is a valid optimal solution.
    fn check_valid(tp: &Transportation, cands: &[Vec<(u32, i64)>], caps: &[i64], opt_cost: i64) {
        let mut loads = vec![0i64; caps.len()];
        let mut total = 0i128;
        for (i, &ring) in tp.assignment().iter().enumerate() {
            let c = cands[i]
                .iter()
                .find(|&&(j, _)| j == ring)
                .expect("assigned ring must be a candidate")
                .1;
            loads[ring as usize] += 1;
            total += c as i128;
        }
        for (j, &l) in loads.iter().enumerate() {
            assert!(l <= caps[j], "ring {j} over capacity");
        }
        assert_eq!(total, tp.total_cost());
        assert_eq!(total, opt_cost as i128, "extracted assignment not optimal");
    }

    #[test]
    fn cold_matches_oracle() {
        for seed in 0..40u64 {
            let (cands, caps) = random_instance(24, 6, seed);
            let mut tp = Transportation::new(24, 6);
            match (tp.solve(&cands, &caps, false), oracle(&cands, &caps)) {
                (Ok(_), Some(cost)) => {
                    assert_eq!(tp.backend_label(), "tp-cold");
                    check_valid(&tp, &cands, &caps, cost);
                }
                (Err(TransportationInfeasible), None) => {}
                (got, want) => panic!("seed {seed}: engine {got:?} vs oracle {want:?}"),
            }
        }
    }

    #[test]
    fn warm_drift_is_bit_identical_to_cold() {
        for seed in 0..12u64 {
            let (mut cands, caps) = random_instance(32, 8, seed.wrapping_mul(77).wrapping_add(3));
            let Some(_) = oracle(&cands, &caps) else { continue };
            let mut warm = Transportation::new(32, 8);
            warm.solve(&cands, &caps, false).expect("feasible");
            let mut reused_any = false;
            for step in 0..6u64 {
                drift(&mut cands, seed ^ (step << 8));
                let stats = warm.solve(&cands, &caps, true).expect("drift keeps feasibility");
                assert_eq!(warm.backend_label(), "tp-warm");
                reused_any |= stats.reused_arcs > 0;
                let mut cold = Transportation::new(32, 8);
                cold.solve(&cands, &caps, false).expect("feasible");
                assert_eq!(warm.assignment(), cold.assignment(), "seed {seed} step {step}");
                assert_eq!(warm.total_cost(), cold.total_cost());
                check_valid(&warm, &cands, &caps, oracle(&cands, &caps).unwrap());
            }
            assert!(reused_any, "seed {seed}: warm chain never reused carried flow");
        }
    }

    #[test]
    fn structural_add_drop_is_bit_identical_to_cold() {
        for seed in 0..12u64 {
            let (mut cands, mut caps) =
                random_instance(24, 6, seed.wrapping_mul(131).wrapping_add(7));
            if oracle(&cands, &caps).is_none() {
                continue;
            }
            let mut warm = Transportation::new(24, 6);
            warm.solve(&cands, &caps, false).expect("feasible");
            let mut st = seed;
            for step in 0..6 {
                // Mutate structure: drop a candidate here, append one there,
                // and wiggle a capacity.
                for list in cands.iter_mut() {
                    match lcg(&mut st) % 4 {
                        0 if list.len() > 1 => {
                            let at = (lcg(&mut st) as usize) % list.len();
                            list.remove(at);
                        }
                        1 => {
                            let j = (lcg(&mut st) as u32) % 6;
                            if !list.iter().any(|&(r, _)| r == j) {
                                list.push((j, (lcg(&mut st) % 100) as i64));
                            }
                        }
                        _ => {}
                    }
                }
                let j = (lcg(&mut st) as usize) % caps.len();
                caps[j] = (lcg(&mut st) % 4) as i64;
                let warm_res = warm.solve(&cands, &caps, true);
                let mut cold = Transportation::new(24, 6);
                let cold_res = cold.solve(&cands, &caps, false);
                match (warm_res, cold_res, oracle(&cands, &caps)) {
                    (Ok(_), Ok(_), Some(cost)) => {
                        assert_eq!(warm.assignment(), cold.assignment(), "seed {seed} step {step}");
                        assert_eq!(warm.total_cost(), cold.total_cost());
                        check_valid(&warm, &cands, &caps, cost);
                    }
                    (Err(_), Err(_), None) => {
                        // Both err, engine reset: the next solve reseeds
                        // the warm chain cold.
                    }
                    (w, c, o) => {
                        panic!("seed {seed} step {step}: warm {w:?} cold {c:?} oracle {o:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_errs_and_recovers_warm_and_cold() {
        let feasible: Vec<Vec<(u32, i64)>> =
            vec![vec![(0, 5), (1, 9)], vec![(0, 3)], vec![(1, 2), (0, 8)]];
        let caps_ok = vec![2i64, 2];
        let caps_short = vec![1i64, 0];
        let mut tp = Transportation::new(3, 2);
        assert_eq!(tp.solve(&feasible, &caps_short, false), Err(TransportationInfeasible));
        // Engine reset itself: next solve (cold) succeeds.
        tp.solve(&feasible, &caps_ok, false).expect("feasible");
        assert_eq!(tp.assignment(), &[0, 0, 1]);
        // Warm solve into an infeasible cap change errs too…
        assert_eq!(tp.solve(&feasible, &caps_short, true), Err(TransportationInfeasible));
        // …and the chain recovers afterwards, agreeing with cold.
        tp.solve(&feasible, &caps_ok, true).expect("feasible again");
        let mut cold = Transportation::new(3, 2);
        cold.solve(&feasible, &caps_ok, false).expect("feasible");
        assert_eq!(tp.assignment(), cold.assignment());
        assert_eq!(tp.total_cost(), cold.total_cost());
    }

    #[test]
    fn tie_completion_is_deterministic_and_valid() {
        // Every cost equal: the canonical duals force nothing and the
        // rank-cost tie matching assigns everyone; tight caps make every
        // ring must-fill.
        let f = 12;
        let r = 3;
        let cands: Vec<Vec<(u32, i64)>> =
            (0..f).map(|i| (0..r).map(|j| (((i + j) % r) as u32, 7i64)).collect()).collect();
        let caps = vec![4i64; r];
        let mut cold = Transportation::new(f, r);
        cold.solve(&cands, &caps, false).expect("feasible");
        check_valid(&cold, &cands, &caps, oracle(&cands, &caps).unwrap());
        // Rank preference: with ties everywhere each FF gets its rank-0
        // candidate when caps allow — here the rank-0 rings rotate, so
        // they do.
        for (i, &ring) in cold.assignment().iter().enumerate() {
            assert_eq!(ring, cands[i][0].0, "rank tiebreak must prefer rank 0");
        }
        // Warm chain through a no-op and a drifted re-solve extracts the
        // identical answer.
        let mut warm = Transportation::new(f, r);
        warm.solve(&cands, &caps, false).expect("feasible");
        warm.solve(&cands, &caps, true).expect("feasible");
        assert_eq!(warm.assignment(), cold.assignment());
        let mut drifted = cands.clone();
        drifted[5][0].1 = 6; // break one tie
        warm.solve(&drifted, &caps, true).expect("feasible");
        let mut cold2 = Transportation::new(f, r);
        cold2.solve(&drifted, &caps, false).expect("feasible");
        assert_eq!(warm.assignment(), cold2.assignment());
        assert_eq!(warm.total_cost(), cold2.total_cost());
    }
}
