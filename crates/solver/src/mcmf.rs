//! Min-cost network flow.
//!
//! Four entry points:
//!
//! * [`FlowNetwork::min_cost_flow`] — successive shortest augmenting paths
//!   with Johnson potentials (Dijkstra inside) on `f64` costs: the
//!   reference oracle of the assignment tests, and the small rank-cost
//!   tie matching of the stage-3 extraction.
//! * [`FlowNetwork::min_cost_circulation`] — saturate every negative-cost
//!   arc, then route the resulting imbalances back via successive shortest
//!   paths; the original one-shot `f64` engine for the dual of the
//!   weighted-sum skew optimization, kept as the reference oracle of the
//!   circulation tests.
//! * [`Circulation`] — the one exact engine the flow runs: a primal
//!   network simplex (artificial root, strongly feasible spanning tree,
//!   block-search pricing) over exact *integer* arc costs. Stage 4 solves
//!   min-cost circulations on it; a re-solve with unchanged caps — the
//!   phase re-wrap, where only reference-arc costs move — resumes from the
//!   carried basis, and any cap change starts from the artificial basis.
//!   [`Circulation::with_supply`] adds node supplies in the equality form
//!   of LEMON's `NetworkSimplex`.
//! * [`solve_transportation`] — the stage-3 flip-flop → ring assignment of
//!   Section V (Fig. 4): one cold supply-form solve per pass, with the
//!   assignment extracted from the canonical residual distances, so it
//!   does not depend on which optimal flow the pivots reach.
//!
//! [`FlowNetwork`] costs are `f64` with a small comparison tolerance;
//! [`Circulation`] costs are exact integers (`i64` for stage 4, `i128`
//! pivot arithmetic for the supply-form stage-3 instances; callers
//! quantize once) so optimality is exact and the recovered duals are
//! canonical. Capacities are integral (`i64`) everywhere, so the
//! assignment solutions are automatically 0/1.
//!
//! No relaxation loop lives in this module: all Bellman–Ford-style work
//! (potential initialization, negative-cycle search, canonical distances)
//! runs on the shared SPFA kernel in [`crate::graph`], and the Dijkstra
//! passes of [`FlowNetwork`] run on the generic [`crate::graph::Dijkstra`]
//! kernel.

use crate::graph::{
    Cost, Dijkstra, RelaxOutcome, SettleControl, Source, SpfaGraph, WarmSpfa, NO_PRED,
};
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

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
    /// Simplex pivots: entering arcs the block-search pricing selected,
    /// degenerate pivots and bound flips included.
    pub pivots: usize,
    /// Pivots that moved a positive amount of flow around their cycle.
    pub nondegenerate_pivots: usize,
    /// Spanning-tree arcs (pairs, not artificial root arcs) of the basis a
    /// warm solve resumed from. Zero on cold solves.
    pub reused_arcs: usize,
    /// Pairs whose cap or cost differs from the previous solve on this
    /// engine. Zero when the caller asked for a cold solve.
    pub delta_pairs: usize,
    /// Distinct endpoint nodes of the changed pairs. Zero when the caller
    /// asked for a cold solve.
    pub touched_nodes: usize,
}

/// Which min-cost-circulation algorithm [`Circulation::solve`] runs.
///
/// One engine is left, the primal network simplex; the enum stays so
/// `FlowConfig` and `SkewContext` keep their configuration surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CirculationBackend {
    /// Primal network simplex with block-search pricing.
    #[default]
    NetworkSimplex,
}

impl CirculationBackend {
    /// Telemetry label of the backend (`"network-simplex"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::NetworkSimplex => "network-simplex",
        }
    }
}

/// No parent / no predecessor arc (the artificial root's tree links).
const NONE: u32 = u32::MAX;
/// Tree-arc orientation: the arc points from the node to its parent.
const UP: i8 = 1;
/// Tree-arc orientation: the arc points from the parent to the node.
const DOWN: i8 = -1;
/// Arc state: nonbasic at zero flow. The state multiplies the reduced cost
/// in pricing, so an arc is eligible exactly when `state · rc < 0`.
const LOWER: i8 = 1;
/// Arc state: spanning-tree arc. Zero-capacity pairs also sit at 0: they
/// can never carry flow, so pricing skips them.
const TREE: i8 = 0;
/// Arc state: nonbasic at full capacity.
const UPPER: i8 = -1;

/// Arithmetic type of the network simplex's costs, potentials and reduced
/// costs: `i64` for the stage-4 circulation, `i128` for the supply-form
/// stage-3 instances, whose artificial cost needs the headroom (see
/// [`Circulation::with_supply`]).
pub trait PivotCost:
    Cost
    + Ord
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + From<i64>
    + Into<i128>
{
}

impl PivotCost for i64 {}
impl PivotCost for i128 {}

/// A tree orientation or arc state (±1) as a cost multiplier.
fn sign<C: PivotCost>(s: i8) -> C {
    C::from(i64::from(s))
}

/// The cycle one pivot works on: the entering arc, the apex of its tree
/// cycle, the leaving arc's lower endpoint `u_out`, the endpoint `u_in`
/// whose subtree is re-hung below `v_in`, and the flow change `delta`.
struct Pivot {
    in_arc: usize,
    join: usize,
    u_in: usize,
    v_in: usize,
    u_out: usize,
    delta: i64,
}

/// Incremental min-cost circulation over a fixed arc topology.
///
/// Built once from `(from, to)` endpoint pairs; every [`Self::solve`] call
/// supplies fresh capacities and **integer** costs for the same pairs.
///
/// The algorithm is the primal network simplex in the form of LEMON's
/// `NetworkSimplex` (Kovács, "Minimum-cost flow algorithms: an
/// experimental evaluation", Optim. Methods Softw. 2015):
///
/// * **Artificial root.** Node `n` is a root with one uncapacitated
///   artificial arc per node. The cold basis is the star of those arcs.
///   Built by [`Circulation::new`], every arc is a zero-cost `u → root` at
///   zero flow; the root then has no out-arc, so no circulation can route
///   flow through it and the optimum is the optimum of the pairs alone.
///   [`Self::with_supply`] orients the arcs of demand nodes out of the
///   root and prices them so that flow leaves them whenever the supplies
///   can be met.
/// * **Strongly feasible spanning tree.** The tree is stored as parent /
///   predecessor arc / preorder thread / subtree size / last successor
///   per node. The leaving arc is the *last* blocking arc met walking the
///   pivot cycle from its apex along the flow direction (first side `<`,
///   second side `<=`), which keeps the tree strongly feasible, so
///   degenerate pivots cannot cycle.
/// * **Block-search pricing.** Pricing scans the pairs cyclically in
///   blocks of ⌈√m⌉ and enters the most violating arc of the first block
///   that has one.
/// * **Warm starts.** When the caps are unchanged since the previous
///   solve (the phase re-wrap case: only reference-arc costs move by
///   `k·T/2`), the carried flow is still feasible and the carried tree is
///   still a basis. The solve re-prices the tree potentials in one thread
///   traversal and keeps pivoting. Any cap change restarts from the
///   artificial basis.
///
/// Costs are exact `i64` (callers quantize `f64` costs once, at a fixed
/// power-of-two scale): every comparison is exact, so a terminating solve
/// is *exactly* optimal. That exactness is what makes warm and cold
/// solves interchangeable: the shortest residual distance from the
/// virtual source to each node equals `OPT(circulation + unit demand) −
/// OPT(circulation)`, a constant of the *problem* rather than of the
/// particular optimal flow or basis, so [`Self::canonical_distances`]
/// returns bit-identical duals no matter which optimum the solve landed
/// on.
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
/// // Re-solve with one cost flipped: same caps, so the basis carries.
/// let stats = net.solve(&[2, 2, 2], &[-1, 3, -1], true);
/// assert_eq!(net.total_cost(), 0);
/// assert!(stats.reused_arcs > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Circulation<C: PivotCost = i64> {
    /// Node count; the artificial root is node `n`.
    n: usize,
    /// Pair count. Arc `k < m` is pair `k`; arc `m + u` is node `u`'s
    /// artificial arc: `u → root` when `supply[u] ≥ 0`, else `root → u`.
    m: usize,
    /// Node supplies (positive = source, negative = demand); sum to 0.
    supply: Vec<i64>,
    source: Vec<u32>,
    target: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<C>,
    flow: Vec<i64>,
    state: Vec<i8>,
    /// Spanning tree, per node (root included): parent node, predecessor
    /// arc and its orientation, preorder thread and its inverse, subtree
    /// size, and the last node of the subtree in thread order.
    parent: Vec<u32>,
    pred: Vec<u32>,
    pred_dir: Vec<i8>,
    thread: Vec<u32>,
    rev_thread: Vec<u32>,
    succ_num: Vec<u32>,
    last_succ: Vec<u32>,
    /// Node potentials: `cost + π_source − π_target` is zero on tree arcs.
    pi: Vec<C>,
    /// Scratch of the thread update.
    dirty_revs: Vec<u32>,
    /// Pricing block size, ⌈√m⌉.
    block: usize,
    /// Where the next pricing scan starts.
    next_arc: usize,
    /// Whether the arrays hold the basis of an earlier solve.
    solved: bool,
    stats: CirculationStats,
    /// Scratch of the changed-pair endpoint count.
    touched: Vec<bool>,
    /// Shared-kernel SPFA over the residual slots for
    /// [`Self::canonical_distances`]: slot `2k` is pair `k` forward, slot
    /// `2k + 1` its reverse.
    canon: WarmSpfa<C>,
}

impl Circulation {
    /// Builds the engine over `n` nodes and the given `(from, to)` pairs;
    /// capacities and costs arrive per [`Self::solve`]. Every supply is
    /// zero, so a solve finds a min-cost circulation.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, pairs: &[(u32, u32)]) -> Self {
        Self::with_supply(n, pairs, &vec![0; n])
    }
}

impl<C: PivotCost> Circulation<C> {
    /// [`Circulation::new`] with node supplies (positive = source,
    /// negative = demand): a solve finds a min-cost flow that meets them
    /// exactly, in the equality form of LEMON's `NetworkSimplex`.
    ///
    /// The cold basis hangs every node with `supply ≥ 0` from the root on
    /// a zero-cost up-arc carrying its supply, and every demand node on a
    /// down-arc `root → u` carrying its demand at the artificial cost
    /// `A = 1 + Σ_k |cost_k|`. A unit routed through the root pays `A`
    /// and saves at most one simple path of pairs, which costs less than
    /// `A`, so an optimum puts flow on an artificial arc only when the
    /// supplies cannot be met: [`Self::is_feasible`] reads that off after
    /// the solve. With all-zero supplies the cold basis is the plain
    /// artificial star and `A` is never used.
    ///
    /// Overflow, with `Σ = Σ_k |cost_k|`: a potential is the signed cost
    /// of the tree path from the root, which holds each pair at most once
    /// and one artificial arc, so `|π| ≤ A + Σ = 2Σ + 1`. A potential
    /// difference is the cost of a tree path too (two artificial arcs at
    /// most, entering with opposite signs), so every reduced cost, and
    /// every intermediate a pivot computes, is at most `3Σ + 1` in
    /// magnitude. A solve with a demand node asserts `3Σ + 1 ≤ C::MAX`:
    /// `i128` holds it for any realistic `i64` costs; `i64` does not at
    /// stage-3 scale.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `supply.len() != n`, or the
    /// supplies do not sum to zero.
    pub fn with_supply(n: usize, pairs: &[(u32, u32)], supply: &[i64]) -> Self {
        assert_eq!(supply.len(), n, "supply vector length mismatch");
        assert_eq!(supply.iter().sum::<i64>(), 0, "supplies must sum to zero");
        let m = pairs.len();
        let mut source = Vec::with_capacity(m + n);
        let mut target = Vec::with_capacity(m + n);
        for &(from, to) in pairs {
            assert!((from as usize) < n && (to as usize) < n, "arc ({from}, {to}) out of range");
            source.push(from);
            target.push(to);
        }
        for (u, &s) in supply.iter().enumerate() {
            let (from, to) = if s >= 0 { (u, n) } else { (n, u) };
            source.push(from as u32);
            target.push(to as u32);
        }
        let mut cap = vec![0; m + n];
        cap[m..].iter_mut().for_each(|c| *c = i64::MAX);
        Self {
            n,
            m,
            supply: supply.to_vec(),
            source,
            target,
            cap,
            cost: vec![C::ZERO; m + n],
            flow: vec![0; m + n],
            state: vec![LOWER; m + n],
            parent: vec![NONE; n + 1],
            pred: vec![NONE; n + 1],
            pred_dir: vec![UP; n + 1],
            thread: vec![0; n + 1],
            rev_thread: vec![0; n + 1],
            succ_num: vec![0; n + 1],
            last_succ: vec![0; n + 1],
            pi: vec![C::ZERO; n + 1],
            dirty_revs: Vec::new(),
            block: ((m as f64).sqrt().ceil() as usize).max(1),
            next_arc: 0,
            solved: false,
            stats: CirculationStats::default(),
            touched: vec![false; n],
            canon: WarmSpfa::from_arcs(
                n,
                pairs
                    .iter()
                    .flat_map(|&(u, v)| [(u as usize, v as usize), (v as usize, u as usize)]),
            ),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of arc pairs.
    pub fn num_pairs(&self) -> usize {
        self.m
    }

    /// Capacities of the last [`Self::solve`], by pair.
    pub fn caps(&self) -> &[i64] {
        &self.cap[..self.m]
    }

    /// Flow currently on pair `k`.
    pub fn flow(&self, k: usize) -> i64 {
        self.flow[k]
    }

    /// Total cost of the current flow over the pairs, `Σ flow_k · cost_k`,
    /// exact. `i128`: flows of ~2^24 on ~2^43-scaled costs overflow `i64`.
    pub fn total_cost(&self) -> i128 {
        (0..self.m).map(|k| i128::from(self.flow[k]) * self.cost[k].into()).sum()
    }

    /// Whether the last [`Self::solve`] met every supply: no artificial
    /// arc carries flow. Always true with all-zero supplies.
    pub fn is_feasible(&self) -> bool {
        self.flow[self.m..].iter().all(|&x| x == 0)
    }

    /// Effort counters of the last [`Self::solve`].
    pub fn stats(&self) -> CirculationStats {
        self.stats
    }

    /// Computes a minimum-cost flow meeting the supplies (a circulation
    /// when they are all zero) for the given capacities and integer costs
    /// (indexed by pair, like the constructor's `pairs`).
    ///
    /// With `warm = true` and the caps of the previous solve, the carried
    /// basis is re-priced under the new costs and pivoting resumes from
    /// it. Otherwise the solve starts from the artificial basis. Either
    /// way the result is exactly optimal; warm starting only changes how
    /// fast it arrives.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the pair count or a capacity
    /// is negative.
    pub fn solve(&mut self, caps: &[i64], costs: &[C], warm: bool) -> CirculationStats {
        self.install(caps, costs, warm);
        while let Some(in_arc) = self.find_entering() {
            self.pivot(in_arc);
        }
        self.stats
    }

    /// Installs the instance and the starting basis: the carried one,
    /// re-priced, when `warm` and the caps are unchanged; otherwise the
    /// artificial one.
    fn install(&mut self, caps: &[i64], costs: &[C], warm: bool) {
        let m = self.m;
        assert_eq!(caps.len(), m, "capacity vector length mismatch");
        assert_eq!(costs.len(), m, "cost vector length mismatch");
        assert!(caps.iter().all(|&c| c >= 0), "negative capacity");
        self.stats = CirculationStats::default();
        if warm {
            self.count_delta(caps, costs);
        }
        let resume = warm && self.solved && caps == &self.cap[..m];
        self.cap[..m].copy_from_slice(caps);
        self.cost[..m].copy_from_slice(costs);
        if self.supply.iter().any(|&s| s < 0) {
            let art = self.artificial_cost();
            for u in 0..self.n {
                if self.supply[u] < 0 {
                    self.cost[m + u] = art;
                }
            }
        }
        if resume {
            self.stats.reused_arcs =
                self.pred[..self.n].iter().filter(|&&a| (a as usize) < m).count();
            self.reprice();
        } else {
            self.cold_basis();
        }
        self.solved = true;
    }

    /// Counts the pairs whose cap or cost differs from the engine state,
    /// and their distinct endpoints.
    fn count_delta(&mut self, caps: &[i64], costs: &[C]) {
        self.touched.iter_mut().for_each(|t| *t = false);
        for k in 0..self.m {
            if caps[k] != self.cap[k] || costs[k] != self.cost[k] {
                self.stats.delta_pairs += 1;
                for v in [self.source[k], self.target[k]] {
                    if !std::mem::replace(&mut self.touched[v as usize], true) {
                        self.stats.touched_nodes += 1;
                    }
                }
            }
        }
    }

    /// The artificial basis: zero flow on every pair, every node a child
    /// of the root through its artificial arc carrying its supply (see
    /// [`Self::with_supply`]), thread `root, 0, 1, …, n − 1`.
    fn cold_basis(&mut self) {
        let (n, m) = (self.n, self.m);
        self.flow.iter_mut().for_each(|f| *f = 0);
        for k in 0..m {
            self.state[k] = if self.cap[k] > 0 { LOWER } else { TREE };
        }
        let root = n;
        self.parent[root] = NONE;
        self.pred[root] = NONE;
        self.thread[root] = 0;
        self.rev_thread[0] = root as u32;
        self.succ_num[root] = n as u32 + 1;
        self.last_succ[root] = n.saturating_sub(1) as u32;
        self.pi[root] = C::ZERO;
        for u in 0..n {
            let (e, s) = (m + u, self.supply[u]);
            self.parent[u] = root as u32;
            self.pred[u] = e as u32;
            self.thread[u] = u as u32 + 1;
            self.rev_thread[u + 1] = u as u32;
            self.succ_num[u] = 1;
            self.last_succ[u] = u as u32;
            self.state[e] = TREE;
            self.flow[e] = s.abs();
            (self.pred_dir[u], self.pi[u]) =
                if s >= 0 { (UP, C::ZERO) } else { (DOWN, self.cost[e]) };
        }
        self.next_arc = 0;
    }

    /// The artificial cost `A = 1 + Σ_k |cost_k|` of the demand nodes'
    /// down-arcs, after checking that `3Σ + 1` fits the cost type (the
    /// overflow bound of [`Self::with_supply`]). Re-priced on every solve,
    /// so a warm re-solve under new costs keeps a sound `A`.
    fn artificial_cost(&self) -> C {
        let sum = self.cost[..self.m]
            .iter()
            .try_fold(0i128, |acc, &c| acc.checked_add(c.into().checked_abs()?));
        let max: i128 = C::UNREACHED.into();
        assert!(
            sum.and_then(|x| x.checked_mul(3)).is_some_and(|x| x < max),
            "supply-form costs too large for the pivot cost type: 3·Σ|cost| + 1 overflows"
        );
        self.cost[..self.m].iter().fold(C::from(1), |a, &c| a + if c < C::ZERO { -c } else { c })
    }

    /// Recomputes every potential from the root down the thread, so tree
    /// arcs have zero reduced cost under the current costs.
    fn reprice(&mut self) {
        let root = self.n;
        let mut u = self.thread[root] as usize;
        while u != root {
            let e = self.pred[u] as usize;
            let p = self.parent[u] as usize;
            self.pi[u] = self.pi[p] - sign::<C>(self.pred_dir[u]) * self.cost[e];
            u = self.thread[u] as usize;
        }
    }

    /// Block-search pricing: scans the pairs cyclically from `next_arc`
    /// in blocks of ⌈√m⌉ and returns the most violating arc of the first
    /// block that has one; `None` certifies optimality.
    fn find_entering(&mut self) -> Option<usize> {
        let (m, block) = (self.m, self.block);
        let Self { state, cost, source, target, pi, .. } = self;
        let mut e = self.next_arc;
        let (mut min, mut best, mut left) = (C::ZERO, 0usize, block);
        for _ in 0..m {
            let rc = cost[e] + pi[source[e] as usize] - pi[target[e] as usize];
            let c = sign::<C>(state[e]) * rc;
            if c < min {
                min = c;
                best = e;
            }
            e = if e + 1 == m { 0 } else { e + 1 };
            left -= 1;
            if left == 0 {
                if min < C::ZERO {
                    break;
                }
                left = block;
            }
        }
        self.next_arc = e;
        (min < C::ZERO).then_some(best)
    }

    /// One simplex iteration on entering arc `in_arc`: find the cycle's
    /// apex and leaving arc, push `delta` around the cycle, and — unless
    /// the entering arc itself blocks (a bound flip) — exchange the arcs
    /// in the tree and shift the potentials of the re-hung subtree.
    fn pivot(&mut self, in_arc: usize) {
        self.stats.pivots += 1;
        let join = self.find_join(in_arc);
        let (p, change) = self.find_leaving(in_arc, join);
        if p.delta > 0 {
            self.stats.nondegenerate_pivots += 1;
            let val = i64::from(self.state[in_arc]) * p.delta;
            self.flow[in_arc] += val;
            let mut u = self.source[in_arc] as usize;
            while u != join {
                self.flow[self.pred[u] as usize] -= i64::from(self.pred_dir[u]) * val;
                u = self.parent[u] as usize;
            }
            let mut u = self.target[in_arc] as usize;
            while u != join {
                self.flow[self.pred[u] as usize] += i64::from(self.pred_dir[u]) * val;
                u = self.parent[u] as usize;
            }
        }
        if change {
            self.state[in_arc] = TREE;
            let out = self.pred[p.u_out] as usize;
            self.state[out] = if self.flow[out] == 0 { LOWER } else { UPPER };
            self.update_tree(&p);
            self.update_potential(&p);
        } else {
            self.state[in_arc] = -self.state[in_arc];
        }
    }

    /// The apex of the tree cycle closed by `in_arc`: walk up from the
    /// endpoint with the smaller subtree until the two walks meet.
    fn find_join(&self, in_arc: usize) -> usize {
        let mut u = self.source[in_arc] as usize;
        let mut v = self.target[in_arc] as usize;
        while u != v {
            if self.succ_num[u] < self.succ_num[v] {
                u = self.parent[u] as usize;
            } else {
                v = self.parent[v] as usize;
            }
        }
        u
    }

    /// Residual capacity of `u`'s tree arc in the direction the cycle
    /// pushes: `toward_parent` when flow moves from `u` up to its parent.
    fn tree_residual(&self, u: usize, toward_parent: bool) -> i64 {
        let e = self.pred[u] as usize;
        if (self.pred_dir[u] == UP) == toward_parent {
            self.cap[e] - self.flow[e]
        } else {
            self.flow[e]
        }
    }

    /// The leaving arc of the cycle closed by `in_arc` under the strongly
    /// feasible rule: flow runs from the apex down to `first`, across
    /// `in_arc`, and from `second` back up; the leaving arc is the last
    /// blocking arc in that order (`<` on the first side, `<=` on the
    /// second). Returns `change = false` when `in_arc` blocks itself.
    fn find_leaving(&self, in_arc: usize, join: usize) -> (Pivot, bool) {
        let (first, second) = if self.state[in_arc] == LOWER {
            (self.source[in_arc] as usize, self.target[in_arc] as usize)
        } else {
            (self.target[in_arc] as usize, self.source[in_arc] as usize)
        };
        let mut delta = self.cap[in_arc];
        let mut side = 0;
        let mut u_out = NONE as usize;
        let mut u = first;
        while u != join {
            let d = self.tree_residual(u, false);
            if d < delta {
                (delta, u_out, side) = (d, u, 1);
            }
            u = self.parent[u] as usize;
        }
        let mut u = second;
        while u != join {
            let d = self.tree_residual(u, true);
            if d <= delta {
                (delta, u_out, side) = (d, u, 2);
            }
            u = self.parent[u] as usize;
        }
        let (u_in, v_in) = if side == 1 { (first, second) } else { (second, first) };
        (Pivot { in_arc, join, u_in, v_in, u_out, delta }, side != 0)
    }

    /// Exchanges the leaving arc (`pred[u_out]`) for the entering arc:
    /// the subtree hanging below the leaving arc is re-rooted at `u_in`
    /// and re-hung below `v_in`, reversing the stem path `u_in ⇝ u_out`;
    /// threads, subtree sizes and last successors are patched along the
    /// stem and up to the apex.
    fn update_tree(&mut self, p: &Pivot) {
        let &Pivot { in_arc, join, u_in, v_in, u_out, .. } = p;
        let Self {
            source,
            parent,
            pred,
            pred_dir,
            thread,
            rev_thread,
            succ_num,
            last_succ,
            dirty_revs,
            ..
        } = self;
        let ix = |u: u32| u as usize;
        let old_rev_thread = ix(rev_thread[u_out]);
        let old_succ_num = succ_num[u_out];
        let old_last_succ = ix(last_succ[u_out]);
        let v_out = ix(parent[u_out]);
        let in_dir = if u_in == ix(source[in_arc]) { UP } else { DOWN };

        if u_in == u_out {
            // Same subtree, new parent: move its thread block after v_in.
            parent[u_in] = v_in as u32;
            pred[u_in] = in_arc as u32;
            pred_dir[u_in] = in_dir;
            if ix(thread[v_in]) != u_out {
                let after = thread[old_last_succ];
                thread[old_rev_thread] = after;
                rev_thread[ix(after)] = old_rev_thread as u32;
                let after = thread[v_in];
                thread[v_in] = u_out as u32;
                rev_thread[u_out] = v_in as u32;
                thread[old_last_succ] = after;
                rev_thread[ix(after)] = old_last_succ as u32;
            }
        } else {
            // When old_rev_thread is v_in (then join is v_out), the moved
            // block already follows v_in.
            let thread_continue =
                if old_rev_thread == v_in { thread[old_last_succ] } else { thread[v_in] };
            // Walk the stem u_in ⇝ u_out: splice each stem node's block
            // (minus the next stem node's) into the thread after v_in and
            // flip its parent.
            let mut stem = u_in;
            let mut par_stem = v_in;
            let mut last = ix(last_succ[u_in]);
            let mut after = thread[last];
            thread[v_in] = u_in as u32;
            dirty_revs.clear();
            dirty_revs.push(v_in as u32);
            while stem != u_out {
                let next_stem = ix(parent[stem]);
                thread[last] = next_stem as u32;
                dirty_revs.push(last as u32);
                let before = rev_thread[stem];
                thread[ix(before)] = after;
                rev_thread[ix(after)] = before;
                parent[stem] = par_stem as u32;
                par_stem = stem;
                stem = next_stem;
                last = if last_succ[stem] == last_succ[par_stem] {
                    ix(rev_thread[par_stem])
                } else {
                    ix(last_succ[stem])
                };
                after = thread[last];
            }
            parent[u_out] = par_stem as u32;
            thread[last] = thread_continue;
            rev_thread[ix(thread_continue)] = last as u32;
            last_succ[u_out] = last as u32;
            if old_rev_thread != v_in {
                thread[old_rev_thread] = after;
                rev_thread[ix(after)] = old_rev_thread as u32;
            }
            for &u in dirty_revs.iter() {
                rev_thread[ix(thread[ix(u)])] = u;
            }
            // Reverse pred / orientation along the stem and rebuild the
            // stem nodes' subtree sizes and last successors.
            let mut tmp_sc = 0u32;
            let tmp_ls = last_succ[u_out];
            let mut u = u_out;
            while u != u_in {
                let p = ix(parent[u]);
                pred[u] = pred[p];
                pred_dir[u] = -pred_dir[p];
                tmp_sc += succ_num[u] - succ_num[p];
                succ_num[u] = tmp_sc;
                last_succ[p] = tmp_ls;
                u = p;
            }
            pred[u_in] = in_arc as u32;
            pred_dir[u_in] = in_dir;
            succ_num[u_in] = old_succ_num;
        }

        // Last successors from v_in towards the root.
        let up_limit_out = if ix(last_succ[join]) == v_in { join as u32 } else { NONE };
        let last_succ_out = last_succ[u_out];
        let mut u = v_in as u32;
        while u != NONE && ix(last_succ[ix(u)]) == v_in {
            last_succ[ix(u)] = last_succ_out;
            u = parent[ix(u)];
        }
        // Last successors from v_out towards the root.
        let fix = if join != old_rev_thread && v_in != old_rev_thread {
            Some(old_rev_thread as u32)
        } else {
            (ix(last_succ_out) != old_last_succ).then_some(last_succ_out)
        };
        if let Some(new_last) = fix {
            let mut u = v_out as u32;
            while u != up_limit_out && ix(last_succ[ix(u)]) == old_last_succ {
                last_succ[ix(u)] = new_last;
                u = parent[ix(u)];
            }
        }
        // Subtree sizes along both apex paths.
        let mut u = v_in;
        while u != join {
            succ_num[u] += old_succ_num;
            u = ix(parent[u]);
        }
        let mut u = v_out;
        while u != join {
            succ_num[u] -= old_succ_num;
            u = ix(parent[u]);
        }
    }

    /// Shifts the potentials of the re-hung subtree so the entering arc
    /// has zero reduced cost.
    fn update_potential(&mut self, p: &Pivot) {
        let sigma = self.pi[p.v_in]
            - self.pi[p.u_in]
            - sign::<C>(self.pred_dir[p.u_in]) * self.cost[p.in_arc];
        let end = self.thread[self.last_succ[p.u_in] as usize] as usize;
        let mut u = p.u_in;
        while u != end {
            self.pi[u] = self.pi[u] + sigma;
            u = self.thread[u] as usize;
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
    pub fn canonical_distances(&mut self) -> Vec<C> {
        // Zero labels = virtual source; the exact (`eps = 0`) SPFA
        // fixpoint from fixed starting labels is unique, so this matches
        // any other relaxation order bit for bit. Slots without residual
        // capacity report `i64::MAX` = `Cost::UNREACHED`.
        let Self { canon, cap, cost, flow, .. } = self;
        canon.reset_zero();
        let weight = |a: usize| {
            let k = a >> 1;
            match a & 1 {
                0 if flow[k] < cap[k] => cost[k],
                1 if flow[k] > 0 => -cost[k],
                _ => C::UNREACHED,
            }
        };
        match canon.relax(weight, C::ZERO) {
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
    /// the canonical distances.
    fn assert_canonical_certificate(net: &mut Circulation) {
        let d = net.canonical_distances();
        for k in 0..net.num_pairs() {
            let (u, v) = (net.source[k] as usize, net.target[k] as usize);
            let rc = net.cost[k] + d[u] - d[v];
            if net.flow[k] < net.cap[k] {
                assert!(rc >= 0, "pair {k} forward has negative reduced cost {rc}");
            }
            if net.flow[k] > 0 {
                assert!(rc <= 0, "pair {k} reverse has negative reduced cost {}", -rc);
            }
        }
    }

    /// The basis invariants the pivots must keep: the thread is a preorder
    /// of the spanning tree with consistent inverse, subtree sizes and last
    /// successors; tree arcs link each node to its parent with the stored
    /// orientation and zero reduced cost; nonbasic arcs sit at their bound;
    /// flow meets every supply (a circulation when all are zero); and the
    /// tree is strongly feasible (every node can push a positive amount up
    /// to the root).
    fn assert_basis<C: PivotCost>(net: &Circulation<C>) {
        let (n, m) = (net.n, net.m);
        let root = n;
        let mut order = vec![root];
        let mut u = net.thread[root] as usize;
        while u != root {
            assert!(order.len() <= n, "thread is not a cycle through the root");
            assert_eq!(net.rev_thread[u] as usize, *order.last().unwrap(), "rev_thread at {u}");
            order.push(u);
            u = net.thread[u] as usize;
        }
        assert_eq!(order.len(), n + 1, "thread misses nodes");
        let mut pos = vec![0; n + 1];
        for (i, &u) in order.iter().enumerate() {
            pos[u] = i;
        }
        for (i, &u) in order.iter().enumerate() {
            let size = net.succ_num[u] as usize;
            assert_eq!(order[i + size - 1], net.last_succ[u] as usize, "last_succ of {u}");
            for &v in &order[i + 1..i + size] {
                let mut w = v;
                while w != u && w != root {
                    w = net.parent[w] as usize;
                }
                assert_eq!(w, u, "thread block of {u} holds {v} from outside its subtree");
            }
            if u == root {
                continue;
            }
            let p = net.parent[u] as usize;
            assert!(pos[p] < i, "parent {p} of {u} follows it in the thread");
            let e = net.pred[u] as usize;
            let (s, t) = (net.source[e] as usize, net.target[e] as usize);
            match net.pred_dir[u] {
                UP => assert_eq!((s, t), (u, p), "tree arc of {u}"),
                _ => assert_eq!((s, t), (p, u), "tree arc of {u}"),
            }
            assert_eq!(net.cost[e] + net.pi[s] - net.pi[t], C::ZERO, "tree arc {e} reduced cost");
            assert!(net.tree_residual(u, true) > 0, "tree not strongly feasible at {u}");
        }
        let mut excess = vec![0i64; n + 1];
        let in_tree: Vec<bool> = {
            let mut t = vec![false; m + n];
            net.pred[..n].iter().for_each(|&e| t[e as usize] = true);
            t
        };
        for e in 0..m + n {
            assert!((0..=net.cap[e]).contains(&net.flow[e]), "arc {e} flow out of bounds");
            excess[net.source[e] as usize] -= net.flow[e];
            excess[net.target[e] as usize] += net.flow[e];
            if in_tree[e] {
                assert_eq!(net.state[e], TREE, "tree arc {e} state");
            } else if net.state[e] == LOWER {
                assert_eq!(net.flow[e], 0, "arc {e} at lower bound");
            } else if net.state[e] == UPPER {
                assert_eq!(net.flow[e], net.cap[e], "arc {e} at upper bound");
            } else {
                assert_eq!(net.cap[e], 0, "only zero-cap pairs sit at state 0 off the tree");
            }
        }
        for (u, (&x, &b)) in excess.iter().zip(&net.supply).enumerate() {
            assert_eq!(x, -b, "flow misses the supply of {u}");
        }
        assert_eq!(excess[root], 0, "the root must balance");
    }

    /// [`Circulation::solve`] with the basis invariants checked after
    /// every pivot.
    fn solve_checked<C: PivotCost>(
        net: &mut Circulation<C>,
        caps: &[i64],
        costs: &[C],
        warm: bool,
    ) -> CirculationStats {
        net.install(caps, costs, warm);
        assert_basis(net);
        while let Some(in_arc) = net.find_entering() {
            net.pivot(in_arc);
            assert_basis(net);
        }
        net.stats()
    }

    /// Optimum of the same instance on the `f64` reference engine.
    fn reference_cost(n: usize, pairs: &[(u32, u32)], caps: &[i64], costs: &[i64]) -> f64 {
        let mut reference = FlowNetwork::new(n);
        for ((&(f, t), &cap), &cost) in pairs.iter().zip(caps).zip(costs) {
            reference.add_arc(
                reference.node(f as usize),
                reference.node(t as usize),
                cap,
                cost as f64,
            );
        }
        reference.min_cost_circulation()
    }

    #[test]
    fn engine_cancels_negative_cycle_exactly() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        let stats = solve_checked(&mut net, &[2, 2, 2], &[-1, -1, -1], false);
        assert_eq!(net.total_cost(), -6);
        assert_eq!(stats.reused_arcs, 0, "cold solve reuses nothing");
        assert_eq!(stats.delta_pairs, 0, "cold solve reports no rebind delta");
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn engine_on_positive_graph_is_zero() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        let stats = net.solve(&[5, 5, 5], &[1, 1, 1], false);
        assert_eq!(net.total_cost(), 0);
        assert_eq!((0..3).map(|k| net.flow(k)).sum::<i64>(), 0);
        assert_eq!(stats.pivots, 0, "the artificial basis is already optimal");
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

    /// `random_instance` with costs lifted to a 2^40-like scale: high bits
    /// from the small signed costs, low bits from a per-arc jitter, so
    /// distances are near-unique like the quantized skew duals.
    fn scaled_instance(n: usize, m: usize, seed: u64) -> (Vec<(u32, u32)>, Vec<i64>, Vec<i64>) {
        let (pairs, caps, mut costs) = random_instance(n, m, seed);
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        for c in costs.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *c = *c * (1i64 << 30) + ((state >> 40) as i64 - (1 << 23));
        }
        (pairs, caps, costs)
    }

    fn assert_matches_reference(pairs: &[(u32, u32)], caps: &[i64], costs: &[i64], seed: u64) {
        let want = reference_cost(9, pairs, caps, costs);
        let mut net = Circulation::new(9, pairs);
        solve_checked(&mut net, caps, costs, false);
        assert_eq!(net.total_cost() as f64, want, "seed {seed}");
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn engine_matches_reference_on_random_instances() {
        for seed in 0..12 {
            let (pairs, caps, costs) = random_instance(9, 24, 0xC0FFEE + seed);
            assert_matches_reference(&pairs, &caps, &costs, seed);
        }
    }

    #[test]
    fn scaled_instances_match_reference() {
        for seed in 0..12 {
            let (pairs, caps, costs) = scaled_instance(9, 24, 0xC0FFEE + seed);
            assert_matches_reference(&pairs, &caps, &costs, seed);
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
        let stats = solve_checked(&mut warm, &caps, &costs2, true);
        let mut cold = Circulation::new(11, &pairs);
        cold.solve(&caps, &costs2, false);
        assert_eq!(warm.total_cost(), cold.total_cost(), "warm must stay exactly optimal");
        assert_eq!(
            warm.canonical_distances(),
            cold.canonical_distances(),
            "canonical duals are flow-independent"
        );
        assert!(stats.reused_arcs > 0, "a cost-only change resumes from the carried basis");
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
        let stats = solve_checked(&mut warm, &caps2, &costs, true);
        assert_eq!(stats.reused_arcs, 0, "a cap change restarts from the artificial basis");
        assert!(stats.delta_pairs > 0, "the shrunk caps are reported as the delta");
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
        let (pairs, caps, costs) = scaled_instance(10, 26, 0xFACE);
        let mut net = Circulation::new(10, &pairs);
        net.solve(&caps, &costs, false);
        let cost = net.total_cost();
        let d = net.canonical_distances();
        // Identical warm re-solve: the carried basis is still optimal, so
        // the first pricing pass proves it — no pivots.
        let stats = net.solve(&caps, &costs, true);
        assert_eq!(stats.pivots, 0, "duplicate solve must not pivot");
        assert_eq!(stats.nondegenerate_pivots, 0);
        assert_eq!(stats.delta_pairs, 0);
        assert!(stats.reused_arcs > 0);
        assert_eq!(net.total_cost(), cost);
        assert_eq!(net.canonical_distances(), d);
    }

    #[test]
    fn warm_rewrap_sequence_matches_cold() {
        // Cost-only steps (warm basis) interleaved with a cap change
        // (cold restart) on the same engine.
        let (pairs, caps, costs) = scaled_instance(11, 30, 0xBEEF);
        let mut warm = Circulation::new(11, &pairs);
        warm.solve(&caps, &costs, false);
        let (mut caps2, mut costs2) = (caps.clone(), costs.clone());
        for step in 0..6 {
            costs2[3 + step] += 5 * (1 << 20) - step as i64;
            costs2[12 - step] = -costs2[12 - step];
            if step == 3 {
                caps2[1] += 2;
                caps2[7] = 0;
            }
            let stats = solve_checked(&mut warm, &caps2, &costs2, true);
            assert_eq!(stats.reused_arcs == 0, step == 3, "step {step}: warm iff caps unchanged");
            let mut cold = Circulation::new(11, &pairs);
            cold.solve(&caps2, &costs2, false);
            assert_eq!(warm.total_cost(), cold.total_cost(), "step {step}");
            assert_eq!(warm.canonical_distances(), cold.canonical_distances(), "step {step}");
            assert_canonical_certificate(&mut warm);
        }
    }

    #[test]
    fn large_costs_cancel_negative_cycle_exactly() {
        let mut net = Circulation::new(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = -(1i64 << 40);
        net.solve(&[2, 2, 2], &[c, c, c], false);
        assert_eq!(net.total_cost(), 6 * i128::from(c));
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn total_cost_below_i64_min_is_exact() {
        // Two parallel arcs of cost −2^60 on a 2-cycle with a free return
        // arc: the optimum −16·2^60 = −2^64 is below i64::MIN.
        let c = -(1i64 << 60);
        let mut net = Circulation::new(2, &[(0, 1), (0, 1), (1, 0)]);
        solve_checked(&mut net, &[8, 8, 16], &[c, c, 0], false);
        assert_eq!(net.total_cost(), 16 * i128::from(c));
        assert!(net.total_cost() < i128::from(i64::MIN));
    }

    /// `(n, pairs, caps, costs)` of one hand-built instance.
    type Case = (usize, Vec<(u32, u32)>, Vec<i64>, Vec<i64>);

    #[test]
    fn degenerate_inputs_match_reference() {
        let cases: [Case; 6] = [
            // Zero-cap pairs next to a profitable cycle.
            (3, vec![(0, 1), (1, 2), (2, 0), (1, 0)], vec![2, 2, 2, 0], vec![-3, 1, 1, -9]),
            // All-zero weights: every R-arc pair has cap 0.
            (
                3,
                vec![(0, 1), (0, 2), (2, 0), (1, 2), (2, 1)],
                vec![4, 0, 0, 0, 0],
                vec![-1, 5, -5, 3, -3],
            ),
            // A single flip-flop: one constraint-free R-arc 2-cycle.
            (2, vec![(0, 1), (1, 0)], vec![3, 3], vec![7, -7]),
            // Parallel arcs of different costs.
            (2, vec![(0, 1), (0, 1), (1, 0), (1, 0)], vec![2, 3, 4, 1], vec![-5, -2, 3, 1]),
            // A zero-cost cycle and a tie.
            (3, vec![(0, 1), (1, 2), (2, 0), (0, 2)], vec![5, 5, 5, 5], vec![0, 0, 0, 0]),
            // Negative-bound constraint arcs of a feasible system, plus
            // reference-node pairs that make a negative cycle through them.
            (
                5,
                vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 4), (4, 0), (2, 4), (4, 2)],
                vec![9, 9, 9, 9, 9, 2, 2, 3, 3],
                vec![-2, -1, 2, 3, -2, 5, -5, -4, 4],
            ),
        ];
        for (case, (n, pairs, caps, costs)) in cases.iter().enumerate() {
            let want = reference_cost(*n, pairs, caps, costs);
            let mut net = Circulation::new(*n, pairs);
            solve_checked(&mut net, caps, costs, false);
            assert_eq!(net.total_cost() as f64, want, "case {case}");
            assert_canonical_certificate(&mut net);
            let d = net.canonical_distances();
            let stats = solve_checked(&mut net, caps, costs, true);
            assert_eq!(stats.pivots, 0, "case {case}: duplicate warm solve");
            assert_eq!(net.canonical_distances(), d, "case {case}");
        }
    }

    /// Three negative 2-cycles into a shared hub (node 0).
    fn hub_pairs() -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for k in 0..3u32 {
            let v = 1 + k;
            pairs.push((v, 0));
            pairs.push((0, v));
        }
        pairs
    }

    #[test]
    fn hub_cycles_reach_optimum() {
        // Every cycle crosses the hub, like the reference node R of the
        // skew dual; each must be saturated independently.
        let mut net = Circulation::new(4, &hub_pairs());
        solve_checked(&mut net, &[3; 6], &[-2, 1, -2, 1, -2, 1], false);
        assert_eq!(net.total_cost(), -3 * 3);
        for k in 0..6 {
            assert_eq!(net.flow(k), 3, "pair {k} of a profitable 2-cycle is saturated");
        }
        assert_canonical_certificate(&mut net);
    }

    #[test]
    fn stats_count_pivots() {
        let mut net = Circulation::new(4, &hub_pairs());
        let stats = net.solve(&[3; 6], &[-2, 1, -2, 1, -2, 1], false);
        assert_eq!(net.total_cost(), -3 * 3);
        assert!(stats.nondegenerate_pivots >= 3, "three cycles need three flow changes");
        assert!(stats.pivots >= stats.nondegenerate_pivots);
        assert_eq!((stats.reused_arcs, stats.delta_pairs, stats.touched_nodes), (0, 0, 0));
    }

    /// Min-cost flow meeting `supply` on the `f64` reference engine (super
    /// source and sink around the supply and demand nodes); `None` when the
    /// supplies cannot be met. Needs non-negative costs.
    fn reference_supply_cost(
        pairs: &[(u32, u32)],
        caps: &[i64],
        costs: &[i64],
        supply: &[i64],
    ) -> Option<f64> {
        let n = supply.len();
        let mut reference = FlowNetwork::new(n + 2);
        let (s, t) = (reference.node(n), reference.node(n + 1));
        for ((&(f, to), &cap), &cost) in pairs.iter().zip(caps).zip(costs) {
            let (f, to) = (reference.node(f as usize), reference.node(to as usize));
            reference.add_arc(f, to, cap, cost as f64);
        }
        for (u, &b) in supply.iter().enumerate() {
            match b {
                b if b > 0 => reference.add_arc(s, reference.node(u), b, 0.0),
                b if b < 0 => reference.add_arc(reference.node(u), t, -b, 0.0),
                _ => continue,
            };
        }
        let total: i64 = supply.iter().filter(|&&b| b > 0).sum();
        if total == 0 {
            return Some(0.0);
        }
        let (flow, cost) = reference.min_cost_flow(s, t, total)?;
        (flow == total).then_some(cost)
    }

    #[test]
    fn supply_form_matches_reference() {
        let mut feasible = 0;
        for seed in 0..24u64 {
            let (pairs, caps, mut costs) = random_instance(9, 24, 0x5EED + seed);
            costs.iter_mut().for_each(|c| *c = c.abs());
            let mut state = seed | 1;
            let mut supply = vec![0i64; 9];
            for _ in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (a, b) = ((state >> 33) as usize % 9, (state >> 45) as usize % 9);
                supply[a] += 2;
                supply[b] -= 2;
            }
            let want = reference_supply_cost(&pairs, &caps, &costs, &supply);
            let wide: Vec<i128> = costs.iter().map(|&c| i128::from(c)).collect();
            let mut net = Circulation::with_supply(9, &pairs, &supply);
            solve_checked(&mut net, &caps, &wide, false);
            assert_eq!(net.is_feasible(), want.is_some(), "seed {seed}: feasibility");
            if let Some(want) = want {
                feasible += 1;
                assert_eq!(net.total_cost() as f64, want, "seed {seed}");
                let d = net.canonical_distances();
                for k in 0..net.num_pairs() {
                    let (u, v) = (pairs[k].0 as usize, pairs[k].1 as usize);
                    let rc = wide[k] + d[u] - d[v];
                    assert!(net.flow(k) == caps[k] || rc >= 0, "seed {seed}: pair {k} forward");
                    assert!(net.flow(k) == 0 || rc <= 0, "seed {seed}: pair {k} reverse");
                }
            }
            // Warm re-solve under drifted costs (same caps and supplies)
            // agrees with a cold solve of the drifted instance.
            let drifted: Vec<i128> =
                wide.iter().enumerate().map(|(k, &c)| if k % 3 == 0 { c + 3 } else { c }).collect();
            solve_checked(&mut net, &caps, &drifted, true);
            let mut cold = Circulation::with_supply(9, &pairs, &supply);
            cold.solve(&caps, &drifted, false);
            assert_eq!(net.is_feasible(), cold.is_feasible(), "seed {seed}: warm feasibility");
            if cold.is_feasible() {
                assert_eq!(net.total_cost(), cold.total_cost(), "seed {seed}: warm optimum");
                assert_eq!(net.canonical_distances(), cold.canonical_distances());
            }
        }
        assert!(feasible >= 6, "too few feasible draws ({feasible}) to exercise the solve");
    }

    #[test]
    fn zero_supplies_reproduce_the_circulation_solve() {
        let (pairs, caps, costs) = scaled_instance(10, 26, 0xABC);
        let mut plain = Circulation::new(10, &pairs);
        let mut supplied = Circulation::with_supply(10, &pairs, &[0; 10]);
        let a = plain.solve(&caps, &costs, false);
        let b = solve_checked(&mut supplied, &caps, &costs, false);
        assert_eq!(a, b, "all-zero supplies must pivot exactly like the plain engine");
        assert_eq!(plain.total_cost(), supplied.total_cost());
        assert!(supplied.is_feasible());
        assert_eq!(plain.canonical_distances(), supplied.canonical_distances());
    }

    #[test]
    #[should_panic(expected = "3·Σ|cost| + 1 overflows")]
    fn supply_form_refuses_costs_beyond_the_pivot_type() {
        let c = 1i64 << 61;
        let mut net = Circulation::with_supply(2, &[(0, 1), (0, 1)], &[1, -1]);
        net.solve(&[1, 1], &[c, c], false);
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
// Bipartite transportation (the stage-3 assignment).
// ---------------------------------------------------------------------------

/// The transportation instance admits no full assignment: some flip-flop
/// cannot reach the sink through the remaining ring capacity. Feasibility
/// is a property of the *problem* (a max-flow cut), not of the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportationInfeasible;

impl std::fmt::Display for TransportationInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transportation infeasible: ring capacities cannot absorb every flip-flop")
    }
}

impl std::error::Error for TransportationInfeasible {}

/// The optimum [`solve_transportation`] extracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportationSolution {
    /// Ring id per flip-flop (canonical: a function of the instance alone).
    pub assignment: Vec<u32>,
    /// Exact quantized cost of `assignment`, the optimal objective
    /// (`i128`: `f` arcs of up to ~2^57 each overflow `i64`).
    pub total_cost: i128,
    /// Network-simplex pivots of the solve, degenerate pivots and bound
    /// flips included.
    pub pivots: usize,
}

/// Exact min-cost bipartite transportation, the Fig.-3 stage-3
/// assignment: `f` unit-supply flip-flops, `r` capacitated rings, one sink
/// demanding `f`. `cands[i]` lists flip-flop `i`'s `(ring, quantized_cost)`
/// candidates in rank order (the order is the deterministic tiebreak);
/// `ring_caps[j]` is ring `j`'s capacity.
///
/// The instance is solved cold on the supply form of [`Circulation`]
/// (`i128` pivot arithmetic, see [`Circulation::with_supply`]). Node ids:
/// flip-flop `i` = `i`, ring `j` = `f + j`, sink = `f + r`. Pairs: the
/// candidate arcs `i → f + ring` grouped by flip-flop in rank order, then
/// one `ring → sink` pair per ring.
///
/// The assignment is recovered from [`Circulation::canonical_distances`],
/// a constant of the problem, never from the solver's flow: arcs with
/// negative canonical reduced cost are in *every* optimum and force their
/// flip-flop; the rest is settled by degree-one peeling over the tight
/// subgraph and, for the genuinely ambiguous residue, a deterministic
/// min-cost matching that prefers lower candidate rank. The answer is
/// therefore the same whichever optimal flow the pivots land on.
///
/// # Errors
///
/// [`TransportationInfeasible`] when the ring capacities and candidate
/// lists cannot absorb every flip-flop.
///
/// # Panics
///
/// Panics if a candidate names a ring `≥ r` or a capacity is negative.
pub fn solve_transportation(
    cands: &[Vec<(u32, i64)>],
    ring_caps: &[i64],
) -> Result<TransportationSolution, TransportationInfeasible> {
    let (f, r) = (cands.len(), ring_caps.len());
    let sink = (f + r) as u32;
    let m = cands.iter().map(Vec::len).sum::<usize>() + r;
    let mut pairs = Vec::with_capacity(m);
    let mut caps = Vec::with_capacity(m);
    let mut costs: Vec<i128> = Vec::with_capacity(m);
    for (i, list) in cands.iter().enumerate() {
        for &(ring, c) in list {
            assert!((ring as usize) < r, "candidate ring {ring} out of range");
            pairs.push((i as u32, f as u32 + ring));
            caps.push(1);
            costs.push(i128::from(c));
        }
    }
    for (j, &cap) in ring_caps.iter().enumerate() {
        pairs.push(((f + j) as u32, sink));
        caps.push(cap);
        costs.push(0);
    }
    let mut supply = vec![1i64; f + r + 1];
    supply[f..].fill(0);
    supply[f + r] = -(f as i64);
    // The engine is dropped before the extraction allocates, which keeps
    // the pass's peak heap footprint small.
    let (d, pivots) = {
        let mut net = Circulation::with_supply(f + r + 1, &pairs, &supply);
        let stats = net.solve(&caps, &costs, false);
        if !net.is_feasible() {
            return Err(TransportationInfeasible);
        }
        (net.canonical_distances(), stats.pivots)
    };
    let mut ex = Extraction { cands, ring_caps, d, assignment: vec![u32::MAX; f] };
    let total_cost = ex.extract();
    Ok(TransportationSolution { assignment: ex.assignment, total_cost, pivots })
}

/// A solved transportation instance and its canonical distances `d`, as
/// the assignment extraction reads them.
struct Extraction<'a> {
    cands: &'a [Vec<(u32, i64)>],
    ring_caps: &'a [i64],
    d: Vec<i128>,
    /// Ring per flip-flop; `u32::MAX` while unassigned.
    assignment: Vec<u32>,
}

impl Extraction<'_> {
    /// Canonical reduced cost `c + d_ff − d_ring` of candidate arc
    /// `(i, ring)` at quantized cost `c`.
    fn rc(&self, i: usize, ring: u32, c: i64) -> i128 {
        i128::from(c) + self.d[i] - self.d[self.cands.len() + ring as usize]
    }

    /// Canonical reduced cost `d_ring − d_sink` of ring `j`'s sink pair.
    fn rc_sink(&self, j: usize) -> i128 {
        let f = self.cands.len();
        self.d[f + j] - self.d[f + self.ring_caps.len()]
    }

    /// Recovers the canonical assignment and returns its quantized cost.
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
    fn extract(&mut self) -> i128 {
        let mut total: i128 = 0;
        let mut forced_cnt = vec![0i64; self.ring_caps.len()];
        let mut unforced: Vec<u32> = Vec::new();
        for (i, list) in self.cands.iter().enumerate() {
            for &(ring, c) in list {
                if self.rc(i, ring, c) < 0 {
                    assert_eq!(
                        self.assignment[i],
                        u32::MAX,
                        "two forced arcs on one flip-flop: duals inconsistent"
                    );
                    self.assignment[i] = ring;
                    forced_cnt[ring as usize] += 1;
                    total += i128::from(c);
                }
            }
            if self.assignment[i] == u32::MAX {
                unforced.push(i as u32);
            }
        }
        let residue = self.peel_ties(&mut forced_cnt, &unforced, &mut total);
        if !residue.is_empty() {
            total += self.complete_ties(&forced_cnt, &residue);
        }
        total
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
    /// Peeled moves are present in every optimum, so the peel depends on
    /// the problem alone and any processing order yields the same
    /// assignment.
    fn peel_ties(
        &mut self,
        forced_cnt: &mut [i64],
        unforced: &[u32],
        total: &mut i128,
    ) -> Vec<u32> {
        let (f, r) = (self.cands.len(), self.ring_caps.len());
        let mut avail: Vec<i64> = (0..r).map(|j| self.ring_caps[j] - forced_cnt[j]).collect();
        let mut live: Vec<bool> = (0..r).map(|j| self.rc_sink(j) <= 0 && avail[j] > 0).collect();
        let mut deg = vec![0u32; f];
        let mut ring_ffs: Vec<Vec<u32>> = vec![Vec::new(); r];
        for &i in unforced {
            for &(ring, c) in &self.cands[i as usize] {
                if self.rc(i as usize, ring, c) == 0 && live[ring as usize] {
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
            let (ring, c) = self.cands[i]
                .iter()
                .copied()
                .find(|&(ring, c)| live[ring as usize] && self.rc(i, ring, c) == 0)
                .expect("peeled flip-flop lost its last tight ring: duals inconsistent");
            self.assignment[i] = ring;
            *total += i128::from(c);
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
    /// rings that may still take flow. Feasible by construction — any
    /// optimal flow restricted to these flip-flops is a witness. Returns
    /// the quantized cost of the chosen arcs.
    fn complete_ties(&mut self, forced_cnt: &[i64], unforced: &[u32]) -> i128 {
        let r = self.ring_caps.len();
        // Rings that may carry tie flow: sink reduced cost ≤ 0 and spare
        // capacity beyond the forced load. (`rc_sink > 0` rings carry
        // nothing in any optimum; complementary slackness means they
        // also have no forced arcs.)
        let mut ring_node = vec![u32::MAX; r];
        let mut rings: Vec<u32> = Vec::new();
        for j in 0..r {
            let rc_sink = self.rc_sink(j);
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
        let max_rank = self.cands.iter().map(Vec::len).max().unwrap_or(0);
        let big = (self.cands.len() as f64) * (max_rank as f64) + 1.0;
        let mut tie_arcs: Vec<(u32, u32, i64, ArcId)> = Vec::new();
        for (mi, &i) in unforced.iter().enumerate() {
            let ff = net.node(2 + mi);
            net.add_arc(s, ff, 1, 0.0);
            for (rank, &(ring, c)) in self.cands[i as usize].iter().enumerate() {
                if self.rc(i as usize, ring, c) == 0 && ring_node[ring as usize] != u32::MAX {
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
            let avail = self.ring_caps[j] - forced_cnt[j];
            let cost = if self.rc_sink(j) < 0 { 0.0 } else { big };
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
                total += i128::from(c);
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
    fn check_valid(
        tp: &TransportationSolution,
        cands: &[Vec<(u32, i64)>],
        caps: &[i64],
        opt_cost: i64,
    ) {
        let mut loads = vec![0i64; caps.len()];
        let mut total = 0i128;
        for (i, &ring) in tp.assignment.iter().enumerate() {
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
        assert_eq!(total, tp.total_cost);
        assert_eq!(total, opt_cost as i128, "extracted assignment not optimal");
    }

    #[test]
    fn cold_matches_oracle() {
        for seed in 0..40u64 {
            let (cands, caps) = random_instance(24, 6, seed);
            match (solve_transportation(&cands, &caps), oracle(&cands, &caps)) {
                (Ok(tp), Some(cost)) => check_valid(&tp, &cands, &caps, cost),
                (Err(TransportationInfeasible), None) => {}
                (got, want) => panic!("seed {seed}: engine {got:?} vs oracle {want:?}"),
            }
        }
    }

    #[test]
    fn infeasible_instance_errs() {
        let cands: Vec<Vec<(u32, i64)>> =
            vec![vec![(0, 5), (1, 9)], vec![(0, 3)], vec![(1, 2), (0, 8)]];
        assert_eq!(solve_transportation(&cands, &[1, 0]), Err(TransportationInfeasible));
        let tp = solve_transportation(&cands, &[2, 2]).expect("feasible");
        assert_eq!(tp.assignment, [0, 0, 1]);
        assert_eq!(tp.total_cost, 10);
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
        let tp = solve_transportation(&cands, &caps).expect("feasible");
        check_valid(&tp, &cands, &caps, oracle(&cands, &caps).unwrap());
        // Rank preference: with ties everywhere each FF gets its rank-0
        // candidate when caps allow — here the rank-0 rings rotate, so
        // they do.
        for (i, &ring) in tp.assignment.iter().enumerate() {
            assert_eq!(ring, cands[i][0].0, "rank tiebreak must prefer rank 0");
        }
        assert_eq!(solve_transportation(&cands, &caps), Ok(tp));
        let mut drifted = cands.clone();
        drifted[5][0].1 = 6; // break one tie
        let tp = solve_transportation(&drifted, &caps).expect("feasible");
        check_valid(&tp, &drifted, &caps, oracle(&drifted, &caps).unwrap());
    }
}
