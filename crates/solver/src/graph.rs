//! Shared relaxation-kernel layer: shortest paths and negative cycles for
//! every solver in the crate.
//!
//! All label-relaxation machinery lives here, parameterized over the cost
//! semantics through the [`Cost`] trait — `f64` arc weights with an
//! epsilon tolerance (the difference-constraint / SPFA setting) and exact
//! `i64` reduced costs (the quantized min-cost-circulation setting) share
//! one implementation per strategy:
//!
//! * [`SpfaGraph`] — one-shot SPFA (queue-based Bellman–Ford) with
//!   amortized negative-cycle detection, for cold feasibility solves;
//! * [`WarmSpfa`] — warm-startable SPFA over a fixed topology with
//!   sequential, budgeted, seeded, and parallel-Jacobi strategies, generic
//!   over [`Cost`] (stage 2 runs it on `f64` bounds, the circulation's
//!   canonical-dual recovery on `i64` residual costs);
//! * [`Dijkstra`] — multi-source label settling over non-negative
//!   (reduced) costs on a binary heap, for any [`Cost`].
//!
//! Consumers ([`crate::difference`], [`crate::mcmf`], and — through those —
//! the skew schedulers in `rotary-core`) pick a strategy; none of them owns
//! a bespoke relaxation loop.
//!
//! The SPFA kernels support two source modes:
//!
//! * [`Source::Virtual`] — every node starts at distance 0, as if a
//!   virtual super-source had a zero-weight arc to each node. This is the
//!   difference-constraint / circulation setting.
//! * [`Source::Node`] — classic single-source shortest paths; unreachable
//!   nodes keep distance `+∞`.
//!
//! Negative-cycle detection is amortized: each node tracks the arc count
//! of its current tree path; when that reaches `n`, the path must revisit
//! a node, so walking the predecessor chain `n` steps lands inside a
//! negative cycle which is then extracted arc-by-arc. Consumers that
//! cancel cycles (min-cost circulation) map the returned arc ids back to
//! their own arcs via insertion order.
//!
//! Adjacency is stored as a [`CsrMatrix`] built once per [`SpfaGraph::run`]
//! from the arc list (entry slots map back to arc ids through the CSR
//! permutation), so the scan over a node's out-arcs is two contiguous
//! slices.

use crate::par::{par_map_with, ParConfig};
use crate::sparse::CsrMatrix;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cost semantics a relaxation kernel is generic over.
///
/// Two models ship: `f64` (tolerance-based comparisons, `+∞` marks both a
/// disabled arc and an unreached label) and `i64` (exact comparisons with
/// zero epsilon, `i64::MAX` as the sentinel). The relaxation rule is
/// `tail + weight + eps < head` in both; exact integer kernels pass
/// `eps = 0`, which degenerates to a strict comparison.
pub trait Cost: Copy + PartialOrd + std::fmt::Debug + Send + Sync + 'static {
    /// The additive identity (label of a source node).
    const ZERO: Self;
    /// Sentinel for "no label yet" / "arc disabled" (`+∞` / `i64::MAX`).
    const UNREACHED: Self;
    /// `self + rhs`; never called with [`Self::UNREACHED`] operands.
    fn add(self, rhs: Self) -> Self;
    /// `false` exactly for the sentinel (and, for floats, for any
    /// non-finite value): such a weight disables its arc, such a label
    /// means the node was never reached.
    fn finite(self) -> bool;
}

impl Cost for f64 {
    const ZERO: Self = 0.0;
    const UNREACHED: Self = f64::INFINITY;
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
}

impl Cost for i64 {
    const ZERO: Self = 0;
    const UNREACHED: Self = i64::MAX;
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn finite(self) -> bool {
        self != i64::MAX
    }
}

/// Where shortest paths start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Virtual super-source: all nodes start at distance 0.
    Virtual,
    /// Single source node; all other nodes start at `+∞`.
    Node(usize),
}

/// Shortest-path tree produced by a converged [`SpfaGraph::run`].
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Distance per node (`+∞` for nodes unreachable from the source).
    pub dist: Vec<f64>,
    /// Predecessor arc id per node (`None` for sources / unreached nodes).
    pub pred: Vec<Option<u32>>,
}

/// A negative cycle found during relaxation.
#[derive(Debug, Clone)]
pub struct NegativeCycle {
    /// Arc ids around the cycle, in forward (head-to-tail) order.
    pub arcs: Vec<usize>,
    /// Distance labels at the moment of detection — not shortest-path
    /// distances (those do not exist), but a consistent partial relaxation
    /// useful as approximate potentials.
    pub dist: Vec<f64>,
}

/// Outcome of a [`SpfaGraph::run`].
#[derive(Debug, Clone)]
pub enum SpfaResult {
    /// Relaxation converged; shortest paths exist.
    Shortest(ShortestPaths),
    /// A negative cycle was detected.
    NegativeCycle(NegativeCycle),
}

impl SpfaResult {
    /// The shortest paths, or `None` if a negative cycle was found.
    pub fn shortest(self) -> Option<ShortestPaths> {
        match self {
            SpfaResult::Shortest(sp) => Some(sp),
            SpfaResult::NegativeCycle(_) => None,
        }
    }

    /// The distance labels regardless of outcome (exact on convergence,
    /// the partial relaxation snapshot on a negative cycle).
    pub fn into_dist(self) -> Vec<f64> {
        match self {
            SpfaResult::Shortest(sp) => sp.dist,
            SpfaResult::NegativeCycle(nc) => nc.dist,
        }
    }
}

/// A directed graph with `f64` arc weights for SPFA shortest paths.
///
/// # Examples
///
/// ```
/// use rotary_solver::graph::{Source, SpfaGraph, SpfaResult};
///
/// let mut g = SpfaGraph::new(3);
/// g.add_arc(0, 1, 2.0);
/// g.add_arc(1, 2, -1.0);
/// g.add_arc(0, 2, 5.0);
/// let sp = g.run(Source::Node(0), 1e-12).shortest().expect("no cycle");
/// assert_eq!(sp.dist, vec![0.0, 2.0, 1.0]);
///
/// g.add_arc(2, 1, -1.0); // 1 → 2 → 1 sums to −2: negative cycle
/// assert!(matches!(g.run(Source::Node(0), 1e-12), SpfaResult::NegativeCycle(_)));
/// ```
#[derive(Debug, Clone)]
pub struct SpfaGraph {
    n: usize,
    arcs: Vec<(u32, u32, f64)>,
}

impl SpfaGraph {
    /// Creates a graph with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        Self { n, arcs: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Adds an arc `from → to` with the given weight; returns its id
    /// (sequential, by insertion order).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, from: usize, to: usize, weight: f64) -> usize {
        assert!(from < self.n && to < self.n, "arc ({from}, {to}) out of range");
        self.arcs.push((from as u32, to as u32, weight));
        self.arcs.len() - 1
    }

    /// The `(from, to, weight)` of arc `id`.
    pub fn arc(&self, id: usize) -> (usize, usize, f64) {
        let (f, t, w) = self.arcs[id];
        (f as usize, t as usize, w)
    }

    /// Runs SPFA from `source`. An arc relaxes only when it improves the
    /// head's distance by more than `eps` (the tolerance consumers used in
    /// their hand-rolled loops: `1e-12` for difference constraints, `1e-9`
    /// / `1e-7` for flow potentials and cycle canceling).
    pub fn run(&self, source: Source, eps: f64) -> SpfaResult {
        let n = self.n;
        let triplets: Vec<(usize, usize, f64)> =
            self.arcs.iter().map(|&(f, t, w)| (f as usize, t as usize, w)).collect();
        let (adj, entry_arc) = CsrMatrix::from_triplets_with_perm(n, n.max(1), &triplets);

        let mut dist = vec![f64::INFINITY; n];
        let mut pred: Vec<Option<u32>> = vec![None; n];
        // Arc count of the current tree path; ≥ n ⇒ the path revisits a
        // node ⇒ negative cycle.
        let mut path_len = vec![0u32; n];
        let mut in_queue = vec![false; n];
        let mut queue: VecDeque<u32> = VecDeque::with_capacity(n);
        match source {
            Source::Virtual => {
                dist.iter_mut().for_each(|d| *d = 0.0);
                in_queue.iter_mut().for_each(|q| *q = true);
                queue.extend((0..n).map(|v| v as u32));
            }
            Source::Node(s) => {
                assert!(s < n, "source {s} out of range");
                dist[s] = 0.0;
                in_queue[s] = true;
                queue.push_back(s as u32);
            }
        }

        while let Some(u) = queue.pop_front() {
            let u = u as usize;
            in_queue[u] = false;
            let du = dist[u];
            if du.is_infinite() {
                continue;
            }
            let range = adj.row_range(u);
            let (heads, weights) = adj.row(u);
            for (k, (&v, &w)) in heads.iter().zip(weights).enumerate() {
                let v = v as usize;
                let cand = du + w;
                if cand + eps < dist[v] {
                    dist[v] = cand;
                    pred[v] = Some(entry_arc[range.start + k]);
                    path_len[v] = path_len[u] + 1;
                    if path_len[v] >= n as u32 {
                        return SpfaResult::NegativeCycle(NegativeCycle {
                            arcs: self.extract_cycle(&pred, v),
                            dist,
                        });
                    }
                    if !in_queue[v] {
                        in_queue[v] = true;
                        queue.push_back(v as u32);
                    }
                }
            }
        }
        SpfaResult::Shortest(ShortestPaths { dist, pred })
    }

    /// Walks the predecessor chain from a node whose tree path reached
    /// length `n` and returns the arcs of the cycle it must contain.
    fn extract_cycle(&self, pred: &[Option<u32>], mut v: usize) -> Vec<usize> {
        // A tree path of length ≥ n revisits a node, so n backward steps
        // from its head stay inside the cycle.
        for _ in 0..self.n {
            let ai = pred[v].expect("length-n tree path has predecessors") as usize;
            v = self.arcs[ai].0 as usize;
        }
        let start = v;
        let mut arcs = Vec::new();
        loop {
            let ai = pred[v].expect("cycle arc") as usize;
            arcs.push(ai);
            v = self.arcs[ai].0 as usize;
            if v == start {
                break;
            }
        }
        arcs.reverse();
        arcs
    }
}

/// Caller verdict after a [`Dijkstra`] node is settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleControl {
    /// Keep settling nodes.
    Continue,
    /// The settled set suffices: relax this node's arcs (so every
    /// tentative label is at least the stopping distance — the invariant
    /// capped potential updates rely on), then stop.
    Stop,
}

/// Min-heap key: `(distance, node)` with ties broken toward the smaller
/// node id, so the settle order is deterministic for every [`Cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapKey<C: Cost>(C, u32);

impl<C: Cost> Eq for HeapKey<C> {}

impl<C: Cost> Ord for HeapKey<C> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl<C: Cost> PartialOrd for HeapKey<C> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Multi-source Dijkstra over non-negative (reduced) costs, with reusable
/// scratch. Arcs arrive per call as a closure from a node to an iterator
/// of `(arc_id, head, weight)` — so residual-capacity filtering and
/// reduced-cost computation stay with the caller and the hot loop
/// monomorphizes over the provider.
///
/// [`Self::run`] settles nodes in `(dist, node)` order and calls `settle`
/// once per finalized node; [`SettleControl::Stop`] ends the pass after
/// that node's arcs relax.
#[derive(Debug, Clone)]
pub struct Dijkstra<C: Cost> {
    dist: Vec<C>,
    pred: Vec<u32>,
    heap: BinaryHeap<Reverse<HeapKey<C>>>,
}

impl<C: Cost> Dijkstra<C> {
    /// Scratch for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        Self { dist: vec![C::UNREACHED; n], pred: vec![NO_PRED; n], heap: BinaryHeap::new() }
    }

    /// Labels of the last pass ([`Cost::UNREACHED`] where no path was
    /// found before the pass ended).
    pub fn dist(&self) -> &[C] {
        &self.dist
    }

    /// Predecessor arc ids of the last pass ([`NO_PRED`] for sources and
    /// unreached nodes). Exact shortest-path trees for settled nodes.
    pub fn pred(&self) -> &[u32] {
        &self.pred
    }

    fn reset(&mut self) {
        self.dist.iter_mut().for_each(|d| *d = C::UNREACHED);
        self.pred.iter_mut().for_each(|p| *p = NO_PRED);
        self.heap.clear();
    }

    /// One multi-source pass. `sources` start at [`Cost::ZERO`];
    /// `arcs(u)` yields `(arc_id, head, weight)` with `weight ≥ 0` (up to
    /// `eps`); `settle(u, dist_u)` fires once per finalized node.
    pub fn run<A, I, F>(
        &mut self,
        sources: impl IntoIterator<Item = usize>,
        eps: C,
        arcs: A,
        mut settle: F,
    ) where
        A: Fn(usize) -> I,
        I: Iterator<Item = (u32, u32, C)>,
        F: FnMut(usize, C) -> SettleControl,
    {
        self.reset();
        for s in sources {
            self.dist[s] = C::ZERO;
            self.heap.push(Reverse(HeapKey(C::ZERO, s as u32)));
        }
        while let Some(Reverse(HeapKey(d, u))) = self.heap.pop() {
            let u = u as usize;
            if self.dist[u].add(eps) < d {
                continue; // stale entry
            }
            let verdict = settle(u, d);
            for (aid, v, w) in arcs(u) {
                let v = v as usize;
                let nd = d.add(w);
                if nd.add(eps) < self.dist[v] {
                    self.dist[v] = nd;
                    self.pred[v] = aid;
                    self.heap.push(Reverse(HeapKey(nd, v as u32)));
                }
            }
            if verdict == SettleControl::Stop {
                return;
            }
        }
    }
}

/// Outcome of one [`WarmSpfa::relax`] round.
#[derive(Debug, Clone)]
pub enum RelaxOutcome {
    /// All arcs satisfy `dist[head] ≤ dist[tail] + w + eps`: the labels are
    /// a feasibility certificate for the current weights.
    Converged,
    /// A negative cycle was detected; arc ids in forward order.
    NegativeCycle(Vec<usize>),
}

/// Warm-startable SPFA over a **fixed topology** with per-round weights.
///
/// Where [`SpfaGraph::run`] rebuilds its CSR adjacency and relaxes every
/// node from a cold virtual source on each call, `WarmSpfa` builds the CSR
/// structure once from the arc list and exposes relaxation as an
/// incremental operation on persistent distance labels:
///
/// * weights are supplied per round as a closure over the arc id (so a
///   parametric tightening `b − m·t`, or a capacity-filtered residual
///   network, needs no graph rebuild — return `f64::INFINITY` to disable
///   an arc for the round);
/// * [`Self::relax`] seeds its queue with only the tails of arcs the
///   current labels violate, so a re-check after a small parameter change
///   touches a wavefront, not the whole graph;
/// * labels persist across rounds (and can be saved/restored through
///   [`Self::dist`] / [`Self::load_dist`]), which is what makes carrying
///   potentials across probes, correction paths, and flow iterations cheap.
///
/// Starting relaxation from *any* finite labels is sound: on convergence
/// the labels certify that no arc is violated (hence every cycle has
/// non-negative weight up to `n·eps`), and a sufficiently negative cycle
/// always keeps some arc violated, so it cannot converge past one.
/// Predecessors and tree-path lengths are reset every round, so an
/// extracted cycle only contains arcs relaxed *this* round.
///
/// Beyond the full-scan [`Self::relax`], two entry points serve the
/// incremental parametric engine:
///
/// * [`Self::relax_seeded`] skips the Θ(arcs) violation scan and seeds the
///   queue from an explicit arc set — sound whenever the caller knows the
///   labels were a fixpoint and only those arcs changed weight
///   (Ramalingam–Reps-style affected-region propagation);
/// * [`Self::relax_parallel`] is a deterministic round-synchronous Jacobi
///   relaxation (each round gathers over every node's *in*-arcs via
///   [`par_map_with`]) for genuinely cold solves on large graphs.
#[derive(Debug, Clone)]
pub struct WarmSpfa<C: Cost = f64> {
    n: usize,
    tails: Vec<u32>,
    heads: Vec<u32>,
    adj: CsrMatrix,
    entry_arc: Vec<u32>,
    /// Transposed adjacency (rows = heads) for the Jacobi gather; built
    /// lazily on the first [`Self::relax_parallel`] call.
    in_adj: Option<Box<(CsrMatrix, Vec<u32>)>>,
    dist: Vec<C>,
    pred: Vec<u32>,
    path_len: Vec<u32>,
    in_queue: Vec<bool>,
    /// Round stamp per node: `stamp[v] == round` ⇔ `dist[v]` changed in the
    /// current relaxation call (feeds the `affected_vertices` telemetry).
    stamp: Vec<u32>,
    round: u32,
    last_affected: usize,
}

/// Sentinel predecessor-arc id for "no predecessor" (sources, unreached
/// nodes) in every kernel's tree output.
pub const NO_PRED: u32 = u32::MAX;

impl<C: Cost> WarmSpfa<C> {
    /// Builds the engine over `n` nodes and the given `(tail, head)` arcs.
    /// Arc ids are positions in `arcs`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, arcs: &[(usize, usize)]) -> Self {
        let triplets: Vec<(usize, usize, f64)> = arcs
            .iter()
            .map(|&(f, t)| {
                assert!(f < n && t < n, "arc ({f}, {t}) out of range");
                (f, t, 0.0)
            })
            .collect();
        let (adj, entry_arc) = CsrMatrix::from_triplets_with_perm(n, n.max(1), &triplets);
        Self {
            n,
            tails: arcs.iter().map(|&(f, _)| f as u32).collect(),
            heads: arcs.iter().map(|&(_, t)| t as u32).collect(),
            adj,
            entry_arc,
            in_adj: None,
            dist: vec![C::ZERO; n],
            pred: vec![NO_PRED; n],
            path_len: vec![0; n],
            in_queue: vec![false; n],
            stamp: vec![u32::MAX; n],
            round: 0,
            last_affected: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.tails.len()
    }

    /// The `(tail, head)` of arc `id`.
    pub fn arc_endpoints(&self, id: usize) -> (usize, usize) {
        (self.tails[id] as usize, self.heads[id] as usize)
    }

    /// The current distance labels.
    pub fn dist(&self) -> &[C] {
        &self.dist
    }

    /// Overwrites the labels (e.g. restoring a snapshot after a failed
    /// probe, or seeding potentials carried from an earlier system).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != n`.
    pub fn load_dist(&mut self, labels: &[C]) {
        assert_eq!(labels.len(), self.n, "label vector length mismatch");
        self.dist.copy_from_slice(labels);
    }

    /// Resets every label to 0 — the cold virtual-source start whose
    /// converged labels are the canonical (componentwise-maximal ≤ 0)
    /// difference-constraint solution.
    pub fn reset_zero(&mut self) {
        self.dist.iter_mut().for_each(|d| *d = C::ZERO);
    }

    /// How many distinct nodes changed their label during the most recent
    /// relaxation call (any entry point) — the size of the affected region.
    pub fn last_affected(&self) -> usize {
        self.last_affected
    }

    /// Resets per-round scratch (predecessors, path lengths, queue flags)
    /// and advances the affected-node stamp generation.
    fn begin_round(&mut self) {
        self.pred.iter_mut().for_each(|p| *p = NO_PRED);
        self.path_len.iter_mut().for_each(|l| *l = 0);
        self.in_queue.iter_mut().for_each(|q| *q = false);
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // One reset every 2^32 rounds keeps stale stamps impossible.
            self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.round = 1;
        }
        self.last_affected = 0;
    }

    fn touch(&mut self, v: usize) {
        if self.stamp[v] != self.round {
            self.stamp[v] = self.round;
            self.last_affected += 1;
        }
    }

    /// Runs one relaxation round under `weight` (indexed by arc id;
    /// [`Cost::UNREACHED`] disables an arc). Only arcs violated by the
    /// current labels seed the queue. On [`RelaxOutcome::NegativeCycle`]
    /// the labels hold a partial relaxation snapshot — callers that need
    /// the pre-round labels back must save them first.
    pub fn relax(&mut self, weight: impl Fn(usize) -> C, eps: C) -> RelaxOutcome {
        self.relax_budgeted(weight, eps, usize::MAX).expect("unlimited budget cannot run out")
    }

    /// [`Self::relax`] with a cap on queue pops. Returns `None` when the
    /// cap is hit before the round converges or finds a cycle.
    ///
    /// Near-fixpoint labels are the warm start's worst case: every arc of
    /// a *marginally* violated cycle improves its head by a sliver per
    /// lap, so the `path_len ≥ n` certificate only fires after up to `n`
    /// laps — Θ(n·arcs) work for a verdict a zero-label start reaches in
    /// one sweep. A budget lets callers bail out of that creep and restart
    /// cold, bounding any probe at budget + one cold round. On `None` the
    /// labels hold a partial snapshot, exactly as on a cycle.
    pub fn relax_budgeted(
        &mut self,
        weight: impl Fn(usize) -> C,
        eps: C,
        max_pops: usize,
    ) -> Option<RelaxOutcome> {
        self.relax_inner(weight, eps, max_pops, None)
    }

    /// [`Self::relax_budgeted`] seeded from an explicit arc set instead of
    /// the Θ(arcs) violation scan: only `seed_arcs` are checked for
    /// violation to build the initial queue.
    ///
    /// Sound **only** when every arc the current labels violate is listed
    /// in `seed_arcs` — the contract the parametric engine upholds by
    /// seeding with exactly the arcs whose weights changed since the labels
    /// last converged (a fixpoint violates no arc, and an unchanged weight
    /// cannot create a violation on its own; knock-on violations from
    /// labels dropping during propagation are found by the queue as usual).
    pub fn relax_seeded(
        &mut self,
        weight: impl Fn(usize) -> C,
        eps: C,
        max_pops: usize,
        seed_arcs: &[u32],
    ) -> Option<RelaxOutcome> {
        self.relax_inner(weight, eps, max_pops, Some(seed_arcs))
    }

    fn relax_inner(
        &mut self,
        weight: impl Fn(usize) -> C,
        eps: C,
        max_pops: usize,
        seed_arcs: Option<&[u32]>,
    ) -> Option<RelaxOutcome> {
        let n = self.n;
        self.begin_round();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let seed = |this: &mut Self, queue: &mut VecDeque<u32>, id: usize| {
            let w = weight(id);
            if !w.finite() {
                return;
            }
            let (f, t) = (this.tails[id] as usize, this.heads[id] as usize);
            if this.dist[f].add(w).add(eps) < this.dist[t] && !this.in_queue[f] {
                this.in_queue[f] = true;
                queue.push_back(f as u32);
            }
        };
        match seed_arcs {
            None => {
                for id in 0..self.tails.len() {
                    seed(self, &mut queue, id);
                }
            }
            Some(ids) => {
                for &id in ids {
                    seed(self, &mut queue, id as usize);
                }
            }
        }

        let mut pops = 0usize;
        while let Some(u) = queue.pop_front() {
            if pops >= max_pops {
                return None;
            }
            pops += 1;
            let u = u as usize;
            self.in_queue[u] = false;
            let du = self.dist[u];
            if !du.finite() {
                continue;
            }
            let range = self.adj.row_range(u);
            let (heads, _) = self.adj.row(u);
            for (k, &v) in heads.iter().enumerate() {
                let id = self.entry_arc[range.start + k] as usize;
                let w = weight(id);
                if !w.finite() {
                    continue;
                }
                let v = v as usize;
                let cand = du.add(w);
                if cand.add(eps) < self.dist[v] {
                    self.dist[v] = cand;
                    if self.stamp[v] != self.round {
                        self.stamp[v] = self.round;
                        self.last_affected += 1;
                    }
                    self.pred[v] = id as u32;
                    self.path_len[v] = self.path_len[u] + 1;
                    if self.path_len[v] >= n as u32 {
                        return Some(RelaxOutcome::NegativeCycle(self.extract_cycle(v)));
                    }
                    if !self.in_queue[v] {
                        self.in_queue[v] = true;
                        queue.push_back(v as u32);
                    }
                }
            }
        }
        Some(RelaxOutcome::Converged)
    }

    /// Deterministic parallel relaxation for genuinely cold solves on
    /// large graphs: round-synchronous Jacobi Bellman–Ford. Each round
    /// computes, for every node in parallel, the best improvement over its
    /// *in*-arcs against the previous round's labels (first strict minimum
    /// in transposed-CSR entry order — a fixed tie-break, so the committed
    /// labels are identical however many threads run), then commits all
    /// updates sequentially.
    ///
    /// Negative cycles are reported through the predecessor graph: pred
    /// arcs always satisfy `dist[head] = dist_at_set[tail] + w` with labels
    /// only decreasing afterwards, so summing around any predecessor cycle
    /// gives total weight ≤ `0` strictly below the per-relaxation `eps`
    /// improvement — the classic lemma that the predecessor graph stays
    /// acyclic unless a genuinely negative cycle exists. Each round runs an
    /// O(n) walk-coloring pass over the pred graph; if no fixpoint is
    /// reached within `n` rounds the call falls back to the sequential
    /// queue relaxation from the current labels, which owns the verdict.
    pub fn relax_parallel(&mut self, weight: impl Fn(usize) -> C + Sync, eps: C) -> RelaxOutcome {
        let n = self.n;
        self.begin_round();
        if self.in_adj.is_none() {
            let triplets: Vec<(usize, usize, f64)> = self
                .tails
                .iter()
                .zip(&self.heads)
                .map(|(&f, &t)| (t as usize, f as usize, 0.0))
                .collect();
            let (m, perm) = CsrMatrix::from_triplets_with_perm(n, n.max(1), &triplets);
            self.in_adj = Some(Box::new((m, perm)));
        }
        let cfg = ParConfig::default();
        for _ in 0..n.max(1) {
            let (in_adj, in_entry) = {
                let b = self.in_adj.as_ref().expect("built above");
                (&b.0, &b.1[..])
            };
            let dist = &self.dist;
            let updates: Vec<(C, u32)> = par_map_with(&cfg, n, |v| {
                let mut best = dist[v];
                let mut best_arc = NO_PRED;
                let range = in_adj.row_range(v);
                let (tails, _) = in_adj.row(v);
                for (k, &u) in tails.iter().enumerate() {
                    let id = in_entry[range.start + k] as usize;
                    let w = weight(id);
                    if !w.finite() {
                        continue;
                    }
                    let cand = dist[u as usize].add(w);
                    if cand.add(eps) < best {
                        best = cand;
                        best_arc = id as u32;
                    }
                }
                (best, best_arc)
            });
            let mut changed = false;
            for (v, &(d, a)) in updates.iter().enumerate() {
                if a != NO_PRED {
                    self.dist[v] = d;
                    self.touch(v);
                    self.pred[v] = a;
                    changed = true;
                }
            }
            if !changed {
                return RelaxOutcome::Converged;
            }
            if let Some(on_cycle) = self.find_pred_cycle_node() {
                return RelaxOutcome::NegativeCycle(self.extract_pred_cycle(on_cycle));
            }
        }
        // No fixpoint within n rounds (possible only under eps-marginal
        // creep): let the sequential engine finish from the current labels
        // so the verdict always comes from the queue relaxation.
        let affected = self.last_affected;
        let outcome =
            self.relax_budgeted(weight, eps, usize::MAX).expect("unlimited budget cannot run out");
        self.last_affected += affected;
        outcome
    }

    /// Finds a node lying on a cycle of the predecessor graph, if one
    /// exists, via walk coloring (0 = unvisited, 1 = on the current walk,
    /// 2 = cleared): following `pred` tails from an unvisited node either
    /// terminates, merges into a cleared walk, or re-enters the current
    /// walk — the latter is a cycle.
    fn find_pred_cycle_node(&self) -> Option<usize> {
        let mut state = vec![0u8; self.n];
        let mut path: Vec<usize> = Vec::new();
        for s in 0..self.n {
            if state[s] != 0 {
                continue;
            }
            path.clear();
            let mut v = s;
            let found = loop {
                match state[v] {
                    1 => break Some(v),
                    2 => break None,
                    _ => {}
                }
                state[v] = 1;
                path.push(v);
                match self.pred[v] {
                    NO_PRED => break None,
                    p => v = self.tails[p as usize] as usize,
                }
            };
            if found.is_some() {
                return found;
            }
            for &u in &path {
                state[u] = 2;
            }
        }
        None
    }

    /// Collects the predecessor-cycle arcs starting from a node known to
    /// lie on one, in forward order.
    fn extract_pred_cycle(&self, start: usize) -> Vec<usize> {
        let mut arcs = Vec::new();
        let mut v = start;
        loop {
            let ai = self.pred[v] as usize;
            arcs.push(ai);
            v = self.tails[ai] as usize;
            if v == start {
                break;
            }
        }
        arcs.reverse();
        arcs
    }

    /// Walks the predecessor chain from a node whose tree path reached
    /// length `n` and returns the arcs of the cycle it must contain (same
    /// argument as [`SpfaGraph::extract_cycle`]; predecessors are reset per
    /// round, so the chain only contains arcs relaxed this round).
    fn extract_cycle(&self, mut v: usize) -> Vec<usize> {
        for _ in 0..self.n {
            let ai = self.pred[v];
            assert_ne!(ai, NO_PRED, "length-n tree path has predecessors");
            v = self.tails[ai as usize] as usize;
        }
        self.extract_pred_cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_distances() {
        let mut g = SpfaGraph::new(4);
        g.add_arc(0, 1, 1.0);
        g.add_arc(1, 2, 2.0);
        g.add_arc(0, 2, 5.0);
        let sp = g.run(Source::Node(0), 1e-12).shortest().expect("no cycle");
        assert_eq!(sp.dist, vec![0.0, 1.0, 3.0, f64::INFINITY]);
        assert_eq!(sp.pred[2], Some(1));
    }

    #[test]
    fn virtual_source_handles_negative_arcs() {
        let mut g = SpfaGraph::new(3);
        g.add_arc(0, 1, -2.0);
        g.add_arc(1, 2, -3.0);
        let sp = g.run(Source::Virtual, 1e-12).shortest().expect("no cycle");
        assert_eq!(sp.dist, vec![0.0, -2.0, -5.0]);
    }

    #[test]
    fn negative_cycle_arcs_are_exact() {
        let mut g = SpfaGraph::new(4);
        g.add_arc(3, 0, 1.0);
        let a = g.add_arc(0, 1, 1.0);
        let b = g.add_arc(1, 2, -3.0);
        let c = g.add_arc(2, 0, 1.0);
        let SpfaResult::NegativeCycle(nc) = g.run(Source::Node(3), 1e-12) else {
            panic!("cycle 0→1→2→0 has weight −1");
        };
        let mut arcs = nc.arcs.clone();
        arcs.sort_unstable();
        assert_eq!(arcs, vec![a, b, c]);
        let total: f64 = nc.arcs.iter().map(|&id| g.arc(id).2).sum();
        assert!(total < 0.0, "cycle weight {total}");
    }

    #[test]
    fn cycle_not_reachable_from_source_is_ignored() {
        let mut g = SpfaGraph::new(4);
        g.add_arc(0, 1, 1.0);
        // Negative cycle on 2 ↔ 3, unreachable from node 0.
        g.add_arc(2, 3, -1.0);
        g.add_arc(3, 2, -1.0);
        let sp = g.run(Source::Node(0), 1e-12).shortest().expect("unreachable cycle");
        assert_eq!(sp.dist[1], 1.0);
        assert!(sp.dist[2].is_infinite());
    }

    #[test]
    fn virtual_source_sees_every_cycle() {
        let mut g = SpfaGraph::new(4);
        g.add_arc(0, 1, 1.0);
        g.add_arc(2, 3, -1.0);
        g.add_arc(3, 2, -1.0);
        assert!(matches!(g.run(Source::Virtual, 1e-12), SpfaResult::NegativeCycle(_)));
    }

    #[test]
    fn zero_cycle_converges() {
        let mut g = SpfaGraph::new(2);
        g.add_arc(0, 1, 1.0);
        g.add_arc(1, 0, -1.0);
        let sp = g.run(Source::Virtual, 1e-12).shortest().expect("zero cycle is fine");
        assert!((sp.dist[0] - sp.dist[1] + 1.0).abs() < 1e-9 || sp.dist == vec![0.0, 0.0]);
    }

    #[test]
    fn eps_suppresses_sub_tolerance_cycles() {
        let mut g = SpfaGraph::new(2);
        g.add_arc(0, 1, 1e-9);
        g.add_arc(1, 0, -2e-9);
        // Total weight −1e−9, below the 1e−7 canceling tolerance: converges.
        assert!(g.run(Source::Virtual, 1e-7).shortest().is_some());
    }

    #[test]
    fn empty_graph() {
        let g = SpfaGraph::new(0);
        assert!(g.run(Source::Virtual, 1e-12).shortest().is_some());
    }

    #[test]
    fn warm_relax_from_zero_matches_cold_spfa() {
        let arcs = [(0usize, 1usize), (1, 2), (0, 2), (2, 3)];
        let weights = [2.0, -1.0, 5.0, 0.5];
        let mut g = SpfaGraph::new(4);
        for (&(f, t), &w) in arcs.iter().zip(&weights) {
            g.add_arc(f, t, w);
        }
        let cold = g.run(Source::Virtual, 1e-12).shortest().expect("no cycle").dist;

        let mut warm = WarmSpfa::new(4, &arcs);
        warm.reset_zero();
        assert!(matches!(warm.relax(|id| weights[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.dist(), &cold[..]);
    }

    #[test]
    fn warm_restart_after_tightening_touches_only_the_wavefront() {
        // Chain 0 → 1 → 2 with a side window; tightening the first bound
        // re-seeds only its tail.
        let arcs = [(0usize, 1usize), (1, 2), (0, 2)];
        let mut warm = WarmSpfa::new(3, &arcs);
        warm.reset_zero();
        let base = [-1.0, -1.0, 0.0];
        assert!(matches!(warm.relax(|id| base[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.dist(), &[0.0, -1.0, -2.0]);
        // Tighten every bound by 0.5 and re-relax from the previous labels:
        // the fixed point must equal the cold solve of the tightened system.
        let tight = [-1.5, -1.5, -0.5];
        assert!(matches!(warm.relax(|id| tight[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.dist(), &[0.0, -1.5, -3.0]);
    }

    #[test]
    fn warm_detects_negative_cycle_with_exact_arcs() {
        let arcs = [(0usize, 1usize), (1, 2), (2, 0), (3, 0)];
        let weights = [1.0, -3.0, 1.0, 1.0];
        let mut warm = WarmSpfa::new(4, &arcs);
        warm.reset_zero();
        let RelaxOutcome::NegativeCycle(cycle) = warm.relax(|id| weights[id], 1e-12) else {
            panic!("cycle 0→1→2→0 has weight −1");
        };
        let mut ids = cycle.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let total: f64 = cycle.iter().map(|&id| weights[id]).sum();
        assert!(total < 0.0);
    }

    #[test]
    fn infinite_weight_disables_an_arc() {
        // The only negative cycle runs through a disabled arc.
        let arcs = [(0usize, 1usize), (1, 0)];
        let mut warm = WarmSpfa::new(2, &arcs);
        warm.reset_zero();
        let w = [-2.0, f64::INFINITY];
        assert!(matches!(warm.relax(|id| w[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.dist(), &[0.0, -2.0]);
        // Re-enable it: now 0→1→0 sums to −1.
        let w2 = [-2.0, 1.0];
        assert!(matches!(warm.relax(|id| w2[id], 1e-12), RelaxOutcome::NegativeCycle(_)));
    }

    #[test]
    fn load_dist_restores_a_snapshot() {
        let arcs = [(0usize, 1usize)];
        let mut warm = WarmSpfa::new(2, &arcs);
        warm.reset_zero();
        assert!(matches!(warm.relax(|_| -1.0, 1e-12), RelaxOutcome::Converged));
        let snapshot = warm.dist().to_vec();
        assert!(matches!(warm.relax(|_| -5.0, 1e-12), RelaxOutcome::Converged));
        assert_ne!(warm.dist(), &snapshot[..]);
        warm.load_dist(&snapshot);
        assert_eq!(warm.dist(), &snapshot[..]);
    }

    #[test]
    fn warm_empty_graph() {
        let mut warm = WarmSpfa::new(0, &[]);
        warm.reset_zero();
        assert!(matches!(warm.relax(|_| 0.0, 1e-12), RelaxOutcome::Converged));
    }

    #[test]
    fn seeded_relax_from_fixpoint_matches_full_scan() {
        // Converge a chain, tighten ONE arc, and re-relax seeding only that
        // arc: the fixpoint must match a full-scan relax of the same weights.
        let arcs = [(0usize, 1usize), (1, 2), (2, 3), (0, 3)];
        let base = [-1.0, -1.0, -1.0, 0.0];
        let mut seeded = WarmSpfa::new(4, &arcs);
        seeded.reset_zero();
        assert!(matches!(seeded.relax(|id| base[id], 1e-12), RelaxOutcome::Converged));
        let mut full = seeded.clone();

        let tight = [-2.5, -1.0, -1.0, 0.0];
        assert!(matches!(
            seeded.relax_seeded(|id| tight[id], 1e-12, usize::MAX, &[0]),
            Some(RelaxOutcome::Converged)
        ));
        assert!(matches!(full.relax(|id| tight[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(seeded.dist(), full.dist());
        assert_eq!(seeded.dist(), &[0.0, -2.5, -3.5, -4.5]);
        // The whole downstream region moved: 1, 2 and 3.
        assert_eq!(seeded.last_affected(), 3);
    }

    #[test]
    fn seeded_relax_finds_cycle_through_changed_arc() {
        let arcs = [(0usize, 1usize), (1, 0)];
        let mut warm = WarmSpfa::new(2, &arcs);
        warm.reset_zero();
        let base = [1.0, -0.5];
        assert!(matches!(warm.relax(|id| base[id], 1e-12), RelaxOutcome::Converged));
        // Tighten arc 1 so the 2-cycle sums to −1; seed only arc 1.
        let tight = [1.0, -2.0];
        assert!(matches!(
            warm.relax_seeded(|id| tight[id], 1e-12, usize::MAX, &[1]),
            Some(RelaxOutcome::NegativeCycle(_))
        ));
    }

    #[test]
    fn affected_count_resets_per_call() {
        let arcs = [(0usize, 1usize)];
        let mut warm = WarmSpfa::new(2, &arcs);
        warm.reset_zero();
        assert!(matches!(warm.relax(|_| -1.0, 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.last_affected(), 1);
        // Already a fixpoint: nothing moves this time.
        assert!(matches!(warm.relax(|_| -1.0, 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.last_affected(), 0);
    }

    #[test]
    fn parallel_relax_matches_sequential_fixpoint() {
        // Random-ish layered DAG with negative weights: the Jacobi kernel
        // must reach the same canonical fixpoint as the queue relaxation
        // from the same zero start.
        let n = 50;
        let mut arcs = Vec::new();
        let mut weights = Vec::new();
        for v in 1..n {
            for step in [1usize, 7, 13] {
                if v >= step {
                    arcs.push((v - step, v));
                    weights.push(-((v % 5) as f64) + (step as f64) * 0.25 - 1.0);
                }
            }
        }
        let mut seq = WarmSpfa::new(n, &arcs);
        seq.reset_zero();
        assert!(matches!(seq.relax(|id| weights[id], 1e-12), RelaxOutcome::Converged));
        let mut par = WarmSpfa::new(n, &arcs);
        par.reset_zero();
        assert!(matches!(par.relax_parallel(|id| weights[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(seq.dist(), par.dist());
        assert_eq!(seq.last_affected(), par.last_affected());
    }

    #[test]
    fn parallel_relax_detects_negative_cycle() {
        let arcs = [(0usize, 1usize), (1, 2), (2, 0), (3, 0)];
        let weights = [1.0, -3.0, 1.0, 1.0];
        let mut warm = WarmSpfa::new(4, &arcs);
        warm.reset_zero();
        let RelaxOutcome::NegativeCycle(cycle) = warm.relax_parallel(|id| weights[id], 1e-12)
        else {
            panic!("cycle 0→1→2→0 has weight −1");
        };
        let mut ids = cycle.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let total: f64 = cycle.iter().map(|&id| weights[id]).sum();
        assert!(total < 0.0);
    }

    #[test]
    fn parallel_relax_zero_cycle_converges() {
        // A zero-weight cycle must NOT be reported as negative: the pred
        // graph stays acyclic because no arc strictly improves around it.
        let arcs = [(0usize, 1usize), (1, 0), (2, 0)];
        let weights = [1.0, -1.0, -4.0];
        let mut warm = WarmSpfa::new(3, &arcs);
        warm.reset_zero();
        assert!(matches!(warm.relax_parallel(|id| weights[id], 1e-12), RelaxOutcome::Converged));
        let mut seq = WarmSpfa::new(3, &arcs);
        seq.reset_zero();
        assert!(matches!(seq.relax(|id| weights[id], 1e-12), RelaxOutcome::Converged));
        assert_eq!(warm.dist(), seq.dist());
    }

    #[test]
    fn parallel_relax_empty_graph() {
        let mut warm = WarmSpfa::new(0, &[]);
        assert!(matches!(warm.relax_parallel(|_| 0.0, 1e-12), RelaxOutcome::Converged));
    }
}
