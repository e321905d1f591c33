//! Beam search — Algorithm 1 of the paper — as one traversal step shared
//! by every query and construction search.
//!
//! Every state-of-the-art graph method answers queries with the *same*
//! best-first beam search; they differ only in the graph they traverse and
//! the seeds they start from. This module is therefore the single search
//! implementation shared by all methods in `gass-graphs`, which is exactly
//! the normalization the paper performs across its twelve baselines.
//!
//! A search is one step × a scorer × a visit hook × a driver:
//!
//! - **Step** (`Lane::expand` + `Lane::settle`): pop the closest
//!   unexpanded candidate, ask the [`Termination`] policy whether to stop,
//!   visited-filter and prefetch its neighbor list, score the survivors
//!   four at a time through the batched kernel (scalar tail), insert them
//!   into the candidate buffer, and update the policy's state.
//! - **Scorer**: exact `f32` distances on the [`Space`], or code-space
//!   distances from a query prepared for the attached
//!   [`CodecStore`](crate::quant::CodecStore). A code-space search widens
//!   the buffer to the rerank pool and ends with one exact rerank.
//! - **Visit hook** ([`Visit`]): none (`()`), the construction sink that
//!   records every evaluation (NSG, Vamana), or a gate that drops
//!   neighbors before they are scored (LSHAPG's sketch routing).
//! - **Driver**: a sequential search drives one lane to the end;
//!   [`beam_search_coalesced`] drives up to [`COALESCE_LANES`] lanes in
//!   lockstep through the same step.
//!
//! Scorer and hook are type parameters, so every combination is
//! statically dispatched and the no-op hook compiles away.

use crate::distance::Space;
use crate::graph::GraphView;
use crate::neighbor::{Neighbor, SortedBuffer};
use crate::quant::PreparedQuery;
use crate::term::{TermState, Termination};
use crate::visited::VisitedSet;

/// Counters describing one beam-search invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded (popped from the candidate buffer).
    pub hops: usize,
    /// Nodes whose distance to the query was evaluated.
    pub evaluated: usize,
}

/// Result of a beam search: the `k` best neighbors found plus traversal
/// counters.
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// Up to `k` nearest candidates found, closest first.
    pub neighbors: Vec<Neighbor>,
    /// Traversal counters.
    pub stats: SearchStats,
}

/// Reusable per-thread scratch (visited set + candidate buffer). Allocate
/// once, reuse across queries; `prepare` handles growth and epoch reset.
#[derive(Clone, Debug)]
pub struct SearchScratch {
    /// Epoch-versioned visited set.
    pub visited: VisitedSet,
    /// Sorted linear candidate buffer.
    pub buffer: SortedBuffer,
    /// Query mapped into quantized code space (reused across queries so
    /// the quantized path allocates nothing per search after warmup).
    pub prepared: PreparedQuery,
    /// First-visit neighbors of the current expansion awaiting scoring.
    pending: Vec<u32>,
}

impl SearchScratch {
    /// Scratch sized for a graph of `n` nodes and beam width `l`.
    pub fn new(n: usize, l: usize) -> Self {
        Self {
            visited: VisitedSet::new(n),
            buffer: SortedBuffer::new(l.max(1)),
            prepared: PreparedQuery::default(),
            pending: Vec::new(),
        }
    }

    /// Readies the scratch for a search over `n` nodes with beam width `l`.
    pub fn prepare(&mut self, n: usize, l: usize) {
        self.visited.resize(n);
        self.visited.clear();
        self.buffer.reset(l.max(1));
        // Empty after every finished search, but not after one that
        // panicked mid-expansion (thread-local lane scratches outlive it).
        self.pending.clear();
    }
}

/// Per-expansion hook of the traversal step. Every method defaults to a
/// no-op, and the hook is a type parameter of the search, so an unused
/// method costs nothing in the hot loop.
pub trait Visit {
    /// Called once per expansion, after the pop and the termination
    /// check, before the neighbor list is read.
    fn begin(&mut self, _buffer: &SortedBuffer) {}

    /// `true` drops first-visit neighbor `id` without scoring it (it
    /// stays visited). Never asked about seeds.
    fn prune(&self, _id: u32) -> bool {
        false
    }

    /// Sees every evaluated candidate, seeds included, in evaluation
    /// order.
    fn record(&mut self, _n: Neighbor) {}
}

/// No hook: plain Algorithm 1.
impl Visit for () {}

/// The construction sink: records every evaluated node, for methods that
/// select edges from a search's visited list (NSG, Vamana).
impl Visit for Option<&mut Vec<Neighbor>> {
    #[inline]
    fn record(&mut self, n: Neighbor) {
        if let Some(sink) = self {
            sink.push(n);
        }
    }
}

/// How a lane scores candidates. `four` is bit-identical to four `one`
/// calls, so the grouping never shows in results or counter totals.
trait Scorer<'a> {
    fn new(space: Space<'a>, query: &'a [f32], prepared: &'a PreparedQuery) -> Self;
    fn prefetch(&self, id: u32);
    fn one(&self, id: u32) -> f32;
    fn four(&self, ids: [u32; 4]) -> [f32; 4];
}

/// Exact `f32` distances to the query.
struct Exact<'a> {
    space: Space<'a>,
    query: &'a [f32],
}

impl<'a> Scorer<'a> for Exact<'a> {
    fn new(space: Space<'a>, query: &'a [f32], _: &'a PreparedQuery) -> Self {
        Self { space, query }
    }
    #[inline]
    fn prefetch(&self, id: u32) {
        self.space.prefetch(id);
    }
    #[inline]
    fn one(&self, id: u32) -> f32 {
        self.space.dist_to(self.query, id)
    }
    #[inline]
    fn four(&self, ids: [u32; 4]) -> [f32; 4] {
        self.space.dist_to_batch(self.query, ids)
    }
}

/// Code-space distances from the prepared query (counted as `u8`).
struct Coded<'a> {
    space: Space<'a>,
    prepared: &'a PreparedQuery,
}

impl<'a> Scorer<'a> for Coded<'a> {
    fn new(space: Space<'a>, _: &'a [f32], prepared: &'a PreparedQuery) -> Self {
        Self { space, prepared }
    }
    #[inline]
    fn prefetch(&self, id: u32) {
        self.space.qprefetch(id);
    }
    #[inline]
    fn one(&self, id: u32) -> f32 {
        self.space.qdist_to(self.prepared, id)
    }
    #[inline]
    fn four(&self, ids: [u32; 4]) -> [f32; 4] {
        self.space.qdist_to_batch(self.prepared, ids)
    }
}

/// Scores `ids` in order, four at a time through the batched kernel with
/// a scalar tail, handing each result to `emit`. Returns the number of
/// evaluations.
#[inline]
fn score<'a, S: Scorer<'a>>(scorer: &S, ids: &[u32], mut emit: impl FnMut(Neighbor)) -> usize {
    let mut groups = ids.chunks_exact(4);
    for g in &mut groups {
        let g = [g[0], g[1], g[2], g[3]];
        for (id, d) in g.into_iter().zip(scorer.four(g)) {
            emit(Neighbor::new(id, d));
        }
    }
    for &id in groups.remainder() {
        emit(Neighbor::new(id, scorer.one(id)));
    }
    ids.len()
}

/// One query's traversal: the scratch it runs in, how it scores, its
/// hook, its termination state and its counters.
struct Lane<'s, S, V> {
    visited: &'s mut VisitedSet,
    buffer: &'s mut SortedBuffer,
    pending: &'s mut Vec<u32>,
    scorer: S,
    visit: V,
    term: TermState,
    stats: SearchStats,
}

impl<'s, S: Scorer<'s>, V: Visit> Lane<'s, S, V> {
    /// Opens a lane on a prepared `scratch` (its query already prepared
    /// when scoring in code space) and visited-filters and prefetches the
    /// seeds below `n`; `score` evaluates them.
    fn open(
        scratch: &'s mut SearchScratch,
        space: Space<'s>,
        query: &'s [f32],
        seeds: &[u32],
        n: usize,
        term: TermState,
        visit: V,
    ) -> Self {
        let SearchScratch { visited, buffer, prepared, pending } = scratch;
        let scorer = S::new(space, query, prepared);
        for &s in seeds {
            if (s as usize) < n && visited.insert(s) {
                scorer.prefetch(s);
                pending.push(s);
            }
        }
        Self { visited, buffer, pending, scorer, visit, term, stats: SearchStats::default() }
    }

    /// Scores the pending candidates, shows them to the hook and inserts
    /// them into the buffer.
    #[inline]
    fn score(&mut self) {
        let evaluated = score(&self.scorer, self.pending, |n| {
            self.visit.record(n);
            self.buffer.insert(n);
        });
        self.stats.evaluated += evaluated;
        self.pending.clear();
    }

    /// First half of the step: pops the closest unexpanded candidate and,
    /// unless the buffer is exhausted or the termination policy stops
    /// here, visited-filters and prefetches its neighbor list into
    /// `pending`, minus what the hook prunes. With `EAGER` each full
    /// group of four is scored as soon as it forms (the sequential
    /// driver); the lockstep driver leaves all scoring to `settle`, so
    /// other lanes' filtering overlaps this lane's prefetches. Returns
    /// `false` once the lane is done.
    #[inline]
    fn expand<G: GraphView + ?Sized, const EAGER: bool>(&mut self, graph: &G) -> bool {
        let Some(current) = self.buffer.next_unexpanded() else {
            return false;
        };
        // Emission-time termination: once per expansion, never per
        // distance.
        if self.term.should_stop(current.dist, self.buffer, self.stats.evaluated) {
            return false;
        }
        self.stats.hops += 1;
        self.visit.begin(self.buffer);
        for &nb in graph.neighbors(current.id) {
            if self.visited.insert(nb) {
                // Prefetch on admission: the rest of the list's filter
                // work overlaps the memory latency of the rows the batched
                // kernel is about to touch.
                self.scorer.prefetch(nb);
                if !self.visit.prune(nb) {
                    self.pending.push(nb);
                    if EAGER && self.pending.len() == 4 {
                        self.score();
                    }
                }
            }
        }
        true
    }

    /// Second half of the step: scores what `expand` left pending and
    /// updates the termination state.
    #[inline]
    fn settle(&mut self) {
        self.score();
        self.term.note_expansion(self.buffer);
    }

    /// Sequential driver: scores the seeds, then steps until done.
    fn run<G: GraphView + ?Sized>(mut self, graph: &G) -> Self {
        self.score();
        while self.expand::<G, true>(graph) {
            self.settle();
        }
        self
    }

    /// Phase 2 of a code-space search: re-scores the `pool` best
    /// candidates with exact `f32` distances and keeps the true top `k`.
    fn rerank(mut self, space: Space<'_>, q: &[f32], pool: usize, k: usize) -> SearchResult {
        let ids: Vec<u32> = self.buffer.top_k(pool).iter().map(|n| n.id).collect();
        let mut exact = Vec::with_capacity(ids.len());
        self.stats.evaluated += score(&Exact { space, query: q }, &ids, |n| exact.push(n));
        exact.sort_unstable();
        exact.truncate(k);
        SearchResult { neighbors: exact, stats: self.stats }
    }
}

/// Beam search (Algorithm 1): warm the candidate buffer with `seeds`, then
/// repeatedly expand the closest unexpanded candidate until the buffer
/// stabilizes. Returns the `k` closest discovered nodes.
///
/// `beam_width` (the paper's `L`) controls the accuracy/efficiency
/// trade-off; it must be `>= k` for a full result set.
///
/// ```
/// use gass_core::{beam_search, AdjacencyGraph, DistCounter, SearchScratch, Space, VectorStore};
///
/// // Points 0..5 on a line, chained into a path graph.
/// let store = VectorStore::from_flat(1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
/// let mut graph = AdjacencyGraph::new(5);
/// for i in 0..4 {
///     graph.add_undirected(i, i + 1);
/// }
/// let counter = DistCounter::new();
/// let space = Space::new(&store, &counter);
/// let mut scratch = SearchScratch::new(5, 4);
///
/// let res = beam_search(&graph, space, &[3.2], &[0], 2, 4, &mut scratch);
/// assert_eq!(res.neighbors[0].id, 3);
/// assert!(counter.get() > 0); // every evaluation was counted
/// ```
pub fn beam_search<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
) -> SearchResult {
    beam_search_terminated(
        graph,
        space,
        query,
        seeds,
        k,
        beam_width,
        scratch,
        Termination::FIXED,
    )
}

/// [`beam_search`] with an adaptive [`Termination`] attached. With
/// [`Termination::FIXED`] this *is* `beam_search` — the policy hooks are
/// emission-time only (one check per expansion, right after the buffer
/// pops its best unexpanded candidate), so the visited-filter + 4-wide
/// kernel hot loop is untouched and the fixed path stays bit-identical
/// by construction.
///
/// Any other policy may stop the traversal early; because expansion
/// order is deterministic, an early-stopped run's work is a prefix of
/// the fixed run's, so relaxing `patience`/`eps`/`max_dists` can only
/// improve the result. On the quantized path the exact rerank always
/// runs, even after a budget stop — returned distances stay exact.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_terminated<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
) -> SearchResult {
    beam_search_visit(graph, space, query, seeds, k, beam_width, scratch, term, ())
}

/// [`beam_search_terminated`] with a [`Visit`] hook: the sequential search
/// every other entry point wraps.
///
/// With a [`QuantView`](crate::distance::QuantView) on `space` it runs in
/// two phases: the traversal scores every candidate in code space, with
/// the candidate buffer widened to at least `rerank_factor * k` entries,
/// and the leading `rerank_factor * k` candidates are then re-scored with
/// exact `f32` distances before the final top-`k` cut. Returned distances
/// are therefore always exact; only the traversal ranking is approximate.
/// `stats.evaluated` (and the [`DistCounter`](crate::distance::DistCounter)
/// total) counts both phases — the `u8`/`f32` split is on the counter.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_visit<G: GraphView + ?Sized, V: Visit>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
    visit: V,
) -> SearchResult {
    let n = graph.num_nodes();
    if n == 0 || seeds.is_empty() {
        return SearchResult::default();
    }
    let term = TermState::new(term, k);
    let Some(qv) = space.quant() else {
        scratch.prepare(n, beam_width.max(k));
        let lane = Lane::<Exact, V>::open(scratch, space, query, seeds, n, term, visit);
        let lane = lane.run(graph);
        return SearchResult { neighbors: lane.buffer.top_k(k), stats: lane.stats };
    };
    let pool = k.saturating_mul(qv.rerank_factor());
    scratch.prepare(n, beam_width.max(pool));
    qv.store().prepare_into(query, &mut scratch.prepared);
    let lane = Lane::<Coded, V>::open(scratch, space, query, seeds, n, term, visit);
    lane.run(graph).rerank(space, query, pool, k)
}

/// [`beam_search`] variant that can also record **every** evaluated node in
/// `sink` (in evaluation order). Construction algorithms that select edges
/// from the *visited list* of a search (NSG, Vamana) need this.
///
/// Always runs at full precision and `Fixed`: construction quality must
/// not depend on quantization, and construction must see the complete
/// visited list, so any quant view on `space` is ignored here.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_with_sink<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    sink: Option<&mut Vec<Neighbor>>,
) -> SearchResult {
    beam_search_visit(
        graph,
        space.with_quant(None),
        query,
        seeds,
        k,
        beam_width,
        scratch,
        Termination::FIXED,
        sink,
    )
}

/// How many queries [`beam_search_coalesced`] interleaves in lockstep.
///
/// Calibrated with a dependent-chain microbenchmark on the serving path:
/// one lane pays full memory latency per expansion (~130 ns/eval on the
/// 100K SQ8 tier), four lanes reach the kernel's throughput floor
/// (~28 ns/eval), and the curve is flat beyond that. Eight keeps margin
/// on deeper memory systems without outgrowing L1 (8 lanes × one
/// neighbor list of codes ≈ 24 KB in flight).
pub const COALESCE_LANES: usize = 8;

/// Interleaved multi-query quantized beam search: runs up to
/// [`COALESCE_LANES`]-sized groups of independent queries in lockstep on
/// *one* thread, alternating a traversal stage (pop the next candidate,
/// visited-filter its neighbor list, software-prefetch the surviving
/// code rows) with an evaluation stage across all lanes. Between a
/// lane's prefetch and its evaluation the other lanes' traversal work
/// executes, so each query's dependent memory accesses — the pop →
/// adjacency row → code rows chain that in-query prefetching cannot
/// cover, because the next frontier depends on the current distances —
/// overlap another query's compute. This is the execution-level payoff
/// of cross-request micro-batching (`gass-serve`): a batch is faster
/// than the sum of its queries, not just cheaper to dispatch.
///
/// Every lane runs the sequential search's own step — visited-filter
/// order, 4-wide kernel grouping, candidate-buffer inserts, expansion
/// sequence, exact rerank — so results (neighbors, distances, per-query
/// stats, counter totals) are bit-identical to running the lanes one at
/// a time; only the hardware sees the difference. Lanes without a quant
/// view run one after another through the same step instead: the exact
/// path's in-query prefetching already covers most of its latency, and
/// exact lanes in lockstep measured ~7% slower at 96 dims (only ~5%
/// faster at 960) on a 2-vCPU Xeon.
///
/// `seeds` holds one seed set per query; `scratches` one scratch per
/// lane (prepared internally).
///
/// A lane whose [`Termination`] fires is *retired* — dropped from both
/// stages while the remaining lanes keep interleaving — so a batch mixing
/// easy and hard queries stops paying for its easy lanes as soon as each
/// converges. With [`Termination::FIXED`] behavior and results are
/// bit-identical to the pre-policy coalesced search.
///
/// # Panics
/// Panics if `queries`, `seeds` and `scratches` lengths disagree
/// (`scratches` may be longer).
#[allow(clippy::too_many_arguments)]
pub fn beam_search_coalesced<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    queries: &[&[f32]],
    seeds: &[Vec<u32>],
    k: usize,
    beam_width: usize,
    scratches: &mut [SearchScratch],
    term: Termination,
) -> Vec<SearchResult> {
    assert_eq!(queries.len(), seeds.len(), "one seed set per query");
    assert!(scratches.len() >= queries.len(), "one scratch per lane");
    let jobs = queries.iter().zip(seeds).zip(scratches.iter_mut());
    let Some(qv) = space.quant() else {
        return jobs
            .map(|((q, s), scratch)| {
                beam_search_terminated(graph, space, q, s, k, beam_width, scratch, term)
            })
            .collect();
    };
    let n = graph.num_nodes();
    let pool = k.saturating_mul(qv.rerank_factor());
    let mut lanes: Vec<Lane<Coded, ()>> = jobs
        .map(|((&q, s), scratch)| {
            scratch.prepare(n, beam_width.max(pool));
            if n > 0 && !s.is_empty() {
                qv.store().prepare_into(q, &mut scratch.prepared);
            }
            Lane::open(scratch, space, q, s, n, TermState::new(term, k), ())
        })
        .collect();
    // Lockstep: every live lane runs the first half of the step, then
    // every lane that expanded runs the second.
    lanes.iter_mut().for_each(|lane| lane.score());
    let mut live = vec![true; lanes.len()];
    while live.contains(&true) {
        for (lane, live) in lanes.iter_mut().zip(&mut live).filter(|(_, live)| **live) {
            *live = lane.expand::<G, false>(graph);
        }
        for (lane, _) in lanes.iter_mut().zip(&live).filter(|(_, &live)| live) {
            lane.settle();
        }
    }
    // Exact rerank, pipelined across lanes: prefetch every lane's pool
    // rows, then re-score lane by lane.
    for lane in &lanes {
        lane.buffer.top_k(pool).iter().for_each(|n| space.prefetch(n.id));
    }
    lanes.into_iter().zip(queries).map(|(lane, q)| lane.rerank(space, q, pool, k)).collect()
}

/// [`beam_search`] over an index that may have been frozen into CSR form:
/// traverses `csr` when present, `graph` otherwise. Both arms are
/// statically dispatched — this is the one `match` every method's `search`
/// does, hoisted out of the traversal so the hot loop never pays virtual
/// dispatch per neighbor list.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_frozen<G: GraphView + ?Sized>(
    graph: &G,
    csr: Option<&crate::graph::CsrGraph>,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
) -> SearchResult {
    match csr {
        Some(c) => beam_search_terminated(c, space, query, seeds, k, beam_width, scratch, term),
        None => {
            beam_search_terminated(graph, space, query, seeds, k, beam_width, scratch, term)
        }
    }
}

/// Exhaustive scan: evaluates the query against *every* vector and returns
/// the exact `k` nearest. The paper's serial-scan baseline (Figure 1) and
/// the reference answer for recall. Runs four vectors at a time through the
/// batched kernel (bit-identical to one-at-a-time evaluation) with a scalar
/// tail, so the exact baseline benefits from the SIMD kernels too.
pub fn serial_scan(space: Space<'_>, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut heap = crate::neighbor::BoundedMaxHeap::new(k.max(1));
    let n = space.len() as u32;
    let mut id = 0u32;
    while id + 4 <= n {
        let ids = [id, id + 1, id + 2, id + 3];
        let ds = space.dist_to_batch(query, ids);
        for (&i, &d) in ids.iter().zip(ds.iter()) {
            heap.push(Neighbor::new(i, d));
        }
        id += 4;
    }
    while id < n {
        heap.push(Neighbor::new(id, space.dist_to(query, id)));
        id += 1;
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistCounter;
    use crate::graph::AdjacencyGraph;
    use crate::store::VectorStore;

    /// A 1-d line of points 0..10 chained left-right: beam search from one
    /// end must walk to the true nearest neighbor.
    fn line_world() -> (VectorStore, AdjacencyGraph) {
        let store = VectorStore::from_flat(1, (0..10).map(|i| i as f32).collect());
        let mut g = AdjacencyGraph::new(10);
        for i in 0..9u32 {
            g.add_undirected(i, i + 1);
        }
        (store, g)
    }

    #[test]
    fn beam_search_walks_to_true_nn() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[7.2], &[0], 3, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 7);
        assert_eq!(res.neighbors[1].id, 8); // |8-7.2|=0.8 < |6-7.2|=1.2
        assert_eq!(res.neighbors[2].id, 6);
        assert!(res.stats.evaluated >= 8, "must traverse the chain");
        assert_eq!(counter.get(), res.stats.evaluated as u64);
    }

    #[test]
    fn larger_beam_never_reduces_result_quality() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 8);
        let narrow = beam_search(&g, space, &[4.4], &[0], 2, 2, &mut scratch);
        let wide = beam_search(&g, space, &[4.4], &[0], 2, 8, &mut scratch);
        assert!(wide.neighbors[0].dist <= narrow.neighbors[0].dist);
        assert_eq!(wide.neighbors[0].id, 4);
    }

    #[test]
    fn empty_seeds_return_empty() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[1.0], &[], 3, 4, &mut scratch);
        assert!(res.neighbors.is_empty());
    }

    #[test]
    fn sink_records_every_evaluation() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 16);
        let mut sink = Vec::new();
        let res = beam_search_with_sink(
            &g,
            space,
            &[9.0],
            &[0],
            1,
            16,
            &mut scratch,
            Some(&mut sink),
        );
        assert_eq!(sink.len(), res.stats.evaluated);
        // With beam width >= n on a connected chain, everything is visited.
        assert_eq!(sink.len(), 10);
    }

    #[test]
    fn serial_scan_is_exact() {
        let (store, _) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let exact = serial_scan(space, &[3.3], 2);
        assert_eq!(exact[0].id, 3);
        assert_eq!(exact[1].id, 4);
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn beam_search_duplicate_seeds_counted_once() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[0.0], &[5, 5, 5], 1, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 0);
        // Seed 5 evaluated exactly once despite triplication.
        let evaluated_seed_phase = 1;
        assert!(res.stats.evaluated >= evaluated_seed_phase);
    }

    #[test]
    fn quantized_beam_search_matches_exact_on_line() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 2)));
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[7.2], &[0], 3, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 7);
        // Rerank restores exact distances: |7 - 7.2|^2.
        assert!((res.neighbors[0].dist - 0.04).abs() < 1e-5, "{}", res.neighbors[0].dist);
        // Both phases counted, total still matches the stats.
        assert_eq!(counter.get(), res.stats.evaluated as u64);
        assert!(counter.get_u8() > 0, "traversal must run on u8 distances");
        assert!(counter.get_f32() > 0, "rerank must run on f32 distances");
    }

    #[test]
    fn quantized_buffer_holds_the_rerank_pool() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut scratch = SearchScratch::new(10, 2);
        // beam_width 2 < rerank_factor * k = 6: the pool must widen.
        let res = beam_search(&g, space, &[9.0], &[0], 2, 2, &mut scratch);
        assert_eq!(res.neighbors.len(), 2);
        assert_eq!(res.neighbors[0].id, 9);
    }

    #[test]
    fn coalesced_search_is_bit_identical_to_sequential() {
        // A 16-d random-ish world big enough that lanes traverse distinct
        // regions, with a connected ring plus chords.
        let n = 400usize;
        let dim = 16usize;
        let mut flat = Vec::with_capacity(n * dim);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..n * dim {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            flat.push((state >> 40) as f32 / 1024.0 - 8.0);
        }
        let store = VectorStore::from_flat(dim, flat);
        let mut g = AdjacencyGraph::new(n);
        for i in 0..n as u32 {
            g.add_undirected(i, (i + 1) % n as u32);
            g.add_undirected(i, (i * 7 + 13) % n as u32);
            g.add_undirected(i, (i * 31 + 5) % n as u32);
        }
        let qs = crate::quant::QuantizedStore::from_store(&store);

        let queries: Vec<Vec<f32>> = (0..7)
            .map(|q| (0..dim).map(|d| ((q * dim + d) % 17) as f32 - 8.0).collect())
            .collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let seeds: Vec<Vec<u32>> = (0..7u32).map(|q| vec![q * 53 % n as u32, 0]).collect();

        let counter_seq = DistCounter::new();
        let space_seq =
            Space::new(&store, &counter_seq).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut scratch = SearchScratch::new(n, 12);
        let seq: Vec<SearchResult> = query_refs
            .iter()
            .zip(&seeds)
            .map(|(q, s)| beam_search(&g, space_seq, q, s, 4, 12, &mut scratch))
            .collect();

        let counter_co = DistCounter::new();
        let space_co =
            Space::new(&store, &counter_co).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut lane_scratch: Vec<SearchScratch> =
            (0..7).map(|_| SearchScratch::new(n, 12)).collect();
        let co = beam_search_coalesced(
            &g,
            space_co,
            &query_refs,
            &seeds,
            4,
            12,
            &mut lane_scratch,
            Termination::FIXED,
        );

        assert_eq!(seq.len(), co.len());
        for (s, c) in seq.iter().zip(&co) {
            assert_eq!(s.neighbors, c.neighbors, "ids and exact distances must match bitwise");
            assert_eq!(s.stats, c.stats, "traversal work must be identical");
        }
        assert_eq!(counter_seq.get(), counter_co.get());
        assert_eq!(counter_seq.get_u8(), counter_co.get_u8());
        assert_eq!(counter_seq.get_f32(), counter_co.get_f32());
    }

    #[test]
    fn coalesced_without_quant_falls_back_per_lane() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let queries: Vec<Vec<f32>> = vec![vec![7.2], vec![1.4]];
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let seeds = vec![vec![0u32], vec![9u32]];
        let mut lane_scratch: Vec<SearchScratch> =
            (0..2).map(|_| SearchScratch::new(10, 4)).collect();
        let res = beam_search_coalesced(
            &g,
            space,
            &query_refs,
            &seeds,
            2,
            4,
            &mut lane_scratch,
            Termination::FIXED,
        );
        assert_eq!(res[0].neighbors[0].id, 7);
        assert_eq!(res[1].neighbors[0].id, 1);
    }

    #[test]
    fn coalesced_handles_empty_and_out_of_range_lanes() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 2)));
        let queries: Vec<Vec<f32>> = vec![vec![3.3], vec![5.0], vec![8.0]];
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        // Lane 1 has no seeds; lane 2 only an out-of-range seed.
        let seeds = vec![vec![0u32], vec![], vec![99u32]];
        let mut lane_scratch: Vec<SearchScratch> =
            (0..3).map(|_| SearchScratch::new(10, 4)).collect();
        let res = beam_search_coalesced(
            &g,
            space,
            &query_refs,
            &seeds,
            2,
            4,
            &mut lane_scratch,
            Termination::FIXED,
        );
        assert_eq!(res[0].neighbors[0].id, 3);
        assert!(res[1].neighbors.is_empty());
        assert!(res[2].neighbors.is_empty());
    }

    #[test]
    fn terminated_fixed_is_bit_identical_to_beam_search() {
        let (store, g) = line_world();
        let c1 = DistCounter::new();
        let mut scratch = SearchScratch::new(10, 8);
        let base = beam_search(&g, Space::new(&store, &c1), &[6.3], &[0], 3, 8, &mut scratch);
        let c2 = DistCounter::new();
        let fixed = beam_search_terminated(
            &g,
            Space::new(&store, &c2),
            &[6.3],
            &[0],
            3,
            8,
            &mut scratch,
            Termination::FIXED,
        );
        assert_eq!(base.neighbors, fixed.neighbors);
        assert_eq!(base.stats, fixed.stats);
        assert_eq!(c1.get(), c2.get());
    }

    #[test]
    fn budget_caps_traversal_work() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 8);
        // From node 0 toward 9.0: a budget of 3 stops the walk long
        // before the far end; the partial result is the best prefix.
        let term = Termination { policy: crate::term::TerminationPolicy::Fixed, max_dists: 3 };
        let res = beam_search_terminated(&g, space, &[9.0], &[0], 2, 8, &mut scratch, term);
        assert!(res.stats.evaluated <= 4, "budget overshoot is at most one expansion");
        assert!(!res.neighbors.is_empty(), "budgeted search still returns its best prefix");
    }

    #[test]
    fn saturation_stops_after_convergence() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 10);
        let fixed = beam_search(&g, space, &[0.1], &[0], 1, 10, &mut scratch);
        let c2 = DistCounter::new();
        let space2 = Space::new(&store, &c2);
        let term = Termination {
            policy: crate::term::TerminationPolicy::Saturation { patience: 2 },
            max_dists: 0,
        };
        let sat = beam_search_terminated(&g, space2, &[0.1], &[0], 1, 10, &mut scratch, term);
        // Query sits on node 0: the top-1 never changes, so saturation
        // stops after `patience` expansions while fixed walks the beam out.
        assert_eq!(sat.neighbors[0], fixed.neighbors[0]);
        assert!(sat.stats.evaluated < fixed.stats.evaluated);
    }

    #[test]
    fn out_of_range_seeds_are_ignored() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[0.0], &[99], 1, 4, &mut scratch);
        assert!(res.neighbors.is_empty());
    }
}
