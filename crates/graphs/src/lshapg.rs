//! **LSHAPG** — LSH-assisted proximity graph: an HNSW base layer whose
//! queries (i) retrieve seeds from multiple LSH tables instead of the SN
//! descent, and (ii) use *probabilistic routing*: a neighbor's distance is
//! estimated from its LSH projection sketch first, and the exact distance
//! is only computed when the estimate beats the current pruning bound
//! (scaled by a slack factor).
//!
//! The paper finds that this routing can prune *promising* neighbors,
//! forcing larger beam widths for high recall — our implementation
//! reproduces exactly that trade-off (the slack factor trades sketch
//! savings against misrouting).

use crate::common::BuildReport;
use crate::hnsw::{HnswIndex, HnswParams};
use gass_core::distance::{DistCounter, Space};
use gass_core::index::{AnnIndex, IndexStats, QueryParams, ScratchPool};
use gass_core::neighbor::SortedBuffer;
use gass_core::reorder::ReorderStrategy;
use gass_core::search::{beam_search_visit, SearchResult, Visit};
use gass_core::seed::SeedProvider;
use gass_hash::{LshIndex, LshSeeds};

/// LSHAPG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct LshapgParams {
    /// Base-graph (HNSW) parameters.
    pub hnsw: HnswParams,
    /// Number of LSH tables.
    pub tables: usize,
    /// Projections per table.
    pub projections: usize,
    /// LSH bucket width *factor* (multiplies the data's projection std;
    /// see `LshIndex::build_scaled`).
    pub width: f32,
    /// Routing slack `γ ≥ 1`: evaluate a neighbor exactly only when its
    /// estimated distance is below `γ ·` current bound. `f32::INFINITY`
    /// disables routing (plain HNSW traversal with LSH seeds).
    pub gamma: f32,
}

impl LshapgParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self { hnsw: HnswParams::small(), tables: 4, projections: 8, width: 0.7, gamma: 1.8 }
    }
}

/// A built LSHAPG index.
pub struct LshapgIndex {
    base: HnswIndex,
    lsh: LshSeeds,
    gamma: f32,
    scratch: ScratchPool,
    build: BuildReport,
}

impl LshapgIndex {
    /// Builds the HNSW base and the LSH tables.
    pub fn build(store: gass_core::VectorStore, params: LshapgParams) -> Self {
        let start = std::time::Instant::now();
        let base = HnswIndex::build(store, params.hnsw);
        let lsh_index = LshIndex::build_scaled(
            base.store(),
            params.tables,
            params.projections,
            params.width,
            params.hnsw.seed ^ 0x15b,
        );
        let lsh = LshSeeds::new(lsh_index, 0);
        let build = BuildReport {
            seconds: start.elapsed().as_secs_f64(),
            dist_calcs: base.build_report().dist_calcs,
        };
        Self { base, lsh, gamma: params.gamma, scratch: ScratchPool::new(), build }
    }

    /// Construction cost report.
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// The LSH structure.
    pub fn lsh(&self) -> &LshIndex {
        self.lsh.index()
    }
}

/// Probabilistic routing as a traversal hook: a first-visit neighbor is
/// scored (in code space on a quantized index) only when its sketch
/// estimate is within `gamma ×` the pruning bound captured at the start
/// of the expansion. Its row is prefetched before the gate decides.
struct SketchGate<'a> {
    lsh: &'a LshIndex,
    sketch: Vec<f32>,
    gamma: f32,
    /// `gamma ×` the bound, or `None` while the buffer is not yet full.
    limit: Option<f32>,
}

impl Visit for SketchGate<'_> {
    #[inline]
    fn begin(&mut self, buffer: &SortedBuffer) {
        let bound = buffer.bound();
        self.limit = bound.is_finite().then_some(self.gamma * bound);
    }

    #[inline]
    fn prune(&self, id: u32) -> bool {
        self.limit.is_some_and(|limit| self.lsh.projected_dist_sq(&self.sketch, id) > limit)
    }
}

impl AnnIndex for LshapgIndex {
    fn name(&self) -> String {
        "LSHAPG".to_string()
    }

    fn num_vectors(&self) -> usize {
        self.base.num_vectors()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        let store = self.base.store();
        let space = Space::new(store, counter).with_quant(
            self.base.quantized().map(|q| gass_core::QuantView::new(q, params.rerank_factor)),
        );
        let mut seeds = Vec::new();
        self.lsh.seeds(space, query, params.seed_count.max(4), &mut seeds);
        let gate = SketchGate {
            lsh: self.lsh.index(),
            sketch: self.lsh.index().query_sketch(query),
            gamma: self.gamma,
            limit: None,
        };
        let (k, l, term) = (params.k, params.beam_width, params.termination());
        let res = self.scratch.with(space.len(), l, |scratch| match self.base.csr() {
            Some(csr) => {
                beam_search_visit(csr, space, query, &seeds, k, l, scratch, term, gate)
            }
            None => {
                let graph = self.base.base_graph();
                beam_search_visit(graph, space, query, &seeds, k, l, scratch, term, gate)
            }
        });
        // The traversal runs in the base graph's (possibly relabeled) id
        // space; the base serving state owns the new→old translation.
        self.base.serving().finish(res)
    }

    fn freeze(&mut self) {
        self.base.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.base.is_frozen()
    }

    fn quantize(&mut self, spec: gass_core::CodecSpec) {
        // The base HNSW owns the store; its codes serve the routed
        // traversal too.
        self.base.quantize(spec);
    }

    fn is_quantized(&self) -> bool {
        self.base.is_quantized()
    }

    fn reorder(&mut self, strategy: ReorderStrategy) {
        // The LSH buckets and sketch rows must follow the base graph's
        // relabeling so seeds and sketch estimates stay in the same id
        // space as the permuted CSR.
        if let Some(map) = self.base.reorder_with(strategy) {
            self.lsh.reorder(&map);
        }
    }

    fn is_reordered(&self) -> bool {
        self.base.is_reordered()
    }

    fn reorder_strategy(&self) -> ReorderStrategy {
        self.base.reorder_strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut s = self.base.stats();
        s.aux_bytes += self.lsh.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::graph::GraphView;
    use gass_core::search::{beam_search_frozen, SearchScratch};
    use gass_core::{CodecSpec, DistCounter, TerminationPolicy, VectorStore};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    fn recall(idx: &LshapgIndex, base: &VectorStore, queries: &VectorStore, l: usize) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, l).with_seed_count(12);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn lshapg_reasonable_recall_with_routing() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = LshapgIndex::build(base.clone(), LshapgParams::small());
        let r = recall(&idx, &base, &queries, 96);
        assert!(r > 0.8, "LSHAPG recall too low: {r}");
    }

    #[test]
    fn routing_prunes_evaluations_but_costs_recall() {
        // The paper's LSHAPG finding: probabilistic routing reduces exact
        // evaluations yet can prune promising neighbors, so at a fixed
        // beam width recall does not exceed the unrouted traversal.
        let base = deep_like(500, 3);
        let queries = deep_like(12, 4);
        let routed = LshapgIndex::build(base.clone(), LshapgParams::small());
        let unrouted = LshapgIndex::build(
            base.clone(),
            LshapgParams { gamma: f32::INFINITY, ..LshapgParams::small() },
        );
        let (c_r, c_u) = (DistCounter::new(), DistCounter::new());
        let params = QueryParams::new(10, 48).with_seed_count(12);
        for (_, q) in queries.iter() {
            routed.search(q, &params, &c_r);
            unrouted.search(q, &params, &c_u);
        }
        assert!(
            c_r.get() < c_u.get(),
            "routing should cut exact evaluations: {} vs {}",
            c_r.get(),
            c_u.get()
        );
        let rr = recall(&routed, &base, &queries, 48);
        let ru = recall(&unrouted, &base, &queries, 48);
        assert!(rr <= ru + 0.05, "routing recall {rr} implausibly above unrouted {ru}");
    }

    fn key(res: &SearchResult) -> Vec<(u32, u32)> {
        res.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// Pinned to `Fixed` so a `GASS_TERM` override cannot redefine the
    /// baseline.
    fn fixed_params(l: usize) -> QueryParams {
        QueryParams::new(10, l)
            .with_seed_count(12)
            .with_term(TerminationPolicy::Fixed)
            .with_max_dists(0)
    }

    #[test]
    fn lshapg_honors_the_distance_budget() {
        let base = deep_like(500, 7);
        let queries = deep_like(8, 8);
        let fixed = fixed_params(64);
        let budget = 20;
        let capped = fixed.with_max_dists(budget);
        let never = fixed.with_max_dists(usize::MAX >> 1);
        for spec in [None, Some(CodecSpec::Sq8)] {
            let mut idx = LshapgIndex::build(base.clone(), LshapgParams::small());
            if let Some(spec) = spec {
                idx.quantize(spec);
            }
            let graph = idx.base.base_graph();
            let max_degree = (0..graph.num_nodes() as u32)
                .map(|u| graph.neighbors(u).len())
                .max()
                .unwrap_or(0);
            let rerank = if spec.is_some() { fixed.k * fixed.rerank_factor } else { 0 };
            // The budget is checked at emission time: the seeds, then at
            // most one neighbor list past the budget, then the rerank.
            let cap = budget.max(fixed.seed_count.max(4)) + max_degree + rerank;
            for (_, q) in queries.iter() {
                let (c_fixed, c_capped, c_never) =
                    (DistCounter::new(), DistCounter::new(), DistCounter::new());
                let full = idx.search(q, &fixed, &c_fixed);
                let cut = idx.search(q, &capped, &c_capped);
                let unspent = idx.search(q, &never, &c_never);
                assert!(
                    full.stats.evaluated > cap,
                    "{spec:?}: the budget must bind ({} <= {cap})",
                    full.stats.evaluated
                );
                assert!(
                    cut.stats.evaluated <= cap,
                    "{spec:?}: budget {budget} overshot: {} > {cap}",
                    cut.stats.evaluated
                );
                assert_eq!(c_capped.get(), cut.stats.evaluated as u64);
                assert!(!cut.neighbors.is_empty());
                // A budget that is never spent is `Fixed`, bit for bit.
                assert_eq!(key(&unspent), key(&full));
                assert_eq!(unspent.stats, full.stats);
                assert_eq!(
                    (c_never.get_f32(), c_never.get_u8()),
                    (c_fixed.get_f32(), c_fixed.get_u8())
                );
            }
        }
    }

    #[test]
    fn infinite_gamma_is_plain_beam_search_from_lsh_seeds() {
        // `gamma = ∞` must make the sketch gate a no-op: the answer is the
        // shared beam search over the base graph from LSHAPG's own seeds.
        let base = deep_like(400, 9);
        let queries = deep_like(10, 10);
        let params = fixed_params(48);
        let unrouted = LshapgParams { gamma: f32::INFINITY, ..LshapgParams::small() };
        for (freeze, spec) in [(false, None), (true, None), (true, Some(CodecSpec::Sq8))] {
            let mut idx = LshapgIndex::build(base.clone(), unrouted);
            if freeze {
                idx.freeze();
            }
            if let Some(spec) = spec {
                idx.quantize(spec);
            }
            let mut scratch = SearchScratch::new(0, 1);
            for (_, q) in queries.iter() {
                let (c_lsh, c_plain) = (DistCounter::new(), DistCounter::new());
                let got = idx.search(q, &params, &c_lsh);
                let space = Space::new(idx.base.store(), &c_plain).with_quant(
                    idx.base
                        .quantized()
                        .map(|c| gass_core::QuantView::new(c, params.rerank_factor)),
                );
                let mut seeds = Vec::new();
                idx.lsh.seeds(space, q, params.seed_count.max(4), &mut seeds);
                let plain = idx.base.serving().finish(beam_search_frozen(
                    idx.base.base_graph(),
                    idx.base.csr(),
                    space,
                    q,
                    &seeds,
                    params.k,
                    params.beam_width,
                    &mut scratch,
                    params.termination(),
                ));
                let ctx = format!("freeze={freeze} quant={spec:?}");
                assert_eq!(key(&got), key(&plain), "{ctx}");
                assert_eq!(got.stats, plain.stats, "{ctx}");
                assert_eq!(
                    (c_lsh.get_f32(), c_lsh.get_u8()),
                    (c_plain.get_f32(), c_plain.get_u8()),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn stats_account_lsh_tables() {
        let base = deep_like(200, 5);
        let idx = LshapgIndex::build(base, LshapgParams::small());
        assert!(idx.stats().aux_bytes > 0);
        assert_eq!(idx.name(), "LSHAPG");
    }
}
