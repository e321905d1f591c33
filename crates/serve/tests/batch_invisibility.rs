//! Property: micro-batch coalescing is observationally invisible.
//!
//! For any mix of queries and per-request parameters, answering them as
//! one coalesced batch ([`gass_serve::execute_coalesced`]) returns
//! bit-identical neighbors (same ids, same distance *bits*), the same
//! per-query traversal stats, and the same distance-computation totals
//! as answering them one at a time through `index.search` — the
//! frozen-CSR beam search the offline path uses.
//! Batching may change throughput and latency, never answers.
//!
//! Two indexes serve every case: a frozen HNSW, whose `search_coalesced`
//! is the sequential default, and a frozen SQ8 `PrebuiltIndex` over the
//! same base layer, whose batches run through the lockstep multi-lane
//! engine.

use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, PrebuiltIndex, QueryParams};
use gass_core::quant::CodecSpec;
use gass_core::seed::RandomSeeds;
use gass_graphs::{HnswIndex, HnswParams};
use gass_serve::execute_coalesced;
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 2_000;
const DIM: usize = 12;

/// One shared frozen serving index for every property case (building an
/// HNSW per case would dominate the run).
fn index() -> &'static HnswIndex {
    static INDEX: OnceLock<HnswIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let base = gass_data::synth::manifold_mixture(N, DIM, 8, 16, 0.5, 0.1, 77);
        let mut idx = HnswIndex::build(
            base,
            HnswParams { m: 8, ef_construction: 64, seed: 77, threads: 2 },
        );
        idx.freeze();
        idx.align_store();
        idx
    })
}

/// The HNSW base layer served as a frozen SQ8 `PrebuiltIndex` with
/// per-query seeds: the index whose batches take the coalesced engine.
fn coalescing_index() -> &'static PrebuiltIndex {
    static INDEX: OnceLock<PrebuiltIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let hnsw = index();
        let mut idx = PrebuiltIndex::new(
            hnsw.store().clone(),
            hnsw.base_graph().clone(),
            Box::new(RandomSeeds::per_query(N, 77)),
            "hnsw-base-sq8",
        );
        idx.freeze();
        idx.quantize(CodecSpec::Sq8);
        idx.align_store();
        idx
    })
}

/// A batch of 1–24 queries, each with its own parameter draw (so batches
/// mix coalescing groups, exercising the grouping + scatter path).
fn batches() -> impl Strategy<Value = Vec<(Vec<f32>, usize, usize)>> {
    prop::collection::vec(
        (
            prop::collection::vec(-1.5f32..1.5, DIM),
            1usize..=10, // k
            0usize..=2,  // beam bump index
        ),
        1..=24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalesced_batch_is_bit_identical_to_per_query_search(batch in batches()) {
        let jobs: Vec<(Vec<f32>, QueryParams)> = batch
            .into_iter()
            .map(|(q, k, bump)| {
                let beam = [k.max(8), 32, 64][bump];
                (q, QueryParams::new(k, beam.max(k)))
            })
            .collect();

        let indexes: [&dyn AnnIndex; 2] = [index(), coalescing_index()];
        for idx in indexes {
            let one_by_one_counter = DistCounter::new();
            let expected: Vec<_> = jobs
                .iter()
                .map(|(q, p)| idx.search(q, p, &one_by_one_counter))
                .collect();

            let coalesced_counter = DistCounter::new();
            let got = execute_coalesced(idx, &jobs, &coalesced_counter);

            prop_assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(
                    g.neighbors.len(),
                    e.neighbors.len(),
                    "query {} neighbor count", i
                );
                prop_assert_eq!(g.stats, e.stats, "{} query {} stats", idx.name(), i);
                for (gn, en) in g.neighbors.iter().zip(&e.neighbors) {
                    prop_assert_eq!(gn.id, en.id, "query {} id", i);
                    prop_assert_eq!(
                        gn.dist.to_bits(),
                        en.dist.to_bits(),
                        "query {} distance bits", i
                    );
                }
            }
            prop_assert_eq!(
                coalesced_counter.get(),
                one_by_one_counter.get(),
                "distance totals"
            );
            prop_assert_eq!(
                coalesced_counter.get_u8(),
                one_by_one_counter.get_u8(),
                "{} u8 distance totals", idx.name()
            );
        }
    }
}
