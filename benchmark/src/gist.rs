//! `gist-sq8-batch`: one caller thread issues 8-query batches through
//! `AnnIndex::search_coalesced` on a `PrebuiltIndex` over the HNSW base
//! graph, with per-query random seeds, SQ8 codes and a 4x exact rerank.
//!
//! It must be a `PrebuiltIndex`: no index in `gass-graphs` overrides
//! `search_coalesced`, so batches on `HnswIndex` would time the sequential
//! loop. Here the SQ8 kernel at dim 960, the exact rerank and the 8-lane
//! `beam_search_coalesced` engine do most of the work; the f32 kernel runs
//! only for the rerank.

use crate::common::{self, closed_loop, params, Run, SETUPS};
use crate::report::{median, Outcome};
use crate::trace::{Tracer, ROOT};
use gass_core::{
    beam_search_coalesced, AnnIndex, CodecSpec, DistCounter, PrebuiltIndex, RandomSeeds,
    SearchResult, SearchScratch, SeedProvider, Space, COALESCE_LANES,
};
use gass_graphs::HnswIndex;
use std::cell::Cell;
use std::time::Instant;

const L: usize = 64;
const SEED_COUNT: usize = 16;
const RERANK: usize = 4;
const BATCH: usize = COALESCE_LANES;
/// Key of the per-query seed draws.
const SEED_KEY: u64 = 7;
const RECALL_FLOOR: f64 = 0.9;

fn seeds_provider(n: usize) -> RandomSeeds {
    RandomSeeds::per_query(n, SEED_KEY)
}

pub fn run(run: &Run) -> Outcome {
    let (n, held) = if run.smoke { (1_000, 64) } else { (15_000, 1_000) };
    let data = common::gist_data(n, held, run.seed);
    let gt = common::truth(&data);
    let nq = data.queries.len();
    let p = params(L, SEED_COUNT, RERANK);
    let hp = crate::deep::hnsw_params();
    let c = DistCounter::new();
    let mut tr = Tracer::new();
    let mut out = Outcome::default();

    // Set-up: base vectors in memory -> HNSW base graph wrapped with the
    // rows, frozen, SQ8-encoded.
    let mut setups = Vec::new();
    let mut index = None;
    let mut build_dists = 0;
    for rep in 0..SETUPS as u64 {
        drop(index.take());
        let store = data.base.clone();
        let t = Instant::now();
        let root = tr.begin("setup", ROOT, rep, &c);
        let rid = Tracer::id(&root);
        let s = tr.begin("graphs.build", rid, rep, &c);
        let hnsw = HnswIndex::build(store, hp);
        tr.end(s, &c);
        build_dists = hnsw.build_report().dist_calcs;
        let mut idx = PrebuiltIndex::new(
            hnsw.store().clone(),
            hnsw.base_graph().clone(),
            Box::new(seeds_provider(n)),
            "HNSW base graph",
        );
        drop(hnsw);
        let s = tr.begin("reorder.freeze", rid, rep, &c);
        idx.freeze();
        tr.end(s, &c);
        let s = tr.begin("quant.encode", rid, rep, &c);
        idx.quantize(CodecSpec::Sq8);
        tr.end(s, &c);
        tr.end(root, &c);
        setups.push(common::secs(t));
        index = Some(idx);
    }
    let idx = index.expect("at least one set-up");

    // Sequential reference answers: the coalesced engine must match them
    // bit for bit.
    c.reset();
    let reference: Vec<SearchResult> =
        (0..nq as u32).map(|q| idx.search(data.queries.get(q), &p, &c)).collect();
    let dists = c.get() as f64 / nq as f64;
    let (f32_dists, u8_dists) = (c.get_f32() as f64 / nq as f64, c.get_u8() as f64 / nq as f64);
    let recall = common::recall(&gt, &reference);
    out.attempted += nq as u64;
    out.check(format!("recall_at_10 >= {RECALL_FLOOR}"), recall >= RECALL_FLOOR);

    let batches: Vec<Vec<&[f32]>> = (0..nq / BATCH)
        .map(|b| (b * BATCH..(b + 1) * BATCH).map(|q| data.queries.get(q as u32)).collect())
        .collect();
    let nb = batches.len();
    let failed = Cell::new(0u64);
    let check = |b: usize, res: &[SearchResult]| {
        for (j, r) in res.iter().enumerate() {
            if !common::same_answer(&r.neighbors, &reference[b * BATCH + j].neighbors) {
                failed.set(failed.get() + 1);
            }
        }
    };
    let plain = |i: usize| {
        let b = i % nb;
        check(b, &idx.search_coalesced(&batches[b], &p, &c));
        BATCH as u64
    };

    out.config("n", n.to_string());
    out.config("dim", "960".to_string());
    out.config("queries", format!("{{\"held_out\":{held},\"batch\":{BATCH}}}"));
    out.config("index", format!(
        "{{\"kind\":\"PrebuiltIndex\",\"graph\":\"HnswIndex base layer\",\"m\":{},\"ef_construction\":{},\"threads\":{},\"layout\":\"frozen csr\",\"codec\":\"sq8\",\"seeds\":\"RandomSeeds::per_query\"}}",
        hp.m, hp.ef_construction, hp.threads
    ));
    out.config("params", common::params_json(&p));
    out.config(
        "load",
        "\"1 caller thread, closed loop, search_coalesced on 8-query batches\"".to_string(),
    );

    if !run.trace {
        let (w, _) = closed_loop(run.seconds, 0, plain);
        out.attempted += w.queries;
        out.failed = failed.get();
        crate::report_window(&mut out, &w, nb);
        out.metric("recall_at_10", recall, "ratio");
        out.metric("dists_per_query", dists, "count");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        let st = idx.stats();
        let vectors = idx.store().heap_bytes() + idx.store().mapped_bytes();
        out.metric("serving_mb", (vectors + st.graph_bytes + st.aux_bytes) as f64 / 1e6, "MB");
        return out;
    }

    // Traced replay of `PrebuiltIndex::search_coalesced` through its
    // public stages, with a seed provider equal to the index's.
    let provider = seeds_provider(n);
    let csr = idx.serving().csr().expect("frozen in set-up");
    let mut lanes: Vec<SearchScratch> = (0..BATCH).map(|_| SearchScratch::new(n, L)).collect();
    let mut seeds: Vec<Vec<u32>> = vec![Vec::new(); BATCH];
    let (mut hops, mut evaluated) = (0u64, 0u64);
    let from = tr.len();
    let traced = |i: usize| {
        let b = i % nb;
        let req = i as u64;
        let root = tr.begin("batch", ROOT, req, &c);
        let rid = Tracer::id(&root);
        let space = Space::new(idx.store(), &c).with_quant(idx.serving().quant_view(&p));
        let s = tr.begin("seed.select", rid, req, &c);
        for (q, out) in batches[b].iter().zip(&mut seeds) {
            out.clear();
            provider.seeds(space, q, p.seed_count, out);
        }
        tr.end(s, &c);
        let s = tr.begin("search.traverse", rid, req, &c);
        let res = beam_search_coalesced(
            csr,
            space,
            &batches[b],
            &seeds,
            p.k,
            p.beam_width,
            &mut lanes,
            p.termination(),
        );
        tr.end(s, &c);
        for r in &res {
            hops += r.stats.hops as u64;
            evaluated += r.stats.evaluated as u64;
        }
        let s = tr.begin("reorder.finish", rid, req, &c);
        let res: Vec<SearchResult> = res.into_iter().map(|r| idx.serving().finish(r)).collect();
        tr.end(s, &c);
        tr.end(root, &c);
        check(b, &res);
        BATCH as u64
    };
    let (wp, wt) = common::alternate(run.seconds, plain, traced);
    let traced_queries = wt.queries as f64;
    out.attempted += wp.queries + wt.queries;

    // The same batches, coalesced and sequential, alternating which goes
    // first.
    let (mut coalesced_ns, mut sequential_ns) = (0u64, 0u64);
    let compare_batches = if run.smoke { nb } else { 2 * nb };
    for i in 0..compare_batches {
        let b = i % nb;
        let time = |coalesced: bool| {
            let t = Instant::now();
            let res = if coalesced {
                idx.search_coalesced(&batches[b], &p, &c)
            } else {
                batches[b].iter().map(|q| idx.search(q, &p, &c)).collect()
            };
            let ns = t.elapsed().as_nanos() as u64;
            check(b, &res);
            ns
        };
        if i % 2 == 0 {
            coalesced_ns += time(true);
            sequential_ns += time(false);
        } else {
            sequential_ns += time(false);
            coalesced_ns += time(true);
        }
    }
    out.attempted += (2 * compare_batches * BATCH) as u64;
    out.failed = failed.get();

    let agg = tr.aggregate(from);
    let per_query_us = |name: &str| agg[name].total_ns as f64 / 1e3 / traced_queries;
    let codes = idx.quantized().expect("quantized in set-up");
    out.metric("graphs.build_s", median(&tr.per_req_s("graphs.build", false)), "s");
    out.metric("graphs.build_dists", build_dists as f64, "count");
    out.metric("reorder.freeze_s", median(&tr.per_req_s("reorder.freeze", false)), "s");
    out.metric("reorder.finish_us", per_query_us("reorder.finish"), "us");
    out.metric("seed.select_us", per_query_us("seed.select"), "us");
    let seed = agg["seed.select"];
    out.metric(
        "seed.dists_per_query",
        (seed.f32_dists + seed.u8_dists) as f64 / traced_queries,
        "count",
    );
    out.metric("search.traverse_us", per_query_us("search.traverse"), "us");
    out.metric("search.hops_per_query", hops as f64 / traced_queries, "count");
    out.metric("search.evaluated_per_hop", evaluated as f64 / hops.max(1) as f64, "count");
    out.metric(
        "search.coalesced_batch_us",
        coalesced_ns as f64 / 1e3 / compare_batches as f64,
        "us",
    );
    out.metric(
        "search.coalesce_gain",
        sequential_ns as f64 / coalesced_ns.max(1) as f64,
        "ratio",
    );
    out.metric("distance.f32_dists_per_query", f32_dists, "count");
    out.metric(
        "distance.l2_batch_ns_d960",
        crate::kernels::l2_batch_ns(&data.base, &data.queries),
        "ns",
    );
    out.metric("quant.encode_s", median(&tr.per_req_s("quant.encode", false)), "s");
    out.metric("quant.prepare_ns", crate::kernels::prepare_ns(codes, &data.queries), "ns");
    out.metric("quant.u8_dists_per_query", u8_dists, "count");
    out.metric(
        "quant.rerank_f32_per_query",
        agg["search.traverse"].f32_dists as f64 / traced_queries,
        "count",
    );
    out.metric(
        "quant.sq8_batch_ns_d960",
        crate::kernels::code_batch_ns(codes, &data.queries),
        "ns",
    );
    out.metric("quant.code_mb", codes.heap_bytes() as f64 / 1e6, "MB");
    crate::finish_trace(&mut out, &tr, from, &wp, &wt, "gist-sq8-batch");
    out
}
