//! `deep-exact`: the paper's own protocol. One caller thread issues
//! sequential `AnnIndex::search` calls, closed loop, against a serial
//! full-precision HNSW frozen to CSR. HNSW descent, beam traversal and the
//! f32 kernel do all the work; no codec, rerank, shard or serve code runs.
//!
//! It runs by name but is not listed in `BENCHMARK.json`. On a 2-vCPU
//! shared host its throughput moved between about 13K and 22K queries/s
//! from run to run, and with it the memory-latency-bound search time per
//! query, so the spread of its timings over ten seeds (0.28 and 0.32 of
//! the median in two sets) exceeded the largest bound the benchmark may
//! set. Those timings were medians over 1000-query blocks, before the
//! figures were read at the fast end of each query's repeats; a third
//! listed workload would also not fit the time all runs of the benchmark
//! may take at its run length.

use crate::common::{self, closed_loop, params, Run, K, SETUPS};
use crate::report::{median, Outcome};
use crate::trace::{Tracer, ROOT};
use gass_core::{beam_search_frozen, AnnIndex, DistCounter, SearchScratch, Space};
use gass_graphs::{HnswIndex, HnswParams};
use std::cell::Cell;
use std::time::Instant;

/// Beam width. At 100K base rows and held-out queries it gave recall@10
/// 0.9948 on the seed commit; the floor below leaves room for the hard
/// queries.
const L: usize = 48;
const RECALL_FLOOR: f64 = 0.95;

pub fn hnsw_params() -> HnswParams {
    HnswParams { m: 16, ef_construction: 128, seed: 42, threads: 1 }
}

pub fn run(run: &Run) -> Outcome {
    let (n, held, noisy) = if run.smoke { (2_000, 48, 16) } else { (50_000, 750, 250) };
    let data = common::deep_data(n, held, noisy, run.seed);
    let gt = common::truth(&data);
    let nq = data.queries.len();
    let p = params(L, K, 1);
    let hp = hnsw_params();
    let c = DistCounter::new();
    let mut tr = Tracer::new();
    let mut out = Outcome::default();

    // Set-up: base vectors in memory -> built, frozen index.
    let mut setups = Vec::new();
    let mut index = None;
    for rep in 0..SETUPS as u64 {
        drop(index.take());
        let store = data.base.clone();
        let t = Instant::now();
        let root = tr.begin("setup", ROOT, rep, &c);
        let s = tr.begin("graphs.build", Tracer::id(&root), rep, &c);
        let mut idx = HnswIndex::build(store, hp);
        tr.end(s, &c);
        let s = tr.begin("reorder.freeze", Tracer::id(&root), rep, &c);
        idx.freeze();
        tr.end(s, &c);
        tr.end(root, &c);
        setups.push(common::secs(t));
        index = Some(idx);
    }
    let idx = index.expect("at least one set-up");

    // Reference answers, recall and distance counts: one pass in order.
    c.reset();
    let reference: Vec<_> =
        (0..nq as u32).map(|q| idx.search(data.queries.get(q), &p, &c)).collect();
    let dists = c.get() as f64 / nq as f64;
    let f32_dists = c.get_f32() as f64 / nq as f64;
    let recall = common::recall(&gt, &reference);
    out.attempted += nq as u64;
    out.check(format!("recall_at_10 >= {RECALL_FLOOR}"), recall >= RECALL_FLOOR);

    let failed = Cell::new(0u64);
    let check = |qi: usize, r: &gass_core::SearchResult| {
        if !common::same_answer(&r.neighbors, &reference[qi].neighbors) {
            failed.set(failed.get() + 1);
        }
    };
    let plain = |i: usize| {
        let qi = i % nq;
        check(qi, &idx.search(data.queries.get(qi as u32), &p, &c));
        1
    };

    out.config("n", n.to_string());
    out.config("dim", "96".to_string());
    out.config(
        "queries",
        format!(
            "{{\"held_out\":{held},\"noisy\":{noisy},\"noisy_sigma2\":{}}}",
            common::NOISE_SIGMA2
        ),
    );
    out.config("index", format!(
        "{{\"kind\":\"HnswIndex\",\"m\":{},\"ef_construction\":{},\"threads\":{},\"layout\":\"frozen csr\",\"codec\":\"none\",\"seeds\":\"hierarchy descent\"}}",
        hp.m, hp.ef_construction, hp.threads
    ));
    out.config("params", common::params_json(&p));
    out.config("load", "\"1 caller thread, closed loop, sequential search\"".to_string());

    if !run.trace {
        let (w, _) = closed_loop(run.seconds, 0, plain);
        out.attempted += w.lat_ns.len() as u64;
        out.failed = failed.get();
        crate::report_window(&mut out, &w, nq);
        out.metric("recall_at_10", recall, "ratio");
        out.metric("dists_per_query", dists, "count");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        let st = idx.stats();
        let vectors = idx.store().heap_bytes() + idx.store().mapped_bytes();
        out.metric("serving_mb", (vectors + st.graph_bytes + st.aux_bytes) as f64 / 1e6, "MB");
        return out;
    }

    // Traced replay of `HnswIndex::search` through its public stages.
    let mut scratch = SearchScratch::new(n, L);
    let (mut hops, mut evaluated) = (0u64, 0u64);
    let from = tr.len();
    let traced = |i: usize| {
        let qi = i % nq;
        let q = data.queries.get(qi as u32);
        let req = i as u64;
        let root = tr.begin("query", ROOT, req, &c);
        let rid = Tracer::id(&root);
        let space = Space::new(idx.store(), &c).with_quant(idx.serving().quant_view(&p));
        let s = tr.begin("seed.select", rid, req, &c);
        let entry = idx
            .hierarchy()
            .descend_budgeted(space, q, p.max_dists)
            .unwrap_or_else(|| idx.serving().to_new(0));
        tr.end(s, &c);
        let s = tr.begin("search.traverse", rid, req, &c);
        scratch.prepare(n, p.beam_width);
        let res = beam_search_frozen(
            idx.base_graph(),
            idx.serving().csr(),
            space,
            q,
            &[entry],
            p.k,
            p.beam_width,
            &mut scratch,
            p.termination(),
        );
        tr.end(s, &c);
        hops += res.stats.hops as u64;
        evaluated += res.stats.evaluated as u64;
        let s = tr.begin("reorder.finish", rid, req, &c);
        let res = idx.serving().finish(res);
        tr.end(s, &c);
        tr.end(root, &c);
        check(qi, &res);
        1
    };
    let (wp, wt) = common::alternate(run.seconds, plain, traced);
    out.attempted += (wp.lat_ns.len() + wt.lat_ns.len()) as u64;
    out.failed = failed.get();
    let agg = tr.aggregate(from);
    let ops = wt.lat_ns.len() as f64;
    let seed = agg["seed.select"];

    out.metric("graphs.build_s", median(&tr.per_req_s("graphs.build", false)), "s");
    out.metric("graphs.build_dists", idx.build_report().dist_calcs as f64, "count");
    out.metric("reorder.freeze_s", median(&tr.per_req_s("reorder.freeze", false)), "s");
    out.metric("reorder.finish_us", agg["reorder.finish"].mean_us(), "us");
    out.metric("seed.select_us", seed.mean_us(), "us");
    out.metric("seed.dists_per_query", (seed.f32_dists + seed.u8_dists) as f64 / ops, "count");
    out.metric("search.traverse_us", agg["search.traverse"].mean_us(), "us");
    out.metric("search.hops_per_query", hops as f64 / ops, "count");
    out.metric("search.evaluated_per_hop", evaluated as f64 / hops.max(1) as f64, "count");
    out.metric("distance.f32_dists_per_query", f32_dists, "count");
    out.metric(
        "distance.l2_batch_ns_d96",
        crate::kernels::l2_batch_ns(&data.base, &data.queries),
        "ns",
    );
    crate::finish_trace(&mut out, &tr, from, &wp, &wt, "deep-exact");
    out
}
