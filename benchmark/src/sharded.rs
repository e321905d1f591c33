//! `sharded-serve`: loopback `gass_serve::serve` over a `ShardedIndex`.
//!
//! Set-up partitions the Deep-like rows into 8 shards with
//! `build_to_dir`, reopens them with `ShardedIndex::load` (mapped
//! stores), freezes, encodes SQ8 and starts one server worker. Load is a
//! closed loop on one connection: it sends a burst of [`BURST`] queries,
//! one full batch, in one write, reads their replies, and sends the next
//! burst. A closed loop, because an open-loop sender on a small shared
//! host runs late by milliseconds and then measures the scheduler, not the
//! server. Bursts, because each is then the same batch of queries every
//! time it comes round, which the server executes as soon as it has read
//! it, so its round trip can be timed at the fast end of its repeats (see
//! `common::Figures`). Pipelined connections that kept requests in flight
//! fell into batch rhythms that differed from run to run: 5.4K to 8.9K
//! queries/s over five runs with 16 in flight, and with 48 in flight a
//! spread over ten seeds of about 0.15 of the median in throughput and in
//! both latencies. This is the only workload that runs the wire protocol,
//! queue, batching, executor, shard routing, merge, persisted load and the
//! k-means partition.

use crate::common::{self, params, Run, Window, SETUPS};
use crate::report::{median, Outcome};
use crate::trace::{Tracer, ROOT};
use gass_core::neighbor::{BoundedMaxHeap, Neighbor};
use gass_core::{
    beam_search_frozen, l2_sq, AnnIndex, CodecSpec, DistCounter, QueryParams, RandomSeeds,
    SearchResult, SearchScratch, SeedProvider, ShardedIndex, ShardedParams, Space, Termination,
    VectorStore,
};
use gass_graphs::HnswIndex;
use gass_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, queue_frame, read_frame,
};
use gass_serve::{serve, Client, QueryRequest, Request, Response, ServeConfig, ServerHandle};
use std::cell::{Cell, RefCell};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const NPROBE: usize = 2;
const L: usize = 48;
const SEED_COUNT: usize = 16;
const RERANK: usize = 4;
/// `ShardedIndex::load` serves every shard with
/// `RandomSeeds::per_query(len, 7)`; the traced replay draws its seeds
/// from an equal provider, and the answer check confirms they agree.
const LOAD_SEED_KEY: u64 = 7;
/// Queries per burst: the server's `max_batch`.
const BURST: usize = 16;
const RECALL_FLOOR: f64 = 0.9;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: BURST,
        term: Some(Termination::FIXED),
        ..ServeConfig::default()
    }
}

/// A set-up's server, its index and the directory the shards live in.
struct Served {
    index: Arc<ShardedIndex>,
    handle: ServerHandle,
    dir: PathBuf,
}

impl Served {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        drop(self.index);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Base vectors in memory -> partitioned, persisted, reloaded, frozen,
/// SQ8-encoded index behind a running server.
fn setup(base: &VectorStore, rep: u64, tr: &RefCell<Tracer>, c: &DistCounter) -> (Served, u64) {
    let dir = common::out_dir().join(format!("shards-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hp = crate::deep::hnsw_params();
    let build_dists = Cell::new(0u64);
    let span = |name, parent| tr.borrow_mut().begin(name, parent, rep, c);
    let root = span("setup", ROOT);
    let rid = Tracer::id(&root);
    let s = span("sharded.build_to_dir", rid);
    let bid = Tracer::id(&s);
    let sp = ShardedParams::new(SHARDS).with_nprobe(NPROBE);
    ShardedIndex::build_to_dir(base, &sp, c, &dir, |_, sub| {
        let b = span("graphs.build", bid);
        let h = HnswIndex::build(sub.clone(), hp);
        tr.borrow_mut().end(b, c);
        build_dists.set(build_dists.get() + h.build_report().dist_calcs);
        let seeds: Box<dyn SeedProvider> =
            Box::new(RandomSeeds::per_query(sub.len(), LOAD_SEED_KEY));
        (h.base_graph().clone(), seeds)
    })
    .expect("write the sharded index");
    tr.borrow_mut().end(s, c);
    let s = span("persist.load", rid);
    let mut idx = ShardedIndex::load(&dir).expect("load the sharded index");
    tr.borrow_mut().end(s, c);
    let s = span("reorder.freeze", rid);
    idx.freeze();
    tr.borrow_mut().end(s, c);
    let s = span("quant.encode", rid);
    idx.quantize(CodecSpec::Sq8);
    tr.borrow_mut().end(s, c);
    idx.set_nprobe(NPROBE);
    let s = span("serve.start", rid);
    let index = Arc::new(idx);
    let handle = serve(index.clone(), serve_config()).expect("start the server");
    Client::connect(handle.addr()).and_then(|mut cl| cl.ping()).expect("ping the server");
    tr.borrow_mut().end(s, c);
    tr.borrow_mut().end(root, c);
    (Served { index, handle, dir }, build_dists.get())
}

/// Sends burst `i % (frames.len() / BURST)` for `i = 0, 1, …` until
/// `seconds` have passed, each burst's frames in one write on one
/// connection, and reads its replies before the next. Returns the bursts'
/// round trips and the queries that failed: a reply that differs from
/// `reference`, an error reply, or no reply because the connection broke.
fn bursts(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    reference: &[SearchResult],
    seconds: f64,
) -> (Window, u64) {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut w = BufWriter::new(stream.try_clone().expect("clone the socket"));
    let mut r = BufReader::new(stream);
    let cycle = frames.len() / BURST;
    let (mut failed, mut broken) = (0u64, false);
    let (window, _) = common::closed_loop(seconds, 0, |i| {
        let first = (i % cycle) * BURST;
        let queries = first..first + BURST;
        if !broken {
            broken = !(frames[queries.clone()].iter().all(|f| queue_frame(&mut w, f).is_ok())
                && w.flush().is_ok());
        }
        for qi in queries {
            let right = !broken
                && match read_frame(&mut r) {
                    Ok(Some(payload)) => match decode_response(&payload) {
                        Ok(Response::Neighbors(ns)) => {
                            let expect = &reference[qi].neighbors;
                            ns.len() == expect.len()
                                && ns.iter().zip(expect).all(|(&(id, d), e)| {
                                    id == e.id && d.to_bits() == e.dist.to_bits()
                                })
                        }
                        _ => false,
                    },
                    _ => {
                        broken = true;
                        false
                    }
                };
            failed += u64::from(!right);
        }
        BURST as u64
    });
    (window, failed)
}

/// Reads `"key":<number>` from the stats document, searching from the
/// end of `after` (a key that opens the enclosing object) when given.
fn stat(json: &str, after: Option<&str>, key: &str) -> f64 {
    let from = after.and_then(|a| json.find(&format!("\"{a}\""))).unwrap_or(0);
    let pat = format!("\"{key}\":");
    let at =
        json[from..].find(&pat).map(|i| from + i + pat.len()).expect("stats field present");
    let end = json[at..].find([',', '}']).map_or(json.len(), |i| at + i);
    json[at..end].parse().expect("numeric stats field")
}

fn query_request(q: &[f32], p: &QueryParams) -> Request {
    Request::Query(QueryRequest {
        k: p.k,
        beam_width: p.beam_width,
        seed_count: p.seed_count,
        rerank_factor: p.rerank_factor,
        deadline_us: 0,
        query: q.to_vec(),
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

pub fn run(run: &Run) -> Outcome {
    let (n, held, noisy) = if run.smoke { (4_000, 48, 16) } else { (50_000, 750, 250) };
    let data = common::deep_data(n, held, noisy, run.seed);
    let gt = common::truth(&data);
    let nq = data.queries.len();
    let p = params(L, SEED_COUNT, RERANK);
    let c = DistCounter::new();
    let tr = RefCell::new(Tracer::new());
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut served = None;
    let mut build_dists = 0;
    for rep in 0..SETUPS as u64 {
        if let Some(s) = served.take() {
            Served::stop(s);
        }
        let t = Instant::now();
        let (s, dists) = setup(&data.base, rep, &tr, &c);
        setups.push(common::secs(t));
        build_dists = dists;
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let index = Arc::clone(&served.index);
    let artifact_mb = dir_bytes(&served.dir) as f64 / 1e6;

    // In-process reference answers on the loaded index: the wire answers
    // must equal them.
    c.reset();
    let mut probes = 0;
    let reference: Vec<SearchResult> = (0..nq as u32)
        .map(|q| {
            let (res, used) = index.search_with_probes(data.queries.get(q), &p, &c);
            probes += used;
            res
        })
        .collect();
    let dists = c.get() as f64 / nq as f64;
    let (f32_dists, u8_dists) = (c.get_f32() as f64 / nq as f64, c.get_u8() as f64 / nq as f64);
    let recall = common::recall(&gt, &reference);
    out.attempted += nq as u64;
    out.check(format!("recall_at_10 >= {RECALL_FLOOR}"), recall >= RECALL_FLOOR);
    let frames: Vec<Vec<u8>> = (0..nq as u32)
        .map(|q| encode_request(&query_request(data.queries.get(q), &p)))
        .collect();
    let addr = served.handle.addr();

    let cfg = serve_config();
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
        "{{\"kind\":\"ShardedIndex\",\"shards\":{SHARDS},\"nprobe\":{NPROBE},\"per_shard\":\"HnswIndex base layer, m 16, ef_construction 128, threads 1\",\"persist\":\"build_to_dir + load (mapped stores)\",\"layout\":\"frozen csr\",\"codec\":\"sq8\",\"seeds\":\"RandomSeeds::per_query\",\"fanout_workers\":{}}}",
        gass_core::fanout_workers()
    ));
    out.config("params", common::params_json(&p));
    out.config("serve", format!(
        "{{\"workers\":{},\"max_batch\":{},\"max_wait_us\":{},\"queue_depth\":{},\"termination\":\"fixed\"}}",
        cfg.workers, cfg.max_batch, cfg.max_wait_us, cfg.queue_depth
    ));
    out.config(
        "load",
        format!("\"closed loop, 1 connection, bursts of {BURST} queries in one write\""),
    );

    let wire_seconds = if run.trace { run.seconds / 2.0 } else { run.seconds };
    let (wire, wire_failed) = bursts(addr, &frames, &reference, wire_seconds);
    out.attempted += wire.queries;
    out.failed += wire_failed;
    let stats =
        Client::connect(addr).and_then(|mut cl| cl.stats()).expect("fetch server stats");

    if !run.trace {
        served.stop();
        crate::report_window(&mut out, &wire, nq / BURST);
        out.metric("recall_at_10", recall, "ratio");
        out.metric("dists_per_query", dists, "count");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        let st = index.stats();
        let vectors: usize = (0..index.num_shards())
            .map(|s| {
                index.shard(s).store().heap_bytes() + index.shard(s).store().mapped_bytes()
            })
            .sum();
        out.metric("serving_mb", (vectors + st.graph_bytes + st.aux_bytes) as f64 / 1e6, "MB");
        return out;
    }

    // Traced replay of `search_with_probes`: route, then per probed shard
    // the stages of its `PrebuiltIndex` search, then the merge.
    let mut tr = tr.into_inner();
    let failed = Cell::new(0u64);
    let check = |qi: usize, r: &[Neighbor]| {
        if !common::same_answer(r, &reference[qi].neighbors) {
            failed.set(failed.get() + 1);
        }
    };
    let plain = |i: usize| {
        let qi = i % nq;
        check(qi, &index.search(data.queries.get(qi as u32), &p, &c).neighbors);
        1
    };
    let providers: Vec<RandomSeeds> = (0..index.num_shards())
        .map(|s| RandomSeeds::per_query(index.shard(s).num_vectors(), LOAD_SEED_KEY))
        .collect();
    let mut scratch = SearchScratch::new(0, L);
    let mut seeds = Vec::new();
    let (mut hops, mut evaluated, mut probe_count) = (0u64, 0u64, 0u64);
    let from = tr.len();
    let traced = |i: usize| {
        let qi = i % nq;
        let q = data.queries.get(qi as u32);
        let req = i as u64;
        let root = tr.begin("query", ROOT, req, &c);
        let rid = Tracer::id(&root);
        let s = tr.begin("sharded.route", rid, req, &c);
        let centroids = index.centroids();
        let mut plan: Vec<(f32, usize)> = (0..index.num_shards())
            .map(|s| {
                c.bump();
                (l2_sq(q, centroids.get(s as u32)), s)
            })
            .collect();
        plan.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        plan.truncate(index.nprobe());
        tr.end(s, &c);
        let mut heap = BoundedMaxHeap::new(p.k);
        for &(_, s) in &plan {
            let shard = index.shard(s);
            let probe = tr.begin("sharded.probe", rid, req, &c);
            let pid = Tracer::id(&probe);
            let space =
                Space::new(shard.store(), &c).with_quant(shard.serving().quant_view(&p));
            let t = tr.begin("seed.select", pid, req, &c);
            seeds.clear();
            providers[s].seeds(space, q, p.seed_count, &mut seeds);
            tr.end(t, &c);
            let t = tr.begin("search.traverse", pid, req, &c);
            scratch.prepare(shard.num_vectors(), p.beam_width);
            let res = beam_search_frozen(
                shard.graph(),
                shard.serving().csr(),
                space,
                q,
                &seeds,
                p.k,
                p.beam_width,
                &mut scratch,
                p.termination(),
            );
            tr.end(t, &c);
            hops += res.stats.hops as u64;
            evaluated += res.stats.evaluated as u64;
            let t = tr.begin("reorder.finish", pid, req, &c);
            let res = shard.serving().finish(res);
            tr.end(t, &c);
            tr.end(probe, &c);
            probe_count += 1;
            let m = tr.begin("sharded.merge", rid, req, &c);
            let to_global = index.shard_ids(s);
            for nb in res.neighbors {
                heap.push(Neighbor::new(to_global[nb.id as usize], nb.dist));
            }
            tr.end(m, &c);
        }
        let found = heap.into_sorted();
        tr.end(root, &c);
        check(qi, &found);
        1
    };
    let (wp, wt) = common::alternate(run.seconds / 2.0, plain, traced);
    out.attempted += (wp.lat_ns.len() + wt.lat_ns.len()) as u64;
    let traced_queries = wt.queries as f64;

    // The server's own view of the wire window, from its stats op.
    let server_mean = stat(&stats, Some("latency_us"), "mean");
    let mean_batch = stat(&stats, None, "mean_batch");
    let client_mean_us =
        wire.lat_ns.iter().sum::<u64>() as f64 / 1e3 / wire.lat_ns.len().max(1) as f64;

    // `execute_coalesced` replayed at the batch size the server saw.
    let batch = (mean_batch.round() as usize).max(1);
    let reps = if run.smoke { 8 } else { 200 };
    let mut exec_ns = 0u64;
    for r in 0..reps {
        let ids: Vec<usize> = (0..batch).map(|j| (r * batch + j) % nq).collect();
        let jobs: Vec<(Vec<f32>, QueryParams)> =
            ids.iter().map(|&qi| (data.queries.get(qi as u32).to_vec(), p)).collect();
        let t = Instant::now();
        let res = gass_serve::execute_coalesced(index.as_ref(), &jobs, &c);
        exec_ns += t.elapsed().as_nanos() as u64;
        for (&qi, r) in ids.iter().zip(&res) {
            check(qi, &r.neighbors);
        }
        out.attempted += batch as u64;
    }
    let execute_us = exec_ns as f64 / 1e3 / reps as f64;

    // Frame codec in isolation: one query frame and one reply frame, each
    // encoded and decoded.
    let requests: Vec<Request> =
        (0..nq as u32).map(|q| query_request(data.queries.get(q), &p)).collect();
    let replies: Vec<Response> = reference
        .iter()
        .map(|r| Response::Neighbors(r.neighbors.iter().map(|n| (n.id, n.dist)).collect()))
        .collect();
    let rounds = if run.smoke { 1_000 } else { 50_000 };
    let t = Instant::now();
    for i in 0..rounds {
        let req =
            decode_request(&encode_request(&requests[i % nq])).expect("request round trip");
        let rep =
            decode_response(&encode_response(&replies[i % nq])).expect("reply round trip");
        std::hint::black_box((req, rep));
    }
    let codec_ns = t.elapsed().as_nanos() as f64 / (2 * rounds) as f64;
    served.stop();
    out.failed += failed.get();

    let agg = tr.aggregate(from);
    let per_query_us = |name: &str| agg[name].total_ns as f64 / 1e3 / traced_queries;
    let codes = index.shard(0).quantized().expect("quantized in set-up");
    let code_bytes: usize = (0..index.num_shards())
        .map(|s| index.shard(s).quantized().map_or(0, |q| q.heap_bytes()))
        .sum();
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
    out.metric("distance.f32_dists_per_query", f32_dists, "count");
    out.metric(
        "distance.l2_batch_ns_d96",
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
        "quant.sq8_batch_ns_d96",
        crate::kernels::code_batch_ns(codes, &data.queries),
        "ns",
    );
    out.metric("quant.code_mb", code_bytes as f64 / 1e6, "MB");
    out.metric("sharded.partition_s", median(&tr.per_req_s("sharded.build_to_dir", true)), "s");
    out.metric("sharded.probes_per_query", probes as f64 / nq as f64, "count");
    out.metric(
        "sharded.probe_us",
        agg["sharded.probe"].total_ns as f64 / 1e3 / probe_count.max(1) as f64,
        "us",
    );
    out.metric(
        "sharded.route_merge_us",
        per_query_us("sharded.route") + per_query_us("sharded.merge"),
        "us",
    );
    out.metric("persist.load_s", median(&tr.per_req_s("persist.load", false)), "s");
    out.metric("persist.artifact_mb", artifact_mb, "MB");
    out.metric("serve.start_s", median(&tr.per_req_s("serve.start", false)), "s");
    out.metric("serve.server_p50_us", stat(&stats, Some("latency_us"), "p50"), "us");
    out.metric("serve.server_p99_us", stat(&stats, Some("latency_us"), "p99"), "us");
    out.metric("serve.wire_us", client_mean_us - server_mean, "us");
    out.metric("serve.mean_batch", mean_batch, "count");
    out.metric("serve.execute_us_per_batch", execute_us, "us");
    out.metric("serve.queue_hold_us", server_mean - execute_us, "us");
    out.metric("serve.codec_ns_per_frame", codec_ns, "ns");
    out.metric("serve.overloaded", stat(&stats, None, "overloaded"), "count");
    out.metric("serve.expired", stat(&stats, None, "deadline_expired"), "count");
    out.metric("serve.bad_requests", stat(&stats, None, "bad_requests"), "count");
    crate::finish_trace(&mut out, &tr, from, &wp, &wt, "sharded-serve");
    out
}
