//! Pieces every workload shares: inputs made from the seed, query
//! parameters, answer checks, the closed measuring loop, and memory
//! readings.

use gass_core::neighbor::Neighbor;
use gass_core::{QueryParams, SearchResult, Termination, VectorStore};
use std::time::Instant;

/// Neighbors per query, as in the paper.
pub const K: usize = 10;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How one invocation was asked to run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// Query parameters with the termination policy pinned to `Fixed`, so a
/// `GASS_TERM` or `GASS_MAX_DISTS` variable in the environment cannot
/// change what a workload measures.
pub fn params(l: usize, seed_count: usize, rerank_factor: usize) -> QueryParams {
    QueryParams::new(K, l)
        .with_seed_count(seed_count)
        .with_rerank_factor(rerank_factor)
        .with_term(Termination::FIXED.policy)
        .with_max_dists(0)
}

/// `QueryParams` as run-record JSON.
pub fn params_json(p: &QueryParams) -> String {
    format!(
        "{{\"k\":{},\"L\":{},\"seed_count\":{},\"rerank_factor\":{},\"termination\":\"{}\",\"max_dists\":{}}}",
        p.k, p.beam_width, p.seed_count, p.rerank_factor, p.term, p.max_dists
    )
}

/// Base vectors plus queries drawn from the same generator stream.
pub struct Data {
    pub base: VectorStore,
    pub queries: VectorStore,
}

/// Seed of the generator stream (cluster centres, manifold basis and
/// rows). It is fixed: the base is the stream's first `n` rows, and the
/// workload seed picks the queries from the rows after them and perturbs
/// the hard ones. Every seed then measures the same index on a fresh
/// in-distribution query sample, so runs with different seeds compare.
const STREAM_SEED: u64 = 42;

/// Rows after the base that held-out queries are drawn from, per query.
const POOL_PER_QUERY: usize = 4;

/// The first `n` rows of `all` as the base, and `held` rows the seed picks
/// from the `POOL_PER_QUERY * held` rows after them as queries.
fn split(all: &VectorStore, n: usize, held: usize, seed: u64) -> Data {
    let head: Vec<u32> = (0..n as u32).collect();
    let tail: Vec<u32> = (n as u32..all.len() as u32).collect();
    let (_, queries) = gass_data::queries::holdout_split(&all.subset(&tail), held, seed);
    Data { base: all.subset(&head), queries }
}

/// Deep-like 96-d data: `n` base rows, `held` in-distribution queries
/// from the same stream, and `noisy` hard queries made by perturbing base
/// rows (the paper's Fig. 15 hardness protocol).
pub fn deep_data(n: usize, held: usize, noisy: usize, seed: u64) -> Data {
    let all = gass_data::synth::deep_like(n + POOL_PER_QUERY * held, STREAM_SEED);
    let mut data = split(&all, n, held, seed);
    let hard =
        gass_data::queries::noisy_queries(&data.base, noisy, NOISE_SIGMA2, seed ^ 0x9e37);
    for i in 0..hard.len() as u32 {
        data.queries.push(hard.get(i));
    }
    data
}

/// Noise variance of the hard queries: the "10%" set of Fig. 15.
pub const NOISE_SIGMA2: f32 = 0.1;

/// Gist-like 960-d data: `n` base rows and `held` in-distribution
/// queries from the same stream.
pub fn gist_data(n: usize, held: usize, seed: u64) -> Data {
    let all = gass_data::synth::gist_like(n + POOL_PER_QUERY * held, STREAM_SEED);
    split(&all, n, held, seed)
}

/// Exact top-`K` of every query.
pub fn truth(data: &Data) -> Vec<Vec<Neighbor>> {
    gass_data::ground_truth::ground_truth(&data.base, &data.queries, K)
}

/// Mean recall@K of `found` against `truth`, as the repository's
/// harnesses compute it.
pub fn recall(truth: &[Vec<Neighbor>], found: &[SearchResult]) -> f64 {
    let sum: f64 =
        truth.iter().zip(found).map(|(t, f)| gass_eval::recall_at_k(t, &f.neighbors, K)).sum();
    sum / truth.len() as f64
}

/// Same ids and bit-identical distances, in the same order.
pub fn same_answer(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// The samples of one measuring window.
#[derive(Default)]
pub struct Window {
    /// Per-operation latency, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Queries answered (an operation may answer several).
    pub queries: u64,
    pub wall_ns: u64,
}

/// Share of an operation's repeats that ran faster than the time it is
/// reported at. A run repeats each operation a few hundred times.
pub const FAST_REPEATS: f64 = 0.01;

/// A window's reported figures.
///
/// A small shared host lends the program a capacity that shifts by about
/// a fifth, in spells of seconds to minutes, as other tenants' load comes
/// and goes, and a whole run can fall in a slow spell. Sharing can only
/// slow the program, and even a slow spell leaves it moments at full
/// speed. The measuring loops repeat a fixed cycle of operations, each the
/// same work every time it comes round, so each operation is timed at the
/// [`FAST_REPEATS`] quantile of its own repeats: its latency with the host
/// disturbing it least. `qps` is the queries of one cycle over the sum of
/// those times, and `p50_us` and `p99_us` are their percentiles over the
/// cycle, so the tail is that of the queries' own hardness (over a cycle
/// of fewer than 100 operations, `p99_us` is the slowest operation's
/// time). These move far less from run to run than figures over all the
/// window's samples do; they leave out stalls that strike only some
/// repeats of an operation, whether the host or the program causes them.
pub struct Figures {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Window {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Appends `other`, which began when `self` ended.
    pub fn merge(&mut self, other: Window) {
        self.lat_ns.extend(other.lat_ns);
        self.queries += other.queries;
        self.wall_ns += other.wall_ns;
    }

    /// The window's [`Figures`], for a window whose `j`-th operation is
    /// the same work as every `j + cycle`-th.
    pub fn figures(&self, cycle: usize) -> Figures {
        assert!(cycle > 0, "a cycle of no operations");
        let mut repeats: Vec<Vec<u64>> = vec![Vec::new(); cycle];
        for (j, &l) in self.lat_ns.iter().enumerate() {
            repeats[j % cycle].push(l);
        }
        let mut fast: Vec<u64> = repeats
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|mut r| crate::report::quantile(&mut r, FAST_REPEATS))
            .collect();
        if fast.is_empty() {
            return Figures { qps: 0.0, p50_us: 0.0, p99_us: 0.0 };
        }
        let per_op = self.queries as f64 / self.lat_ns.len() as f64;
        let cycle_ns = fast.iter().sum::<u64>().max(1) as f64;
        Figures {
            qps: fast.len() as f64 * per_op / (cycle_ns / 1e9),
            p50_us: crate::report::quantile(&mut fast, 0.50) as f64 / 1e3,
            p99_us: crate::report::quantile(&mut fast, 0.99) as f64 / 1e3,
        }
    }
}

/// Calls `op(i)` for `i = first, first+1, …` until `seconds` have passed,
/// timing each call. `op` returns how many queries it answered. Returns
/// the window and the next index.
pub fn closed_loop(
    seconds: f64,
    first: usize,
    mut op: impl FnMut(usize) -> u64,
) -> (Window, usize) {
    let start = Instant::now();
    let limit = (seconds * 1e9) as u64;
    let mut w = Window { lat_ns: Vec::with_capacity(1 << 16), ..Default::default() };
    let mut i = first;
    let mut prev = start;
    loop {
        w.queries += op(i);
        let now = Instant::now();
        let done = now.duration_since(start).as_nanos() as u64;
        w.lat_ns.push(now.duration_since(prev).as_nanos() as u64);
        prev = now;
        i += 1;
        if done >= limit {
            w.wall_ns = done;
            return (w, i);
        }
    }
}

/// Length of one block when a traced run alternates plain and traced
/// blocks, so slow drift of the host weighs on both alike.
pub const ALTERNATE_S: f64 = 0.5;

/// Runs `plain` and `traced` in alternating blocks for `seconds` in total.
pub fn alternate(
    seconds: f64,
    mut plain: impl FnMut(usize) -> u64,
    mut traced: impl FnMut(usize) -> u64,
) -> (Window, Window) {
    let blocks = ((seconds / (2.0 * ALTERNATE_S)).round() as usize).max(1);
    let block = seconds / (2 * blocks) as f64;
    let (mut wp, mut wt) = (Window::default(), Window::default());
    let (mut ip, mut it) = (0, 0);
    for _ in 0..blocks {
        let (w, next) = closed_loop(block, ip, &mut plain);
        wp.merge(w);
        ip = next;
        let (w, next) = closed_loop(block, it, &mut traced);
        wt.merge(w);
        it = next;
    }
    (wp, wt)
}

/// The process's resident-set high-water mark (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Seconds as `f64`.
pub fn secs(from: Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

/// The benchmark's own output directory, in the working directory.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".ledger");
    std::fs::create_dir_all(&dir).expect("create the .ledger output directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed loop of back-to-back operations with the given latencies,
    /// each answering two queries.
    fn window(lat_us: &[u64]) -> Window {
        let mut w = Window::default();
        for &l in lat_us {
            w.wall_ns += l * 1000;
            w.lat_ns.push(l * 1000);
            w.queries += 2;
        }
        w
    }

    #[test]
    fn figures_time_each_operation_at_the_fast_end_of_its_repeats() {
        // A cycle of three operations, 1, 2 and 4 ms, repeated 20 times;
        // a slow spell doubles the last 15 repeats. Each operation reads
        // at the fast end of its repeats.
        let mut lat = Vec::new();
        for r in 0..20 {
            let slow = if r < 5 { 1 } else { 2 };
            lat.extend([1000 * slow, 2000 * slow, 4000 * slow]);
        }
        let f = window(&lat).figures(3);
        // Six queries per 7 ms cycle.
        assert!((f.qps - 6.0 / 0.007).abs() < 1e-9, "qps {}", f.qps);
        assert_eq!((f.p50_us, f.p99_us), (2000.0, 4000.0));
    }
}
