//! Distance kernels timed in isolation on a workload's own rows and
//! queries.
//!
//! Each figure is the median, over [`REPEATS`] passes, of the mean time
//! per call in one pass of [`CALLS`] calls.

use gass_core::quant::{CodecStore, PreparedQuery};
use gass_core::{l2_sq_batch, VectorStore};
use std::hint::black_box;
use std::time::Instant;

const CALLS: usize = 1 << 15;
const REPEATS: usize = 5;

fn per_call_ns(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    crate::report::median(&times)
}

/// Row ids of the `c`-th four-row group, walking the base in order.
fn group(c: usize, n: usize) -> [u32; 4] {
    let b = (c * 4) % (n - 3);
    [b as u32, b as u32 + 1, b as u32 + 2, b as u32 + 3]
}

/// `l2_sq_batch`: one query against four base rows.
pub fn l2_batch_ns(base: &VectorStore, queries: &VectorStore) -> f64 {
    let (n, nq) = (base.len(), queries.len());
    per_call_ns(|| {
        for c in 0..CALLS {
            let q = queries.get((c % nq) as u32);
            let ids = group(c, n);
            black_box(l2_sq_batch(black_box(q), ids.map(|i| base.get(i))));
        }
    })
}

/// `CodecStore::prepare_into`: maps one query into code space.
pub fn prepare_ns(codes: &dyn CodecStore, queries: &VectorStore) -> f64 {
    let nq = queries.len();
    let mut pq = PreparedQuery::default();
    per_call_ns(|| {
        for c in 0..CALLS {
            codes.prepare_into(black_box(queries.get((c % nq) as u32)), &mut pq);
            black_box(&pq);
        }
    })
}

/// `CodecStore::dist_prepared_batch`: one prepared query against four
/// code rows.
pub fn code_batch_ns(codes: &dyn CodecStore, queries: &VectorStore) -> f64 {
    let (n, nq) = (codes.len(), queries.len());
    let prepared: Vec<PreparedQuery> = (0..nq as u32)
        .map(|q| {
            let mut pq = PreparedQuery::default();
            codes.prepare_into(queries.get(q), &mut pq);
            pq
        })
        .collect();
    per_call_ns(|| {
        for c in 0..CALLS {
            let pq = &prepared[c % nq];
            black_box(codes.dist_prepared_batch(black_box(pq), group(c, n)));
        }
    })
}
