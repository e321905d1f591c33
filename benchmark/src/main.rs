//! The repository benchmark; `BENCHMARK.json` at the repository root
//! names its workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gist-sq8-batch --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run makes the workload's inputs from `--seed`, sets its index up
//! [`common::SETUPS`] times, checks every answer it measures, and prints
//! two lines: the run record (host, resolved configuration, seed, commit)
//! and, last, the result `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured without
//! spans; with `--trace 1` they are the per-layer ones, from spans the
//! benchmark records around its calls into the program's public stage
//! functions. Spans and the run record are also written under `.ledger/`
//! in the working directory. `--smoke` shrinks the inputs for the
//! benchmark's own tests.

mod common;
mod deep;
mod gist;
mod host;
mod kernels;
mod report;
mod sharded;
mod trace;

use common::{Run, Window};
use report::Outcome;

/// The end-to-end metrics and their units.
const END_TO_END: [(&str, &str); 8] = [
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("dists_per_query", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serving_mb", "MB"),
];

/// The per-layer metrics and their units, grouped by module.
const PER_LAYER: [(&str, &str); 40] = [
    ("graphs.build_s", "s"),
    ("graphs.build_dists", "count"),
    ("reorder.freeze_s", "s"),
    ("reorder.finish_us", "us"),
    ("seed.select_us", "us"),
    ("seed.dists_per_query", "count"),
    ("search.traverse_us", "us"),
    ("search.hops_per_query", "count"),
    ("search.evaluated_per_hop", "count"),
    ("search.coalesced_batch_us", "us"),
    ("search.coalesce_gain", "ratio"),
    ("distance.f32_dists_per_query", "count"),
    ("distance.l2_batch_ns_d96", "ns"),
    ("distance.l2_batch_ns_d960", "ns"),
    ("quant.encode_s", "s"),
    ("quant.prepare_ns", "ns"),
    ("quant.u8_dists_per_query", "count"),
    ("quant.rerank_f32_per_query", "count"),
    ("quant.sq8_batch_ns_d96", "ns"),
    ("quant.sq8_batch_ns_d960", "ns"),
    ("quant.code_mb", "MB"),
    ("sharded.partition_s", "s"),
    ("sharded.probes_per_query", "count"),
    ("sharded.probe_us", "us"),
    ("sharded.route_merge_us", "us"),
    ("persist.load_s", "s"),
    ("persist.artifact_mb", "MB"),
    ("serve.start_s", "s"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.execute_us_per_batch", "us"),
    ("serve.queue_hold_us", "us"),
    ("serve.codec_ns_per_frame", "ns"),
    ("serve.overloaded", "count"),
    ("serve.expired", "count"),
    ("serve.bad_requests", "count"),
    ("trace.stage_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// How far `trace.stage_sum_frac` may sit from 1: the spans' self times
/// must account for the traced loop's wall time within this share.
const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// Adds a measuring window's throughput and latency figures, and records
/// how many samples they rest on. The window's operations repeat a cycle
/// of `cycle` operations.
fn report_window(out: &mut Outcome, w: &Window, cycle: usize) {
    let f = w.figures(cycle);
    out.metric("qps", f.qps, "1/s");
    out.metric("latency_p50_us", f.p50_us, "us");
    out.metric("latency_p99_us", f.p99_us, "us");
    out.config(
        "samples",
        format!(
            "{{\"operations\":{},\"cycle\":{cycle},\"fast_repeats\":{},\"statistic\":\"each operation timed at the fast_repeats quantile of its repeats; qps over the cycle, p50 and p99 across it\"}}",
            w.lat_ns.len(),
            common::FAST_REPEATS,
        ),
    );
}

/// Adds the trace-validity metrics and checks, and writes the spans.
fn finish_trace(
    out: &mut Outcome,
    tr: &trace::Tracer,
    from: usize,
    plain: &Window,
    traced: &Window,
    workload: &str,
) {
    let frac = tr.stage_sum_ns(from) as f64 / traced.wall_ns.max(1) as f64;
    let violations = tr.nesting_violations();
    out.metric("trace.stage_sum_frac", frac, "ratio");
    out.metric("trace.overhead_frac", plain.qps() / traced.qps() - 1.0, "ratio");
    out.check(
        format!("trace.stage_sum_frac within {STAGE_SUM_TOLERANCE} of 1"),
        (frac - 1.0).abs() <= STAGE_SUM_TOLERANCE,
    );
    out.check("spans nest inside their parents", violations == 0);
    let path = common::out_dir().join(format!("{workload}.spans.tsv"));
    tr.write_tsv(&path).expect("write the spans");
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: gass-ledger --workload <deep-exact|gist-sq8-batch|sharded-serve> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Run) {
    let mut workload = None;
    let mut run = Run { seed: 1, seconds: 30.0, trace: false, smoke: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                run.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    usage("--seconds must be in (0, 3600]");
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (workload.unwrap_or_else(|| usage("--workload is required")), run)
}

fn main() {
    let (workload, run) = parse_args();
    let mut out = match workload.as_str() {
        "deep-exact" => deep::run(&run),
        "gist-sq8-batch" => gist::run(&run),
        "sharded-serve" => sharded::run(&run),
        other => usage(&format!("unknown workload {other}")),
    };
    // Keep exactly the metrics of the requested kind, in their listed
    // order; layers the workload does not run read 0 and are listed in
    // the run record.
    let wanted: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    for m in &out.metrics {
        assert!(wanted.iter().any(|(n, _)| *n == m.name), "metric {} not listed", m.name);
    }
    let mut metrics = std::mem::take(&mut out.metrics);
    for &(name, unit) in wanted {
        match metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = metrics.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                out.metrics.push(m);
            }
            None if run.trace => out.not_run(name, unit),
            None => panic!("end-to-end metric {name} not measured"),
        }
    }
    let record = host::record(&workload, &run, &out);
    let _ = std::fs::write(common::out_dir().join(format!("{workload}.record.json")), &record);
    println!("{record}");
    println!("{}", out.result_json());
}
