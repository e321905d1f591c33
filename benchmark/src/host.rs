//! The run record: host, resolved configuration, workload seed and commit.

use crate::report::{jstr, num, Outcome};

/// Size of the last-level cache as sysfs reports it for CPU 0.
fn llc() -> String {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(l, s)| format!("L{l} {s}"))
}

/// The commit of the source tree, when the working directory is the root
/// of a git checkout (and not a plain copy inside some other repository).
fn commit() -> String {
    std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// The run record as one JSON object.
pub fn record(workload: &str, run: &crate::common::Run, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("GASS_"))
        .map(|(k, v)| format!("{}:{}", jstr(&k), jstr(&v)))
        .collect();
    let config: Vec<String> =
        out.config.iter().map(|(k, v)| format!("{}:{v}", jstr(k))).collect();
    let checks: Vec<String> =
        out.checks.iter().map(|(what, ok)| format!("{}:{ok}", jstr(what))).collect();
    let not_run: Vec<String> = out.not_run.iter().map(|n| jstr(n)).collect();
    format!(
        concat!(
            "{{\"run_record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"commit\":{},\"host\":{{\"nproc\":{},\"simd_backend\":{},\"llc\":{},",
            "\"numa_nodes\":{}}},\"gass_env\":{{{}}},\"config\":{{{}}},",
            "\"checks\":{{{}}},\"not_run\":[{}]}}}}"
        ),
        jstr(workload),
        run.seed,
        num(run.seconds),
        run.trace,
        jstr(&commit()),
        nproc,
        jstr(gass_core::simd_backend()),
        jstr(&llc()),
        gass_core::num_nodes(),
        env.join(","),
        config.join(","),
        checks.join(","),
        not_run.join(","),
    )
}
