//! In-memory spans recorded around calls into the program's public stage
//! functions.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), the span that caused it, the request it belongs to, and the
//! distance evaluations (`f32` and `u8`) the program counted while it was
//! open. Spans stay in memory until the run ends; [`Tracer::write_tsv`]
//! then writes them out. A span's self time is its duration minus the part
//! of its interval that its children cover.

use gass_core::DistCounter;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub f32_dists: u64,
    pub u8_dists: u64,
}

/// A span that has begun and not yet ended.
#[must_use]
pub struct Open {
    id: u32,
    f32_at: u64,
    u8_at: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Totals over every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub f32_dists: u64,
    pub u8_dists: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. `parent` is [`ROOT`] or the id of an open span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        c: &DistCounter,
    ) -> Open {
        let id = self.spans.len() as u32;
        let (f32_at, u8_at) = (c.get_f32(), c.get_u8());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            f32_dists: 0,
            u8_dists: 0,
        });
        Open { id, f32_at, u8_at }
    }

    /// Closes a span.
    pub fn end(&mut self, open: Open, c: &DistCounter) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[open.id as usize];
        s.end_ns = end_ns;
        s.f32_dists = c.get_f32() - open.f32_at;
        s.u8_dists = c.get_u8() - open.u8_at;
    }

    /// The id a span opened with `open` has, for its children.
    pub fn id(open: &Open) -> u32 {
        open.id
    }

    /// Number of spans recorded so far; [`Self::aggregate`] and
    /// [`Self::stage_sum_ns`] take a start index so one phase of a run can
    /// be summed on its own.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans whose interval is not inside their parent's, or whose request
    /// id differs from their parent's.
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent != ROOT && {
                    let p = &self.spans[s.parent as usize];
                    s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.req != p.req
                }
            })
            .count()
    }

    /// Child-covered time per span, clipped to the parent's interval.
    /// Children of one parent are recorded in order and never overlap, so
    /// clipping each one and summing gives the covered part.
    fn covered_ns(&self, from: usize) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if s.parent != ROOT && s.parent as usize >= from {
                let p = &self.spans[s.parent as usize];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                covered[s.parent as usize - from] += hi.saturating_sub(lo);
            }
        }
        covered
    }

    /// Per-name totals over the spans recorded since index `from`.
    pub fn aggregate(&self, from: usize) -> BTreeMap<&'static str, Agg> {
        let covered = self.covered_ns(from);
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, cov) in self.spans[from..].iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(cov);
            a.f32_dists += s.f32_dists;
            a.u8_dists += s.u8_dists;
        }
        out
    }

    /// Seconds spent in spans named `name`, summed per request, in request
    /// order; with `self_only`, only their self time counts.
    pub fn per_req_s(&self, name: &str, self_only: bool) -> Vec<f64> {
        let covered = self.covered_ns(0);
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            if s.name == name {
                let dur = s.end_ns - s.start_ns;
                *by_req.entry(s.req).or_default() +=
                    if self_only { dur.saturating_sub(cov) } else { dur };
            }
        }
        by_req.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Sum of every span's self time since index `from`: the time the
    /// spans account for. Compared against the wall time of the traced
    /// loop, it shows whether the spans cover the work.
    pub fn stage_sum_ns(&self, from: usize) -> u64 {
        self.aggregate(from).values().map(|a| a.self_ns).sum()
    }

    /// Writes every span, one per line:
    /// `id parent req name start_ns end_ns f32_dists u8_dists`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tf32_dists\tu8_dists")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.f32_dists, s.u8_dists
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_nesting_is_checked() {
        let c = DistCounter::new();
        let mut t = Tracer::new();
        let root = t.begin("root", ROOT, 7, &c);
        let rid = Tracer::id(&root);
        let child = t.begin("child", rid, 7, &c);
        c.add(3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, &c);
        t.end(root, &c);
        let agg = t.aggregate(0);
        let (r, ch) = (agg["root"], agg["child"]);
        assert_eq!(ch.f32_dists, 3);
        assert_eq!(r.f32_dists, 3);
        assert!(ch.total_ns >= 2_000_000);
        assert_eq!(r.self_ns, r.total_ns - ch.total_ns);
        assert_eq!(t.stage_sum_ns(0), r.total_ns);
        assert_eq!(t.nesting_violations(), 0);

        // A child from another request is a violation.
        let bad = t.begin("stray", rid, 8, &c);
        t.end(bad, &c);
        assert_eq!(t.nesting_violations(), 1);
    }
}
