//! The benchmark's own spans: one record per call the benchmark makes into
//! a layer's public functions, kept in memory and written out after the
//! run. A span carries its layer and op, its start and end in virtual time
//! and in the calling thread's CPU time, its parent, and the request id of
//! the generated op it served.
//!
//! Every actor (and the main thread) records into its own [`Lane`], so
//! recording takes no lock. Untraced lanes keep only the virtual-latency
//! samples the end-to-end metrics need and never read the CPU clock.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::host::thread_cpu_ns;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique within the run: lane in the high bits, sequence below.
    pub id: u64,
    /// Enclosing span's id, or 0 for a lane root.
    pub parent: u64,
    /// Request id of the generated op this call served (0: none).
    pub req: u64,
    /// Lane (actor) the call ran on.
    pub lane: u32,
    /// Layer called into (`dafs`, `mpiio`, `memfs`, `sim`) or `bench`
    /// for a lane root.
    pub layer: &'static str,
    /// Public function called.
    pub op: &'static str,
    /// Virtual start and end, nanoseconds.
    pub v0: u64,
    /// Virtual end.
    pub v1: u64,
    /// Calling thread's CPU clock at start, nanoseconds.
    pub c0: u64,
    /// Calling thread's CPU clock at end.
    pub c1: u64,
}

/// One timed operation of the workload's measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's op-name table.
    pub kind: usize,
    /// Virtual latency, nanoseconds.
    pub lat_ns: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// Per-actor recorder.
pub struct Lane {
    traced: bool,
    lane: u32,
    seq: u64,
    open: Vec<usize>,
    /// Spans recorded so far (traced lanes only), in open order.
    pub spans: Vec<SpanRec>,
    /// Latency samples of measured ops (always kept).
    pub samples: Vec<Sample>,
}

impl Lane {
    /// A lane with room for `ops` calls, so recording does not allocate
    /// while the workload runs.
    pub fn new(lane: u32, traced: bool, ops: usize) -> Lane {
        Lane {
            traced,
            lane,
            seq: 0,
            open: Vec::with_capacity(4),
            spans: Vec::with_capacity(if traced { ops + 2 } else { 0 }),
            samples: Vec::with_capacity(ops),
        }
    }

    /// The lane's number (0 is the main thread).
    pub fn id(&self) -> u32 {
        self.lane
    }

    /// Open a span at virtual time `v`.
    pub fn enter(&mut self, layer: &'static str, op: &'static str, req: u64, v: u64) {
        if !self.traced {
            return;
        }
        self.seq += 1;
        let id = (u64::from(self.lane) << 40) | self.seq;
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let c = thread_cpu_ns();
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            id,
            parent,
            req,
            lane: self.lane,
            layer,
            op,
            v0: v,
            v1: v,
            c0: c,
            c1: c,
        });
    }

    /// Close the innermost open span at virtual time `v`.
    pub fn exit(&mut self, v: u64) {
        if !self.traced {
            return;
        }
        let c = thread_cpu_ns();
        let i = self.open.pop().expect("exit matches an enter");
        let s = &mut self.spans[i];
        s.v1 = v;
        s.c1 = c;
    }

    /// Run `f` as one call into `layer`, reading virtual time from `now`.
    /// Returns `f`'s result and the call's virtual duration.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        req: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let v0 = now();
        self.enter(layer, op, req, v0);
        let r = f();
        let v1 = now();
        self.exit(v1);
        (r, v1 - v0)
    }

    /// [`Lane::call`] for a measured op: also records a latency sample.
    #[allow(clippy::too_many_arguments)]
    pub fn op<R>(
        &mut self,
        kind: usize,
        layer: &'static str,
        op: &'static str,
        req: u64,
        bytes: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, lat_ns) = self.call(layer, op, req, now, f);
        self.samples.push(Sample {
            kind,
            lat_ns,
            bytes,
        });
        r
    }
}

/// Length of the union of `[a, b)` intervals clipped to `[lo, hi)`.
fn union_len(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover, in virtual time and in thread CPU time.
fn self_times(spans: &[SpanRec]) -> Vec<(u64, u64)> {
    let mut kids: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let ks = kids.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let v = ks.iter().map(|&k| (spans[k].v0, spans[k].v1)).collect();
            let c = ks.iter().map(|&k| (spans[k].c0, spans[k].c1)).collect();
            (
                (s.v1 - s.v0) - union_len(v, s.v0, s.v1),
                (s.c1 - s.c0) - union_len(c, s.c0, s.c1),
            )
        })
        .collect()
}

/// Where a traced run's time went, per layer.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// End-to-end virtual time of the client timelines: client lanes ×
    /// the run's virtual end.
    pub total_v: u64,
    /// Virtual self time per layer, summed over client lanes.
    pub v_self: BTreeMap<&'static str, u64>,
    /// Client-timeline virtual time that no layer span covers.
    pub residual_v: u64,
    /// Thread-CPU self time per layer (and `bench` for the benchmark's own
    /// work inside lane roots), summed over every lane.
    pub c_self: BTreeMap<&'static str, u64>,
}

/// Split the client lanes' timelines `[0, end)` among layer self times and
/// a residual, and every lane's CPU among layers. Errors if the two ways
/// of computing the residual disagree (a span escaped its lane or two
/// sibling spans overlapped).
pub fn breakdown(
    client: &[&[SpanRec]],
    other: &[&[SpanRec]],
    end: u64,
) -> Result<Breakdown, String> {
    let mut b = Breakdown {
        total_v: client.len() as u64 * end,
        ..Breakdown::default()
    };
    let mut covered = 0u64;
    for (lane, spans) in client.iter().enumerate() {
        let selfs = self_times(spans);
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.id)
            .collect();
        let depth1: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.layer != "bench" && (s.parent == 0 || roots.contains(&s.parent)))
            .map(|s| (s.v0, s.v1))
            .collect();
        let lane_cover = union_len(depth1, 0, end);
        covered += lane_cover;
        let mut lane_self = 0;
        for (s, (v, c)) in spans.iter().zip(selfs) {
            if s.v1 > end {
                return Err(format!(
                    "lane {lane}: span {}.{} ends after the run",
                    s.layer, s.op
                ));
            }
            *b.c_self.entry(s.layer).or_default() += c;
            if s.layer != "bench" {
                *b.v_self.entry(s.layer).or_default() += v;
                lane_self += v;
            }
        }
        if lane_self != lane_cover {
            return Err(format!(
                "lane {lane}: layer self times {lane_self} ns != covered {lane_cover} ns"
            ));
        }
    }
    for spans in other {
        for (s, (_, c)) in spans.iter().zip(self_times(spans)) {
            *b.c_self.entry(s.layer).or_default() += c;
        }
    }
    b.residual_v = b.total_v - covered;
    Ok(b)
}

/// Render spans as JSON lines.
pub fn spans_jsonl(lanes: &[&[SpanRec]]) -> String {
    let mut out = String::new();
    for s in lanes.iter().flat_map(|l| l.iter()) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"lane\":{},\"layer\":\"{}\",\"op\":\"{}\",\
             \"v0_ns\":{},\"v1_ns\":{},\"cpu0_ns\":{},\"cpu1_ns\":{}}}",
            s.id, s.parent, s.req, s.lane, s.layer, s.op, s.v0, s.v1, s.c0, s.c1
        );
    }
    out
}

/// Nearest-rank position (1-based) of the `permille`/1000 quantile of `n`
/// samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// The value at the `permille`/1000 quantile (nearest rank) of sorted
/// samples.
pub fn quantile(sorted: &[u64], permille: usize) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it, as (label, per-mille).
pub fn tail_quantile(n: usize) -> (&'static str, usize) {
    const LADDER: [(&str, usize); 5] = [
        ("p99.9", 999),
        ("p99", 990),
        ("p95", 950),
        ("p90", 900),
        ("p75", 750),
    ];
    LADDER
        .into_iter()
        .find(|&(_, q)| n >= 1 && n - rank(n, q) >= 10)
        .unwrap_or(("p50", 500))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, layer: &'static str, v: (u64, u64), c: (u64, u64)) -> SpanRec {
        SpanRec {
            id,
            parent,
            req: 0,
            lane: 0,
            layer,
            op: "x",
            v0: v.0,
            v1: v.1,
            c0: c.0,
            c1: c.1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_residual_closes_the_sum() {
        // One lane: root [0,100), op A [10,30), op B [50,90) with a child
        // [60,70); the run ends at 120.
        let lane = vec![
            rec(1, 0, "bench", (0, 100), (0, 1000)),
            rec(2, 1, "dafs", (10, 30), (100, 200)),
            rec(3, 1, "mpiio", (50, 90), (300, 600)),
            rec(4, 3, "dafs", (60, 70), (400, 450)),
        ];
        let b = breakdown(&[&lane], &[], 120).unwrap();
        assert_eq!(b.total_v, 120);
        assert_eq!(b.v_self["dafs"], 20 + 10);
        assert_eq!(b.v_self["mpiio"], 30);
        assert_eq!(b.residual_v, 120 - 60);
        let sum: u64 = b.v_self.values().sum::<u64>() + b.residual_v;
        assert_eq!(sum, b.total_v);
        assert_eq!(b.c_self["bench"], 1000 - 100 - 300);
        assert_eq!(b.c_self["mpiio"], 300 - 50);
        assert_eq!(b.c_self["dafs"], 100 + 50);
    }

    #[test]
    fn overlapping_siblings_are_reported() {
        let lane = vec![
            rec(1, 0, "bench", (0, 100), (0, 10)),
            rec(2, 1, "dafs", (10, 30), (1, 2)),
            rec(3, 1, "dafs", (20, 40), (3, 4)),
        ];
        assert!(breakdown(&[&lane], &[], 100).is_err());
    }

    #[test]
    fn quantiles_use_nearest_rank_and_keep_ten_beyond_the_tail() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 500), 50);
        assert_eq!(quantile(&v, 990), 99);
        assert_eq!(tail_quantile(100).0, "p90");
        assert_eq!(tail_quantile(1000).0, "p99");
        assert_eq!(tail_quantile(10_000).0, "p99.9");
        assert_eq!(tail_quantile(128).0, "p90");
        assert_eq!(tail_quantile(512).0, "p95");
        assert_eq!(tail_quantile(8000).0, "p99");
        assert_eq!(tail_quantile(15).0, "p50");
    }

    #[test]
    fn untraced_lanes_keep_samples_but_no_spans() {
        let mut l = Lane::new(1, false, 4);
        let r = l.op(0, "dafs", "read", 7, 4096, || 5, || 42);
        assert_eq!(r, 42);
        assert!(l.spans.is_empty());
        assert_eq!(l.samples.len(), 1);
        let mut t = Lane::new(1, true, 4);
        t.enter("bench", "client", 0, 0);
        t.op(0, "dafs", "read", 7, 4096, || 5, || ());
        t.exit(9);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        assert_eq!(t.spans[1].req, 7);
    }
}
