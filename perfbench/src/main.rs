//! One benchmark round: run one seeded workload once in this process and
//! print its measurements as one JSON line.
//!
//! ```sh
//! perfbench --workload smallop_mix --seed 1 [--trace] [--smoke] [--corrupt] [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds this binary and runs many rounds, each in its
//! own process, then reports medians. See `perfbench/README.md`.

mod gen;
mod host;
mod round;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use obs::Snapshot;

use crate::host::Status;
use crate::round::{Opts, WorkOut};
use crate::trace::{breakdown, quantile, spans_jsonl, tail_quantile, Breakdown, Sample, SpanRec};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const MIB: f64 = (1u64 << 20) as f64;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--trace] [--smoke] [--corrupt] [--out DIR]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        traced: false,
        smoke: false,
        corrupt: false,
        out: None,
    };
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => opts.workload = args.next().unwrap_or_else(|| usage()),
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()),
            "--trace" => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--corrupt" => opts.corrupt = true,
            "--out" => opts.out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    opts.seed = seed.unwrap_or_else(|| usage());
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        usage();
    }
    opts
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric values are finite");
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}");
        }
        s + "}"
    }
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn get(snap: &Snapshot, name: &str) -> f64 {
    snap.get(name).map_or(0.0, |e| e.value() as f64)
}

/// Median and tail of the samples, in microseconds, with the tail's label.
fn lat_us(samples: &[&Sample]) -> (f64, f64, &'static str) {
    if samples.is_empty() {
        return (0.0, 0.0, "none");
    }
    let mut v: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    v.sort_unstable();
    let (label, q) = tail_quantile(v.len());
    (
        quantile(&v, 500) as f64 / 1e3,
        quantile(&v, q) as f64 / 1e3,
        label,
    )
}

/// Digest of every virtual-time result and exact count of the round.
fn digest(w: &WorkOut, events: u64, leaked: (u64, u64)) -> u64 {
    let mut s = format!(
        "{} {} {} {} {} {} {} {:?}\n",
        w.end_ns, w.phase_ns, w.failed, w.server_busy_ns, w.comm_bytes, events, w.servers, leaked
    );
    for l in &w.lanes {
        for x in &l.samples {
            let _ = write!(s, "{}:{}:{} ", x.kind, x.lat_ns, x.bytes);
        }
    }
    s.push_str(&w.snapshot.to_json_line());
    gen::fnv1a(s.as_bytes())
}

fn main() {
    let opts = parse_args();
    let before = (Status::now().threads, simnet::buf::bytes_alive());
    let w = workloads::run(&opts).expect("workload name was checked");
    // Every simulator handle the workload held is gone now; what is left
    // alive belongs to threads the kernel detached.
    let after = Status::now();
    let leaked = (
        after.threads - before.0,
        simnet::buf::bytes_alive().wrapping_sub(before.1),
    );

    let samples: Vec<&Sample> = w.lanes.iter().flat_map(|l| l.samples.iter()).collect();
    let events = get(&w.snapshot, "sim.events.total") as u64;
    let (_, _, tail_label) = lat_us(&samples);
    let e2e = end_to_end(&w, &samples, after.vm_hwm_kib);
    let layer = per_layer(&w, &samples, events, leaked);
    let (spans, closed) = if opts.traced {
        match span_metrics(&opts, &w) {
            Ok(m) => (m, true),
            Err(e) => {
                eprintln!("perfbench: span breakdown does not close: {e}");
                (Metrics::default(), false)
            }
        }
    } else {
        (Metrics::default(), true)
    };
    let ok = closed && w.failed == 0;
    let ops = samples.len();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"correct\":{ok},\"attempted\":{ops},\
         \"failed\":{},\"digest\":\"{:016x}\",\"lat_samples\":{ops},\"tail_pct\":\"{tail_label}\",\
         \"e2e\":{},\"layer\":{},\"spans\":{}}}",
        opts.workload,
        opts.seed,
        opts.traced,
        w.failed,
        digest(&w, events, leaked),
        e2e.json(),
        layer.json(),
        spans.json()
    );
    if !ok {
        std::process::exit(1);
    }
}

/// The end-to-end metrics `BENCHMARK.json` names.
fn end_to_end(w: &WorkOut, samples: &[&Sample], vm_hwm_kib: u64) -> Metrics {
    let bytes: u64 = samples.iter().map(|s| s.bytes).sum();
    let phase_s = w.phase_ns as f64 / 1e9;
    let (p50, tail, _) = lat_us(samples);
    let mut m = Metrics::default();
    m.put("setup_s", (w.setup.wall - w.t_start).as_secs_f64(), "s");
    m.put("wall_s", (w.run.1.wall - w.setup.wall).as_secs_f64(), "s");
    let cpu_ns = w.run.1.usage.cpu_ns - w.setup.usage.cpu_ns;
    m.put("cpu_s", cpu_ns as f64 / 1e9, "s");
    m.put("peak_rss_mib", vm_hwm_kib as f64 / 1024.0, "MiB");
    m.put("sim_MBps", div(bytes as f64 / 1e6, phase_s), "MB/s");
    m.put("sim_ops_per_s", div(samples.len() as f64, phase_s), "1/s");
    m.put("sim_lat_p50_us", p50, "us");
    m.put("sim_lat_tail_us", tail, "us");
    m
}

/// Per-layer metrics that need no spans: host costs per event, buffer
/// accounting, the program's registry, and per-op virtual latencies.
fn per_layer(w: &WorkOut, samples: &[&Sample], events: u64, leaked: (u64, u64)) -> Metrics {
    let snap = &w.snapshot;
    let ops = samples.len() as f64;
    let ev = events as f64;
    let (r0, r1) = (&w.run.0, &w.run.1);
    let mut m = Metrics::default();
    m.put("fail_ratio", div(w.failed as f64, ops), "ratio");
    m.put("leaked_threads", leaked.0 as f64, "count");
    m.put("leaked_mib", leaked.1 as f64 / MIB, "MiB");
    m.put("simnet.events", ev, "count");
    let run_wall_ns = (r1.wall - r0.wall).as_nanos() as f64;
    m.put("simnet.host_ns_per_event", div(run_wall_ns, ev), "ns");
    let switches = r1.usage.ctx_switches - r0.usage.ctx_switches;
    m.put(
        "simnet.ctx_switches_per_event",
        div(switches as f64, ev),
        "switch/event",
    );
    m.put(
        "simnet.allocs_per_event",
        div((r1.allocs - r0.allocs) as f64, ev),
        "alloc/event",
    );
    m.put("simnet.threads_peak", w.threads_peak as f64, "count");
    m.put(
        "simnet.actors_spawned",
        get(snap, "sim.actors.spawned"),
        "count",
    );
    m.put("simnet.buf.materialized_mib", w.buf.0 as f64 / MIB, "MiB");
    m.put("simnet.buf.peak_alive_mib", w.buf.1 as f64 / MIB, "MiB");
    m.put("fabric.frames", get(snap, "fabric.frames"), "count");
    m.put(
        "fabric.queued_us",
        get(snap, "fabric.queued_ns") / 1e3,
        "us",
    );
    let qdepth_max = snap
        .with_prefix("fabric.")
        .filter(|e| e.name.ends_with(".qdepth_max"))
        .map(|e| e.value())
        .max()
        .unwrap_or(0);
    m.put("fabric.qdepth_max", qdepth_max as f64, "count");
    m.put("fabric.drops", get(snap, "fabric.drops"), "count");
    m.put(
        "via.doorbells_per_op",
        div(get(snap, "via.doorbells"), ops),
        "doorbell/op",
    );
    m.put("via.rdma_mib", get(snap, "via.rdma.bytes") / MIB, "MiB");
    m.put("via.send_mib", get(snap, "via.send.bytes") / MIB, "MiB");
    m.put(
        "via.registered_mib",
        get(snap, "via.mem.registered") / MIB,
        "MiB",
    );
    m.put(
        "dafs.server.busy_frac",
        div(w.server_busy_ns as f64, (w.servers * w.end_ns) as f64),
        "ratio",
    );
    for op in ["read", "write"] {
        let ns = get(snap, &format!("dafs.{op}_ns"));
        let calls = get(snap, &format!("dafs.{op}.calls"));
        m.put(format!("dafs.{op}_us_per_call"), div(ns, calls) / 1e3, "us");
    }
    m.put(
        "dafs.inline_mib",
        get(snap, "dafs.inline.bytes") / MIB,
        "MiB",
    );
    m.put(
        "dafs.direct_mib",
        get(snap, "dafs.direct.bytes") / MIB,
        "MiB",
    );
    m.put(
        "dafs.direct_fallbacks",
        get(snap, "dafs.direct_fallbacks"),
        "count",
    );
    let hits = get(snap, "dafs.regcache.hits");
    let lookups = hits + get(snap, "dafs.regcache.misses");
    m.put("dafs.regcache.hit_ratio", div(hits, lookups), "ratio");
    m.put("dafs.regcache.lookups", lookups, "count");
    m.put(
        "dafs.list.segs_per_req",
        div(get(snap, "dafs.list.segs"), get(snap, "dafs.list.reqs")),
        "seg/req",
    );
    m.put("dafs.reconnects", get(snap, "dafs.reconnects"), "count");
    m.put("adio.retries", get(snap, "adio.retries"), "count");
    for (name, cost) in [("prefill", w.prefill), ("verify", w.verify)] {
        m.put(
            format!("memfs.{name}_ns_per_byte"),
            div(cost.cpu_ns as f64, cost.bytes as f64),
            "ns/B",
        );
    }
    let coll_ns: u64 = samples
        .iter()
        .filter(|s| w.op_names[s.kind].ends_with("_all"))
        .map(|s| s.lat_ns)
        .sum();
    for phase in ["exchange", "aggregation", "io", "overlap"] {
        let ns = get(snap, &format!("mpiio.twophase.{phase}_ns"));
        m.put(
            format!("mpiio.twophase.{phase}_frac"),
            div(ns, coll_ns as f64),
            "ratio",
        );
    }
    m.put("mpiio.comm_mib", w.comm_bytes as f64 / MIB, "MiB");
    for (lay, op) in MEASURED_OPS {
        let of_op: Vec<&Sample> = samples
            .iter()
            .copied()
            .filter(|s| w.op_names[s.kind] == op)
            .collect();
        let (p50, tail, _) = lat_us(&of_op);
        m.put(format!("{lay}.call_sim_us.{op}.p50"), p50, "us");
        m.put(format!("{lay}.call_sim_us.{op}.tail"), tail, "us");
    }
    m
}

/// Measured op kinds across the workloads, by layer.
const MEASURED_OPS: [(&str, &str); 7] = [
    ("dafs", "getattr"),
    ("dafs", "read"),
    ("dafs", "write"),
    ("mpiio", "write_at_all"),
    ("mpiio", "read_at_all"),
    ("mpiio", "write_at"),
    ("mpiio", "read_at"),
];

/// Per-layer metrics of a traced round: the virtual and host-CPU
/// breakdowns, and thread CPU per call. Writes the spans under `--out`.
fn span_metrics(opts: &Opts, w: &WorkOut) -> Result<Metrics, String> {
    let client: Vec<&[SpanRec]> = w.lanes.iter().map(|l| l.spans.as_slice()).collect();
    let b = breakdown(&client, &[&w.main_lane.spans], w.end_ns)?;
    let mut m = Metrics::default();
    let share = |v: u64| div(v as f64, b.total_v as f64);
    for lay in ["dafs", "mpiio"] {
        let v = b.v_self.get(lay).copied().unwrap_or(0);
        m.put(format!("vtime_share.{lay}"), share(v), "ratio");
    }
    m.put("vtime_share.residual", share(b.residual_v), "ratio");
    let run_cpu = (w.run.1.usage.cpu_ns - w.run.0.usage.cpu_ns) as f64;
    let mut covered = 0.0;
    for (name, lay) in [
        ("sched", "sim"),
        ("dafs", "dafs"),
        ("mpiio", "mpiio"),
        ("bench", "bench"),
    ] {
        let c = b.c_self.get(lay).copied().unwrap_or(0) as f64;
        covered += c;
        m.put(format!("host.cpu_share.{name}"), div(c, run_cpu), "ratio");
    }
    m.put(
        "host.cpu_share.uncovered",
        div(run_cpu - covered, run_cpu).max(0.0),
        "ratio",
    );
    let all: Vec<&SpanRec> = client.iter().flat_map(|l| l.iter()).collect();
    let cpu_ops = [("dafs", "connect"), ("mpiio", "open")];
    for (lay, op) in cpu_ops.into_iter().chain(MEASURED_OPS) {
        let cpu: Vec<u64> = all
            .iter()
            .filter(|s| s.layer == lay && s.op == op)
            .map(|s| s.c1 - s.c0)
            .collect();
        let mean = div(cpu.iter().sum::<u64>() as f64, cpu.len() as f64);
        m.put(format!("{lay}.call_cpu_us.{op}"), mean / 1e3, "us");
    }
    let n_spans = all.len() + w.main_lane.spans.len();
    m.put("obs.trace_events", n_spans as f64, "count");
    write_trace(opts, w, &b);
    Ok(m)
}

/// Write the round's spans and its breakdown table under `--out`.
fn write_trace(opts: &Opts, w: &WorkOut, b: &Breakdown) {
    let Some(dir) = &opts.out else { return };
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    let mut lanes: Vec<&[SpanRec]> = vec![&w.main_lane.spans];
    lanes.extend(w.lanes.iter().map(|l| l.spans.as_slice()));
    let mut table = format!(
        "{}: virtual time of {} client timelines x {} ns = {} ns\n",
        opts.workload,
        w.lanes.len(),
        w.end_ns,
        b.total_v
    );
    for (lay, v) in &b.v_self {
        let _ = writeln!(
            table,
            "  self {lay:<8} {v:>16} ns  {:>6.2}%",
            100.0 * div(*v as f64, b.total_v as f64)
        );
    }
    let _ = writeln!(
        table,
        "  residual      {:>16} ns  {:>6.2}%",
        b.residual_v,
        100.0 * div(b.residual_v as f64, b.total_v as f64)
    );
    let _ = writeln!(
        table,
        "host CPU self time per layer (thread CPU, all lanes):"
    );
    for (lay, c) in &b.c_self {
        let _ = writeln!(table, "  self {lay:<8} {c:>16} ns");
    }
    let res = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans_jsonl(&lanes)))
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.breakdown.txt")), table));
    if let Err(e) = res {
        eprintln!("perfbench: cannot write spans under {}: {e}", dir.display());
    }
}
