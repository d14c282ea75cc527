//! The three closed-loop workloads. Each generates its ops from the seed,
//! builds a fresh simulated cluster, runs it once, checks every byte read
//! back and the final server image, and returns a [`WorkOut`].
//!
//! Calls into a layer go through a [`Lane`], which times them in virtual
//! time (every round) and records spans (traced rounds).

use std::sync::Arc;
use std::time::Instant;

use dafs::{DafsClient, DafsClientConfig, DafsServerCost, DafsServerHandle};
use memfs::{MemFs, NodeId, ROOT_ID};
use mpiio::adio::set_current_host;
use mpiio::{
    read_at_all, write_at_all, CommCost, DafsAdio, Datatype, Hints, MpiFile, OpenMode, Testbed,
};
use obs::Obs;
use simnet::{ActorCtx, Cluster, Host, SimDuration, SimKernel, SimTime, VirtAddr};
use via::{ViaCost, ViaFabric};

use crate::gen::{fill, Rng};
use crate::round::{run_sim, Finished, MemfsCost, Opts, Shared, WorkOut};
use crate::trace::Lane;

const PORT: u16 = 2049;
const KIB: u64 = 1 << 10;

/// Workload names, in the order the docs list them.
pub const NAMES: [&str; 3] = ["smallop_mix", "coll_rw", "fabric_incast"];

/// Run one round of the named workload.
pub fn run(opts: &Opts) -> Option<WorkOut> {
    match opts.workload.as_str() {
        "smallop_mix" => Some(smallop_mix(opts)),
        "coll_rw" => Some(coll_rw(opts)),
        "fabric_incast" => Some(fabric_incast(opts)),
        _ => None,
    }
}

/// Virtual-time reader for [`Lane`] calls on an actor.
fn vnow(ctx: &ActorCtx) -> impl Fn() -> u64 + '_ {
    move || ctx.now().as_nanos()
}

/// Compare the `len` bytes at `addr` with the payload for `key`, using
/// caller-provided scratch buffers.
fn matches(
    host: &Host,
    addr: VirtAddr,
    seed: u64,
    key: u64,
    got: &mut [u8],
    want: &mut [u8],
) -> bool {
    host.mem.read(addr, got);
    fill(seed, key, want);
    got == want
}

/// Flip the first byte of the buffer at `addr` (the self-test's injected
/// corruption of a read-back buffer).
fn corrupt(host: &Host, addr: VirtAddr) {
    let b = host.mem.read_vec(addr, 1)[0];
    host.mem.write(addr, &[!b]);
}

/// Payload key of one block version.
fn key(block: u64, version: u64) -> u64 {
    (block << 20) | version
}

/// A simulated cluster with one DAFS server exporting `fs`, with the
/// program's own tracer off.
struct OneServer {
    kernel: SimKernel,
    obs: Obs,
    cluster: Cluster,
    fabric: ViaFabric,
    server: DafsServerHandle,
}

fn one_server(fs: &MemFs) -> OneServer {
    let kernel = SimKernel::with_obs(Obs::disabled());
    let obs = kernel.obs().clone();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let nic = fabric.open_nic(cluster.add_host("server0"));
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        nic,
        fs.clone(),
        PORT,
        DafsServerCost::default(),
    );
    OneServer {
        kernel,
        obs,
        cluster,
        fabric,
        server,
    }
}

// --- smallop_mix -----------------------------------------------------------

const SM_CLIENTS: usize = 8;
const SM_FILES: u64 = 64;
const SM_BLOCKS: u64 = 16;
const SM_BLOCK: u64 = 4 * KIB;
const SM_FILE_BYTES: u64 = SM_BLOCKS * SM_BLOCK;
const SM_OPS: usize = 1000;
const SM_SMOKE_OPS: usize = 60;
const SM_THINK_NS: u64 = 20_000;
/// Virtual instant every client starts its ops, after all have connected.
const SM_START: SimTime = SimTime(2_000_000);
const SM_KINDS: &[&str] = &["getattr", "read", "write"];

#[derive(Debug, Clone, Copy)]
struct SmallOp {
    req: u64,
    kind: usize,
    file: u64,
    block: u64,
    think_ns: u64,
}

/// Client `c` owns the blocks `g = file * SM_BLOCKS + block` with
/// `g % SM_CLIENTS == c`: it is the only writer of those blocks, so the
/// bytes any read must return follow from its own op list.
fn smallop_ops(seed: u64, c: usize, n: usize) -> Vec<SmallOp> {
    let mut r = Rng::new(seed, &[1, c as u64]);
    let owned: Vec<u64> = (0..SM_FILES * SM_BLOCKS)
        .filter(|g| g % SM_CLIENTS as u64 == c as u64)
        .collect();
    // Exactly 30% getattr, 40% read, 30% write, in a seeded order, so the
    // seed moves timing and placement but not the op mix.
    let mut kinds: Vec<usize> = (0..n)
        .map(|i| [0, 0, 0, 1, 1, 1, 1, 2, 2, 2][i % 10])
        .collect();
    for i in (1..n).rev() {
        kinds.swap(i, r.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let (file, block) = if kind == 0 {
                (r.below(SM_FILES), 0)
            } else {
                let g = owned[r.below(owned.len() as u64) as usize];
                (g / SM_BLOCKS, g % SM_BLOCKS)
            };
            SmallOp {
                req: ((c as u64 + 1) << 32) | (i as u64 + 1),
                kind,
                file,
                block,
                think_ns: r.below(SM_THINK_NS + 1),
            }
        })
        .collect()
}

fn smallop_mix(opts: &Opts) -> WorkOut {
    let seed = opts.seed;
    let n = if opts.smoke { SM_SMOKE_OPS } else { SM_OPS };
    let plans: Vec<Vec<SmallOp>> = (0..SM_CLIENTS).map(|c| smallop_ops(seed, c, n)).collect();
    let mut final_version = vec![0u64; (SM_FILES * SM_BLOCKS) as usize];
    for op in plans.iter().flatten().filter(|o| o.kind == 2) {
        final_version[(op.file * SM_BLOCKS + op.block) as usize] += 1;
    }

    let t_start = Instant::now();
    let mut main = Lane::new(0, opts.traced, 3 * SM_FILES as usize + 2);
    let mut prefill = MemfsCost::default();
    let fs = MemFs::new();
    let mut buf = vec![0u8; SM_FILE_BYTES as usize];
    let mut ids = Vec::new();
    for f in 0..SM_FILES {
        for (b, chunk) in buf.chunks_mut(SM_BLOCK as usize).enumerate() {
            fill(seed, key(f * SM_BLOCKS + b as u64, 0), chunk);
        }
        let id = prefill
            .call(&mut main, "create", 0, || {
                fs.create(ROOT_ID, &format!("f{f:02}"))
            })
            .expect("fresh namespace")
            .id;
        prefill
            .call(&mut main, "write", SM_FILE_BYTES, || fs.write(id, 0, &buf))
            .expect("prefill write");
        ids.push(id);
    }

    let OneServer {
        kernel,
        obs,
        cluster,
        fabric,
        server,
    } = one_server(&fs);
    let sid = server.host.id;
    let shared = Arc::new(Shared::new(opts.traced));
    let ids = Arc::new(ids);
    for (c, plan) in plans.into_iter().enumerate() {
        let host = cluster.add_host(&format!("client{c}"));
        let (fabric, shared, ids) = (fabric.clone(), shared.clone(), ids.clone());
        let corrupt_first_read = opts.corrupt && c == 0;
        kernel.spawn(&format!("client{c}"), move |ctx| {
            smallop_client(
                ctx,
                c,
                &host,
                &fabric,
                sid,
                &ids,
                plan,
                &shared,
                seed,
                corrupt_first_read,
            );
        });
    }
    let (end, run, bufstat) = run_sim(&mut main, "run", || kernel.run(), |e| e.as_nanos());
    let Finished {
        setup,
        mut lanes,
        mut failed,
        threads_peak,
        phase_ns,
    } = shared.finish();

    let mut verify = MemfsCost::default();
    for (f, &id) in ids.iter().enumerate() {
        let bytes = verify
            .call(&mut main, "read", SM_FILE_BYTES, || {
                fs.read(id, 0, SM_FILE_BYTES)
            })
            .expect("file still exists");
        failed += u64::from(bytes.len() as u64 != SM_FILE_BYTES);
        for (b, chunk) in bytes.chunks(SM_BLOCK as usize).enumerate() {
            let g = f as u64 * SM_BLOCKS + b as u64;
            fill(
                seed,
                key(g, final_version[g as usize]),
                &mut buf[..SM_BLOCK as usize],
            );
            failed += u64::from(chunk != &buf[..SM_BLOCK as usize]);
        }
    }
    lanes.sort_by_key(|l| l.id());
    let server_busy_ns = server.host.cpu.busy().as_nanos();
    WorkOut {
        op_names: SM_KINDS,
        end_ns: end.as_nanos(),
        phase_ns,
        lanes,
        main_lane: main,
        snapshot: obs.snapshot(end.as_nanos()),
        server_busy_ns,
        servers: 1,
        comm_bytes: 0,
        failed,
        threads_peak,
        t_start,
        setup,
        run,
        buf: bufstat,
        prefill,
        verify,
    }
}

#[allow(clippy::too_many_arguments)]
fn smallop_client(
    ctx: &ActorCtx,
    c: usize,
    host: &Host,
    fabric: &ViaFabric,
    sid: simnet::HostId,
    ids: &[NodeId],
    plan: Vec<SmallOp>,
    shared: &Shared,
    seed: u64,
    mut corrupt_next_read: bool,
) {
    let now = vnow(ctx);
    let mut lane = Lane::new(c as u32 + 1, shared.traced, plan.len() + 2);
    lane.enter("bench", "client", 0, now());
    let nic = fabric.open_nic(host.clone());
    let connect_req = (c as u64 + 1) << 32;
    let (client, _) = lane.call("dafs", "connect", connect_req, &now, || {
        DafsClient::connect(ctx, fabric, &nic, sid, PORT, DafsClientConfig::default())
    });
    let client = client.expect("DAFS session to an up server");
    let buf = host.mem.alloc(SM_BLOCK as usize);
    let mut got = vec![0u8; SM_BLOCK as usize];
    let mut want = vec![0u8; SM_BLOCK as usize];
    let mut version = vec![0u64; (SM_FILES * SM_BLOCKS) as usize];
    shared.setup_done();
    ctx.sleep_until(SM_START);
    let mut failed = 0;
    for op in &plan {
        ctx.advance(SimDuration::from_nanos(op.think_ns));
        let fh = ids[op.file as usize];
        let g = op.file * SM_BLOCKS + op.block;
        let off = op.block * SM_BLOCK;
        let ok = match op.kind {
            0 => lane
                .op(0, "dafs", "getattr", op.req, 0, &now, || {
                    client.getattr(ctx, fh)
                })
                .is_ok_and(|a| a.size == SM_FILE_BYTES),
            1 => {
                let r = lane.op(1, "dafs", "read", op.req, SM_BLOCK, &now, || {
                    client.read(ctx, fh, off, buf, SM_BLOCK)
                });
                if std::mem::take(&mut corrupt_next_read) {
                    corrupt(host, buf);
                }
                r.is_ok_and(|n| n == SM_BLOCK)
                    && matches(
                        host,
                        buf,
                        seed,
                        key(g, version[g as usize]),
                        &mut got,
                        &mut want,
                    )
            }
            _ => {
                version[g as usize] += 1;
                fill(seed, key(g, version[g as usize]), &mut want);
                host.mem.write(buf, &want);
                lane.op(2, "dafs", "write", op.req, SM_BLOCK, &now, || {
                    client.write(ctx, fh, off, buf, SM_BLOCK)
                })
                .is_ok()
            }
        };
        failed += u64::from(!ok);
    }
    shared.phase(SM_START.as_nanos(), now());
    shared.fail(failed);
    shared.sample_threads();
    lane.exit(now());
    shared.push_lane(lane);
}

// --- coll_rw ---------------------------------------------------------------

const CR_RANKS: usize = 4;
const CR_BLOCK: u64 = 64 * KIB;
const CR_BLOCKS_PER_CALL: u64 = 8;
const CR_CALL_BYTES: u64 = CR_BLOCK * CR_BLOCKS_PER_CALL;
const CR_ITERS: u64 = 32;
const CR_SMOKE_ITERS: u64 = 2;
const CR_THINK_NS: u64 = 1_000_000;
const CR_KINDS: &[&str] = &["write_at_all", "read_at_all"];
const CR_PATH: &str = "/coll.dat";

/// Global 64 KiB block `j` of rank `rank`'s call `i`, under the view that
/// interleaves the ranks' blocks round-robin.
fn cr_block(rank: usize, i: u64, j: u64) -> u64 {
    (i * CR_BLOCKS_PER_CALL + j) * CR_RANKS as u64 + rank as u64
}

fn coll_rw(opts: &Opts) -> WorkOut {
    let seed = opts.seed;
    let iters = if opts.smoke { CR_SMOKE_ITERS } else { CR_ITERS };
    let file_bytes = CR_RANKS as u64 * iters * CR_CALL_BYTES;
    // Per-rank think times before each write and each read.
    let thinks: Vec<Vec<u64>> = (0..CR_RANKS)
        .map(|r| {
            let mut g = Rng::new(seed, &[2, r as u64]);
            (0..2 * iters).map(|_| g.below(CR_THINK_NS + 1)).collect()
        })
        .collect();

    let t_start = Instant::now();
    let mut main = Lane::new(
        0,
        opts.traced,
        (2 * file_bytes / CR_CALL_BYTES) as usize + 4,
    );
    let mut prefill = MemfsCost::default();
    let fs = MemFs::new();
    let id = prefill
        .call(&mut main, "create", 0, || fs.create(ROOT_ID, &CR_PATH[1..]))
        .expect("fresh namespace")
        .id;
    let mut chunk = vec![0u8; CR_CALL_BYTES as usize];
    for (c, off) in (0..file_bytes).step_by(CR_CALL_BYTES as usize).enumerate() {
        for (b, blk) in chunk.chunks_mut(CR_BLOCK as usize).enumerate() {
            fill(seed, key(c as u64 * CR_BLOCKS_PER_CALL + b as u64, 0), blk);
        }
        prefill
            .call(&mut main, "write", CR_CALL_BYTES, || {
                fs.write(id, off, &chunk)
            })
            .expect("prefill write");
    }

    let OneServer {
        kernel,
        obs,
        cluster,
        fabric,
        server,
    } = one_server(&fs);
    let sid = server.host.id;
    let shared = Arc::new(Shared::new(opts.traced));
    let sh = shared.clone();
    let corrupt_on = opts.corrupt;
    let world = mpiio::comm::spawn_ranks(
        &kernel,
        &cluster,
        CommCost::default(),
        CR_RANKS,
        move |ctx, comm| {
            let rank = comm.rank();
            let host = comm.host().clone();
            set_current_host(&host);
            let now = vnow(ctx);
            let mut lane = Lane::new(rank as u32 + 1, sh.traced, 2 * iters as usize + 4);
            let req0 = (rank as u64 + 1) << 32;
            lane.enter("bench", "rank", 0, now());
            let nic = fabric.open_nic(host.clone());
            let (client, _) = lane.call("dafs", "connect", req0, &now, || {
                DafsClient::connect(ctx, &fabric, &nic, sid, PORT, DafsClientConfig::default())
            });
            let adio = DafsAdio::new(Arc::new(client.expect("DAFS session to an up server")));
            let (file, _) = lane.call("mpiio", "open", req0 + 1, &now, || {
                MpiFile::open(
                    ctx,
                    &adio,
                    &host,
                    CR_PATH,
                    OpenMode::open(),
                    Hints::default(),
                )
            });
            let file = file.expect("prefilled file opens");
            let etype = Datatype::bytes(CR_BLOCK);
            let filetype = Datatype::resized(
                &Datatype::hindexed(&[(1, (rank as u64 * CR_BLOCK) as i64)], &etype),
                0,
                CR_RANKS as u64 * CR_BLOCK,
            );
            file.set_view(0, &etype, &filetype);
            let src = host.mem.alloc(CR_CALL_BYTES as usize);
            let dst = host.mem.alloc(CR_CALL_BYTES as usize);
            let mut got = vec![0u8; CR_BLOCK as usize];
            let mut want = vec![0u8; CR_BLOCK as usize];
            sh.setup_done();
            lane.call("mpiio", "barrier", 0, &now, || comm.barrier(ctx));
            let t0 = now();
            let mut failed = 0;
            for i in 0..iters {
                for j in 0..CR_BLOCKS_PER_CALL {
                    fill(seed, key(cr_block(rank, i, j), 1), &mut want);
                    host.mem.write(src.offset(j * CR_BLOCK), &want);
                }
                let req = req0 + 2 + 2 * i;
                ctx.advance(SimDuration::from_nanos(thinks[rank][2 * i as usize]));
                let w = lane.op(0, "mpiio", "write_at_all", req, CR_CALL_BYTES, &now, || {
                    write_at_all(ctx, comm, &file, i * CR_BLOCKS_PER_CALL, src, CR_CALL_BYTES)
                });
                ctx.advance(SimDuration::from_nanos(thinks[rank][2 * i as usize + 1]));
                let r = lane.op(
                    1,
                    "mpiio",
                    "read_at_all",
                    req + 1,
                    CR_CALL_BYTES,
                    &now,
                    || read_at_all(ctx, comm, &file, i * CR_BLOCKS_PER_CALL, dst, CR_CALL_BYTES),
                );
                if corrupt_on && rank == 0 && i == 0 {
                    corrupt(&host, dst);
                }
                let same = (0..CR_BLOCKS_PER_CALL).all(|j| {
                    let k = key(cr_block(rank, i, j), 1);
                    matches(
                        &host,
                        dst.offset(j * CR_BLOCK),
                        seed,
                        k,
                        &mut got,
                        &mut want,
                    )
                });
                failed += u64::from(w.ok() != Some(CR_CALL_BYTES));
                failed += u64::from(r.ok() != Some(CR_CALL_BYTES) || !same);
            }
            sh.phase(t0, now());
            sh.fail(failed);
            sh.sample_threads();
            lane.exit(now());
            sh.push_lane(lane);
        },
    );
    let (end, run, bufstat) = run_sim(&mut main, "run", || kernel.run(), |e| e.as_nanos());
    let Finished {
        setup,
        mut lanes,
        mut failed,
        threads_peak,
        phase_ns,
    } = shared.finish();

    let mut verify = MemfsCost::default();
    failed += u64::from(fs.getattr(id).map(|a| a.size).ok() != Some(file_bytes));
    for (c, off) in (0..file_bytes).step_by(CR_CALL_BYTES as usize).enumerate() {
        let bytes = verify
            .call(&mut main, "read", CR_CALL_BYTES, || {
                fs.read(id, off, CR_CALL_BYTES)
            })
            .expect("file still exists");
        for (b, blk) in bytes.chunks(CR_BLOCK as usize).enumerate() {
            fill(
                seed,
                key(c as u64 * CR_BLOCKS_PER_CALL + b as u64, 1),
                &mut chunk[..CR_BLOCK as usize],
            );
            failed += u64::from(blk != &chunk[..CR_BLOCK as usize]);
        }
    }
    lanes.sort_by_key(|l| l.id());
    let server_busy_ns = server.host.cpu.busy().as_nanos();
    WorkOut {
        op_names: CR_KINDS,
        end_ns: end.as_nanos(),
        phase_ns,
        lanes,
        main_lane: main,
        snapshot: obs.snapshot(end.as_nanos()),
        server_busy_ns,
        servers: 1,
        comm_bytes: world.traffic().bytes,
        failed,
        threads_peak,
        t_start,
        setup,
        run,
        buf: bufstat,
        prefill,
        verify,
    }
}

// --- fabric_incast ---------------------------------------------------------

const FI_RANKS: usize = 64;
const FI_SERVERS: usize = 4;
const FI_OVERSUB: u64 = 4;
const FI_REQ: u64 = 256 * KIB;
const FI_ITERS: u64 = 4;
const FI_SMOKE_ITERS: u64 = 1;
const FI_THINK_NS: u64 = 200_000;
/// The striped driver's default stripe unit.
const FI_STRIPE: u64 = 64 * KIB;
const FI_KINDS: &[&str] = &["write_at", "read_at"];
const FI_PATH: &str = "/incast.dat";

fn fabric_incast(opts: &Opts) -> WorkOut {
    let seed = opts.seed;
    let iters = if opts.smoke { FI_SMOKE_ITERS } else { FI_ITERS };
    let file_bytes = FI_RANKS as u64 * iters * FI_REQ;
    let thinks: Vec<Vec<u64>> = (0..FI_RANKS)
        .map(|r| {
            let mut g = Rng::new(seed, &[3, r as u64]);
            (0..2 * iters).map(|_| g.below(FI_THINK_NS + 1)).collect()
        })
        .collect();

    let t_start = Instant::now();
    let mut main = Lane::new(0, opts.traced, (file_bytes / FI_STRIPE) as usize + 4);
    // `Testbed::switched(64, 4, 4)` with the program's own tracer off.
    let tb = Testbed::switched_with(FI_RANKS, FI_SERVERS, FI_OVERSUB, 1, Obs::disabled(), None);
    let pieces = tb.server_fss.clone();
    let shared = Arc::new(Shared::new(opts.traced));
    let sh = shared.clone();
    let corrupt_on = opts.corrupt;
    let (report, run, bufstat) = run_sim(
        &mut main,
        "testbed_run",
        || {
            tb.run(FI_RANKS, move |ctx, comm, adio| {
                let rank = comm.rank();
                let host = comm.host().clone();
                let now = vnow(ctx);
                let mut lane = Lane::new(rank as u32 + 1, sh.traced, 2 * iters as usize + 4);
                let req0 = (rank as u64 + 1) << 32;
                lane.enter("bench", "rank", 0, now());
                let (file, _) = lane.call("mpiio", "open", req0, &now, || {
                    MpiFile::open(
                        ctx,
                        adio,
                        &host,
                        FI_PATH,
                        OpenMode::create(),
                        Hints::default(),
                    )
                });
                let file = file.expect("striped create succeeds");
                let src = host.mem.alloc(FI_REQ as usize);
                let dst = host.mem.alloc(FI_REQ as usize);
                let mut got = vec![0u8; FI_REQ as usize];
                let mut want = vec![0u8; FI_REQ as usize];
                sh.setup_done();
                lane.call("mpiio", "barrier", 0, &now, || comm.barrier(ctx));
                let t0 = now();
                let mut failed = 0;
                for k in 0..iters {
                    let q = k * FI_RANKS as u64 + rank as u64;
                    fill(seed, key(q, 1), &mut want);
                    host.mem.write(src, &want);
                    let req = req0 + 1 + 2 * k;
                    ctx.advance(SimDuration::from_nanos(thinks[rank][2 * k as usize]));
                    let w = lane.op(0, "mpiio", "write_at", req, FI_REQ, &now, || {
                        file.write_at(ctx, q * FI_REQ, src, FI_REQ)
                    });
                    ctx.advance(SimDuration::from_nanos(thinks[rank][2 * k as usize + 1]));
                    let r = lane.op(1, "mpiio", "read_at", req + 1, FI_REQ, &now, || {
                        file.read_at(ctx, q * FI_REQ, dst, FI_REQ)
                    });
                    if corrupt_on && rank == 0 && k == 0 {
                        corrupt(&host, dst);
                    }
                    let same = matches(&host, dst, seed, key(q, 1), &mut got, &mut want);
                    failed += u64::from(w.ok() != Some(FI_REQ));
                    failed += u64::from(r.ok() != Some(FI_REQ) || !same);
                }
                sh.phase(t0, now());
                sh.fail(failed);
                sh.sample_threads();
                lane.exit(now());
                sh.push_lane(lane);
            })
        },
        |r| r.end_time.as_nanos(),
    );
    let Finished {
        setup,
        mut lanes,
        mut failed,
        threads_peak,
        phase_ns,
    } = shared.finish();

    // Reassemble the logical file from the servers' piece files: logical
    // stripe g lives on server g % n at local stripe g / n.
    let mut verify = MemfsCost::default();
    let n = FI_SERVERS as u64;
    let piece_ids: Vec<Option<NodeId>> = pieces
        .iter()
        .map(|fs| fs.resolve(FI_PATH).ok().map(|a| a.id))
        .collect();
    let mut want = vec![0u8; FI_REQ as usize];
    for q in 0..file_bytes / FI_REQ {
        fill(seed, key(q, 1), &mut want);
        for s in 0..FI_REQ / FI_STRIPE {
            let g = q * (FI_REQ / FI_STRIPE) + s;
            let server = (g % n) as usize;
            let local = (g / n) * FI_STRIPE;
            let got = piece_ids[server].and_then(|id| {
                verify
                    .call(&mut main, "read", FI_STRIPE, || {
                        pieces[server].read(id, local, FI_STRIPE)
                    })
                    .ok()
            });
            let lo = (s * FI_STRIPE) as usize;
            failed += u64::from(got.as_deref() != Some(&want[lo..lo + FI_STRIPE as usize]));
        }
    }
    drop(pieces);
    lanes.sort_by_key(|l| l.id());
    WorkOut {
        op_names: FI_KINDS,
        end_ns: report.end_time.as_nanos(),
        phase_ns,
        lanes,
        main_lane: main,
        server_busy_ns: report.server_cpu.as_nanos(),
        snapshot: report.snapshot,
        servers: FI_SERVERS as u64,
        comm_bytes: 0,
        failed,
        threads_peak,
        t_start,
        setup,
        run,
        buf: bufstat,
        prefill: MemfsCost::default(),
        verify,
    }
}
