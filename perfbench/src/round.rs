//! State one round shares between the main thread and the simulated
//! clients, and what a workload hands back when its round ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::Snapshot;

use crate::host::{allocs, thread_cpu_ns, Status, Usage};
use crate::trace::Lane;

/// Command-line options of one round.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Record spans.
    pub traced: bool,
    /// Smoke size: a few ops per client, for the self-tests.
    pub smoke: bool,
    /// Flip one byte of one read-back buffer before it is checked.
    pub corrupt: bool,
    /// Directory for the span file (traced rounds).
    pub out: Option<std::path::PathBuf>,
}

/// Host readings taken at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Wall clock.
    pub wall: Instant,
    /// Process CPU and context switches.
    pub usage: Usage,
    /// Process allocations so far.
    pub allocs: u64,
}

impl Mark {
    /// Read every host clock now.
    pub fn now() -> Mark {
        Mark {
            wall: Instant::now(),
            usage: Usage::now(),
            allocs: allocs(),
        }
    }
}

/// Shared by every actor of one round.
pub struct Shared {
    /// Whether lanes record spans.
    pub traced: bool,
    setup: Mutex<Option<Mark>>,
    threads_peak: AtomicU64,
    lanes: Mutex<Vec<Lane>>,
    failed: AtomicU64,
    phase_start: AtomicU64,
    phase_end: AtomicU64,
}

impl Shared {
    /// Fresh state for a round.
    pub fn new(traced: bool) -> Shared {
        Shared {
            traced,
            setup: Mutex::new(None),
            threads_peak: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            failed: AtomicU64::new(0),
            phase_start: AtomicU64::new(u64::MAX),
            phase_end: AtomicU64::new(0),
        }
    }

    /// A client has connected and opened its file. Actors run one at a
    /// time, so the last caller's mark is the instant set-up ended.
    pub fn setup_done(&self) {
        self.sample_threads();
        *self.setup.lock().expect("no actor panics holding the mark") = Some(Mark::now());
    }

    /// Record the current OS thread count into the peak.
    pub fn sample_threads(&self) {
        self.threads_peak
            .fetch_max(Status::now().threads, Ordering::Relaxed);
    }

    /// The measured phase of one client spans virtual `[start, end)`.
    pub fn phase(&self, start: u64, end: u64) {
        self.phase_start.fetch_min(start, Ordering::Relaxed);
        self.phase_end.fetch_max(end, Ordering::Relaxed);
    }

    /// Count `n` failed ops or mismatching blocks.
    pub fn fail(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    /// Hand a finished client lane back to the main thread.
    pub fn push_lane(&self, lane: Lane) {
        self.lanes
            .lock()
            .expect("no actor panics holding the lanes")
            .push(lane);
    }

    /// Take the round's results once the simulation has ended.
    pub fn finish(&self) -> Finished {
        let setup = self
            .setup
            .lock()
            .expect("mark lock")
            .expect("every workload marks the end of set-up");
        Finished {
            setup,
            lanes: std::mem::take(&mut *self.lanes.lock().expect("lanes lock")),
            failed: self.failed.load(Ordering::Relaxed),
            threads_peak: self.threads_peak.load(Ordering::Relaxed),
            phase_ns: self.phase_end.load(Ordering::Relaxed)
                - self.phase_start.load(Ordering::Relaxed),
        }
    }
}

/// What the actors of a finished round left in [`Shared`].
pub struct Finished {
    /// Host readings when the last client finished set-up.
    pub setup: Mark,
    /// Client lanes, in the order the clients finished.
    pub lanes: Vec<Lane>,
    /// Failed ops counted by the clients.
    pub failed: u64,
    /// Peak OS threads sampled.
    pub threads_peak: u64,
    /// Virtual span of the measured phase over all clients.
    pub phase_ns: u64,
}

/// Host CPU spent in calls into memfs from the main thread, and the bytes
/// those calls moved.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemfsCost {
    /// Thread CPU nanoseconds.
    pub cpu_ns: u64,
    /// Bytes written or read.
    pub bytes: u64,
}

impl MemfsCost {
    /// Run one memfs call of `bytes` bytes on the main lane, charging its
    /// thread CPU time here and recording a span if the lane is traced.
    pub fn call<R>(
        &mut self,
        lane: &mut Lane,
        op: &'static str,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let c0 = thread_cpu_ns();
        let (r, _) = lane.call("memfs", op, 0, || 0, f);
        self.cpu_ns += thread_cpu_ns() - c0;
        self.bytes += bytes;
        r
    }
}

/// Everything one workload round hands back to the report.
pub struct WorkOut {
    /// Names of the measured op kinds, indexed by `Sample::kind`.
    pub op_names: &'static [&'static str],
    /// Virtual time the run ended, nanoseconds.
    pub end_ns: u64,
    /// Virtual span of the measured phase over all clients.
    pub phase_ns: u64,
    /// Client lanes, in lane order.
    pub lanes: Vec<Lane>,
    /// The main thread's lane (memfs calls and the run itself).
    pub main_lane: Lane,
    /// The program's metrics registry at the end of the run.
    pub snapshot: Snapshot,
    /// Server CPU busy time, summed over servers, nanoseconds.
    pub server_busy_ns: u64,
    /// Number of file servers.
    pub servers: u64,
    /// MPI point-to-point payload bytes (0 where the job harness does
    /// not expose its communicator).
    pub comm_bytes: u64,
    /// Ops that failed or read back wrong bytes, plus wrong server blocks.
    pub failed: u64,
    /// Peak OS threads sampled during the round.
    pub threads_peak: u64,
    /// Wall clock at workload start.
    pub t_start: Instant,
    /// Host readings when the last client finished set-up.
    pub setup: Mark,
    /// Host readings just before and just after the simulation ran.
    pub run: (Mark, Mark),
    /// Buffer bytes materialized and peak alive during the run.
    pub buf: (u64, u64),
    /// Memfs prefill and verification costs.
    pub prefill: MemfsCost,
    /// Verification reads of the final server image.
    pub verify: MemfsCost,
}

/// Run the simulation proper, bracketed by host marks and recorded as the
/// main lane's `sim` span.
pub fn run_sim<R>(
    main: &mut Lane,
    op: &'static str,
    run: impl FnOnce() -> R,
    end_of: impl Fn(&R) -> u64,
) -> (R, (Mark, Mark), (u64, u64)) {
    simnet::buf::reset_bytes_peak();
    let total0 = simnet::buf::bytes_total();
    let m0 = Mark::now();
    main.enter("sim", op, 0, 0);
    let r = run();
    let end = end_of(&r);
    main.exit(end);
    let m1 = Mark::now();
    let buf = (
        simnet::buf::bytes_total() - total0,
        simnet::buf::bytes_peak(),
    );
    (r, (m0, m1), buf)
}
