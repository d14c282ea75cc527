//! Conservative discrete-event kernel with threaded actors.
//!
//! Each simulated process (an MPI rank, a file server, a helper) runs on its
//! own OS thread, but the kernel admits **exactly one runnable actor at a
//! time** — always the one with the smallest local virtual time. Actors
//! voluntarily yield whenever they advance their clock (`advance`, `compute`,
//! `sleep_until`) or block on a [`Port`](crate::port::Port). Because no actor
//! ever runs "ahead" of a pending earlier event, message delivery is globally
//! causal and the whole simulation is deterministic: the same program and
//! seed produce a bit-identical virtual timeline on every run.
//!
//! Dispatch is a direct handoff. An actor that blocks picks the next event
//! itself, under the scheduler lock it already holds
//! (`SchedState::grant_next`), and signals that actor's private condvar:
//! one context switch per event. When the grant falls to the blocking actor
//! itself — a lone `advance`, or a wake it scheduled that is still the
//! earliest — it returns without parking at all. The scheduler thread only
//! makes the first grant and then decides how the run ends (completion,
//! deadlock or an actor panic); it sleeps while actors pass the token among
//! themselves.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use obs::{Obs, Registry, Value};
use parking_lot::{Condvar, Mutex};

use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one [`SimKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Lifecycle state of an actor, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorState {
    /// Created but its thread has not reached its first yield yet.
    Starting,
    /// Selected by the scheduler; its thread may run.
    Running,
    /// Parked; will run again when a wake event with its current generation
    /// fires.
    Blocked,
    /// Its closure returned.
    Done,
}

struct ActorSlot {
    name: Arc<str>,
    state: ActorState,
    /// Incremented on every block; wake events carry the generation they
    /// target, so stale wakes (superseded by an earlier one) are discarded.
    generation: u64,
    daemon: bool,
    join: Option<JoinHandle<()>>,
    /// The actor's local clock, shared with its `ActorCtx` (which reads it
    /// lock-free); kept in the slot so the scheduler and wakers touch it
    /// under the one `state` lock they already hold.
    clock: Arc<AtomicU64>,
    /// Private wake signal: the scheduler wakes exactly the actor whose turn
    /// it is instead of broadcasting to every parked thread.
    cv: Arc<Condvar>,
    /// Earliest wake already queued for the *current* generation, if any.
    /// Later wakes at the same or a greater time are coalesced away (the
    /// earlier event supersedes them once the actor re-blocks), which keeps
    /// the heap small under fan-in.
    pending_wake: Option<SimTime>,
}

/// One scheduled wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: SimTime,
    /// Global tiebreak sequence: events at equal times fire in creation
    /// order, which is itself deterministic.
    seq: u64,
    actor: ActorId,
    generation: u64,
}

#[derive(Default)]
struct SchedState {
    actors: Vec<ActorSlot>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Still-valid events drained from the heap in one batch pass — the
    /// earliest event plus everything sharing its timestamp, FIFO by
    /// sequence number. Serving a same-time burst then costs one O(1)
    /// queue front per grant instead of one O(log n) heap pop, which is
    /// the hot case under fan-in (many actors woken at one delivery
    /// time). Events pushed while the batch drains carry later sequence
    /// numbers and never earlier times (wakes are stamped at or past the
    /// waker's clock, which has reached the batch time), so batch order
    /// is exactly the (time, seq) order the one-pop scheduler dispatched.
    ready: VecDeque<Event>,
    seq: u64,
    /// Actor currently allowed to run, if any.
    current: Option<ActorId>,
    /// Set when an actor panicked; the scheduler propagates it.
    poisoned: Option<String>,
    /// Virtual end time observed so far (max of all actor clocks).
    horizon: SimTime,
}

impl SchedState {
    /// Serve the earliest still-valid event: mark its actor running, move
    /// its clock and the horizon to the event time, and make it `current`.
    /// Returns the granted actor and its wake signal, or `None` (with
    /// `current` cleared) when no event is pending.
    ///
    /// The ready batch refills from the heap when it runs dry: one pass
    /// drains the earliest event plus every event sharing its timestamp
    /// (see [`SchedState::ready`] for why batch order is dispatch order).
    fn grant_next(&mut self, trace: bool) -> Option<(ActorId, Arc<Condvar>)> {
        let ev = loop {
            if self.ready.is_empty() {
                while let Some(&Reverse(top)) = self.queue.peek() {
                    if self.ready.front().is_some_and(|b| top.time > b.time) {
                        break;
                    }
                    self.queue.pop();
                    // Stale (superseded wake or finished actor): a
                    // generation never rolls back, so staleness is permanent
                    // and early discard is safe.
                    if self.is_live(&top) {
                        self.ready.push_back(top);
                    }
                }
            }
            let Some(ev) = self.ready.pop_front() else {
                self.current = None;
                return None;
            };
            // Re-validate at serve time: an actor granted earlier in this
            // batch has re-blocked under a new generation, staling any event
            // it left behind.
            if self.is_live(&ev) {
                break ev;
            }
        };
        self.horizon = self.horizon.max(ev.time);
        let slot = &mut self.actors[ev.actor.0];
        slot.state = ActorState::Running;
        slot.pending_wake = None;
        // Advance the actor's clock to the wake time; it may be ahead
        // already (e.g. a message arrived in its past).
        slot.clock.fetch_max(ev.time.as_nanos(), Ordering::Relaxed);
        let cv = slot.cv.clone();
        self.current = Some(ev.actor);
        if trace {
            eprintln!("[sim {:>12}] run {} ({})", ev.time, ev.actor, slot.name);
        }
        Some((ev.actor, cv))
    }

    /// Whether `ev` still targets its actor's current wait.
    fn is_live(&self, ev: &Event) -> bool {
        let slot = &self.actors[ev.actor.0];
        slot.generation == ev.generation
            && matches!(slot.state, ActorState::Blocked | ActorState::Starting)
    }
}

pub(crate) struct KernelInner {
    state: Mutex<SchedState>,
    /// Signalled when the token comes back to the scheduler thread: nothing
    /// is runnable, or an actor panicked.
    scheduler_cv: Condvar,
    /// Global trace flag (diagnostics only).
    trace: AtomicU64,
    /// Observability handle shared by every actor: structured tracer plus
    /// the metrics registry. Never advances virtual time.
    obs: Obs,
}

/// Process-wide count of scheduled events, accumulated as kernels finish.
/// Purely a wall-clock harness statistic (sim-events/sec); never feeds back
/// into virtual time.
static EVENTS_GLOBAL: AtomicU64 = AtomicU64::new(0);

/// Total events scheduled by every completed [`SimKernel::run`] in this
/// process so far. Bench harnesses read the delta around an experiment to
/// report real-time throughput.
pub fn events_scheduled_global() -> u64 {
    EVENTS_GLOBAL.load(Ordering::Relaxed)
}

impl KernelInner {
    fn trace_on(&self) -> bool {
        self.trace.load(Ordering::Relaxed) != 0
    }

    /// Pass the token on from `me`, the actor that just stopped running:
    /// grant the next event and wake its actor, or wake the scheduler
    /// thread when nothing is runnable. Returns whether `me` itself was
    /// granted; a self-grant wakes no one, so the caller carries on
    /// without parking.
    fn hand_off(&self, st: &mut SchedState, me: ActorId) -> bool {
        match st.grant_next(self.trace_on()) {
            Some((next, _)) if next == me => true,
            Some((_, cv)) => {
                cv.notify_one();
                false
            }
            None => {
                self.scheduler_cv.notify_one();
                false
            }
        }
    }
}

/// The simulation kernel. Create one, [`spawn`](SimKernel::spawn) actors,
/// then [`run`](SimKernel::run) to completion.
pub struct SimKernel {
    inner: Arc<KernelInner>,
}

impl Default for SimKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SimKernel {
    /// Create a new instance with default state. Structured tracing follows
    /// the environment: when `MPIO_DAFS_TRACE=<path>` is set, every actor's
    /// events append to that file as JSON lines.
    pub fn new() -> SimKernel {
        SimKernel::with_obs(Obs::from_env())
    }

    /// Create a kernel with an explicit observability handle (tests use
    /// [`Obs::buffered`] to capture the trace deterministically in memory;
    /// [`Obs::disabled`] turns event emission off).
    pub fn with_obs(obs: Obs) -> SimKernel {
        SimKernel {
            inner: Arc::new(KernelInner {
                state: Mutex::new(SchedState::default()),
                scheduler_cv: Condvar::new(),
                trace: AtomicU64::new(0),
                obs,
            }),
        }
    }

    /// The kernel's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Enable or disable stderr event tracing (debugging aid).
    pub fn set_trace(&self, on: bool) {
        self.inner.trace.store(on as u64, Ordering::Relaxed);
    }

    /// Spawn a regular actor. The simulation does not finish until every
    /// non-daemon actor's closure has returned.
    pub fn spawn<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, false, body)
    }

    /// Spawn a daemon actor (e.g. a server loop). Daemons may still be
    /// blocked when the simulation ends; the kernel does not wait for them.
    pub fn spawn_daemon<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, true, body)
    }

    fn spawn_inner<F>(&self, name: &str, daemon: bool, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        let inner = self.inner.clone();
        let mut st = inner.state.lock();
        let id = ActorId(st.actors.len());
        let clock = Arc::new(AtomicU64::new(0));
        let cv = Arc::new(Condvar::new());
        let name: Arc<str> = Arc::from(name);

        let thread_inner = inner.clone();
        let thread_name = format!("sim-{}-{}", id.0, name);
        inner.obs.registry().counter("sim.actors.spawned").inc();
        let ctx = ActorCtx {
            id,
            name: name.clone(),
            kernel: thread_inner.clone(),
            clock: clock.clone(),
            cv: cv.clone(),
        };
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                // Wait for our first turn before touching any shared state.
                ctx.wait_for_turn();
                ctx.trace("sim", "actor.start", &[("daemon", Value::Bool(daemon))]);
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                ctx.trace("sim", "actor.exit", &[("ok", Value::Bool(result.is_ok()))]);
                let mut st = thread_inner.state.lock();
                if let Err(payload) = result {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "actor panicked".to_string());
                    let name = st.actors[ctx.id.0].name.clone();
                    st.poisoned = Some(format!("actor '{name}' panicked: {msg}"));
                }
                st.actors[ctx.id.0].state = ActorState::Done;
                if st.poisoned.is_some() {
                    st.current = None;
                    thread_inner.scheduler_cv.notify_one();
                } else {
                    thread_inner.hand_off(&mut st, ctx.id);
                }
            })
            .expect("failed to spawn actor thread");

        st.actors.push(ActorSlot {
            name,
            state: ActorState::Starting,
            generation: 0,
            daemon,
            join: Some(join),
            clock,
            cv,
            pending_wake: Some(SimTime::ZERO),
        });
        // Schedule the actor's first run at t=0 (or at the caller's time when
        // spawned from inside the simulation — see ActorCtx::spawn).
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Event {
            time: SimTime::ZERO,
            seq,
            actor: id,
            generation: 0,
        }));
        id
    }

    /// Drive the simulation until every non-daemon actor has finished.
    ///
    /// Returns the virtual end time (the max clock reached by any actor).
    /// Panics if any actor panicked, or on deadlock (no runnable actor, no
    /// pending event, and some non-daemon actor still blocked).
    pub fn run(self) -> SimTime {
        let inner = self.inner.clone();
        let mut st = inner.state.lock();
        loop {
            if let Some(msg) = st.poisoned.take() {
                drop(st);
                self.detach_threads();
                panic!("{msg}");
            }
            if st.current.is_some() {
                // Actors hand the token to each other directly; it comes
                // back here only when nothing is runnable or one panicked.
                inner.scheduler_cv.wait(&mut st);
                continue;
            }
            if let Some((_, cv)) = st.grant_next(inner.trace_on()) {
                cv.notify_one();
                continue;
            }
            // No events. Either we're done, or we're deadlocked.
            let blocked_nondaemon: Vec<String> = st
                .actors
                .iter()
                .filter(|a| !a.daemon && a.state != ActorState::Done)
                .map(|a| a.name.to_string())
                .collect();
            if !blocked_nondaemon.is_empty() {
                drop(st);
                self.detach_threads();
                panic!(
                    "simulation deadlock: no pending events but actors {:?} \
                     are still blocked",
                    blocked_nondaemon
                );
            }
            let end = st.horizon;
            // Total events ever scheduled (including superseded wakes): the
            // denominator for wall-clock sim-events/sec harness throughput.
            let events = st.seq;
            drop(st);
            self.detach_threads();
            EVENTS_GLOBAL.fetch_add(events, Ordering::Relaxed);
            inner.obs.registry().counter("sim.events.total").add(events);
            // Close out the trace: final registry snapshot at the virtual end
            // time, then flush the sink.
            inner.obs.emit_snapshot(end.as_nanos());
            return end;
        }
    }

    /// Join finished actor threads and detach daemons (they are parked on a
    /// condvar and hold only Arcs; dropping the kernel lets the process exit).
    fn detach_threads(&self) {
        let handles: Vec<(bool, Option<JoinHandle<()>>)> = {
            let mut st = self.inner.state.lock();
            st.actors
                .iter_mut()
                .map(|a| (a.state == ActorState::Done, a.join.take()))
                .collect()
        };
        for (done, handle) in handles {
            if let Some(h) = handle {
                if done {
                    let _ = h.join();
                }
                // Blocked daemons are left parked; their threads are detached.
            }
        }
    }
}

/// Handle given to each actor; all virtual-time operations go through it.
///
/// `ActorCtx` is deliberately not `Clone`: it is owned by exactly one actor
/// thread and must not leak to another.
pub struct ActorCtx {
    id: ActorId,
    name: Arc<str>,
    kernel: Arc<KernelInner>,
    clock: Arc<AtomicU64>,
    /// This actor's private wake signal (also held by its `ActorSlot`).
    cv: Arc<Condvar>,
}

impl ActorCtx {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's name (as passed to `spawn`); stamps trace events.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulation-wide observability handle.
    pub fn obs(&self) -> &Obs {
        &self.kernel.obs
    }

    /// The simulation-wide metrics registry (always live).
    pub fn metrics(&self) -> &Registry {
        self.kernel.obs.registry()
    }

    /// Emit one structured trace event stamped with this actor's name and
    /// current virtual time. Costs a single branch when tracing is off.
    #[inline]
    pub fn trace(&self, layer: &str, event: &str, fields: &[(&str, Value<'_>)]) {
        let obs = &self.kernel.obs;
        if obs.enabled() {
            obs.emit(self.now().as_nanos(), &self.name, layer, event, fields);
        }
    }

    /// Open a timed span over `{layer}.{op}`. On drop the span adds the
    /// elapsed virtual time to the `{layer}.{op}_ns` counter, bumps
    /// `{layer}.{op}.calls`, and (when tracing) emits one event carrying
    /// both endpoints. Spans never advance time themselves.
    pub fn span(&self, layer: &'static str, op: &'static str) -> Span<'_> {
        Span {
            ctx: self,
            layer,
            op,
            start: self.now(),
        }
    }

    /// Current local virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Relaxed))
    }

    /// Advance local time by `d`, yielding to the scheduler so that any
    /// other actor with earlier pending work runs first.
    pub fn advance(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.sleep_until(self.now() + d);
    }

    /// Sleep until the given instant (no-op if already past it).
    pub fn sleep_until(&self, t: SimTime) {
        if t <= self.now() {
            return;
        }
        self.block(Some(t));
    }

    /// Yield without advancing time: lets any same-time actor run first.
    pub fn yield_now(&self) {
        self.block(Some(self.now()));
    }

    /// Spawn a new actor from inside the simulation; it starts at the
    /// spawner's current time.
    pub fn spawn<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, false, body)
    }

    /// Spawn a daemon actor from inside the simulation (the run can end
    /// while it is still blocked — server-side connection handlers).
    pub fn spawn_daemon<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, true, body)
    }

    fn spawn_inner<F>(&self, name: &str, daemon: bool, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        let start = self.now();
        let kernel = SimKernel {
            inner: self.kernel.clone(),
        };
        let id = if daemon {
            kernel.spawn_daemon(name, body)
        } else {
            kernel.spawn(name, body)
        };
        // Re-stamp the initial event from t=0 to the spawn time.
        let mut st = self.kernel.state.lock();
        // The freshly pushed event has generation 0; supersede it.
        let slot = &mut st.actors[id.0];
        slot.generation += 1;
        let generation = slot.generation;
        slot.pending_wake = Some(start);
        slot.clock.store(start.as_nanos(), Ordering::Relaxed);
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Event {
            time: start,
            seq,
            actor: id,
            generation,
        }));
        drop(kernel); // temporary handle onto the shared kernel state
        id
    }

    /// Block until a wake event with the current generation fires.
    /// `wake_at`: optionally self-schedule a wake (sleep); external wakers
    /// (message sends) may add earlier wakes for the same generation.
    ///
    /// The caller grants the next event itself; when that event is its own
    /// wake, it returns without parking.
    pub(crate) fn block(&self, wake_at: Option<SimTime>) {
        let mut st = self.kernel.state.lock();
        debug_assert_eq!(st.current, Some(self.id), "yield from non-current actor");
        let slot = &mut st.actors[self.id.0];
        slot.state = ActorState::Blocked;
        slot.generation += 1;
        slot.pending_wake = wake_at;
        let generation = slot.generation;
        if let Some(t) = wake_at {
            let seq = st.seq;
            st.seq += 1;
            st.queue.push(Reverse(Event {
                time: t,
                seq,
                actor: self.id,
                generation,
            }));
        }
        if self.kernel.hand_off(&mut st, self.id) {
            return;
        }
        while st.current != Some(self.id) {
            self.cv.wait(&mut st);
        }
    }

    /// Park until this actor's first grant (the spawn wrapper runs it before
    /// the body; later turns come back through [`ActorCtx::block`]).
    fn wait_for_turn(&self) {
        let mut st = self.kernel.state.lock();
        while st.current != Some(self.id) {
            self.cv.wait(&mut st);
        }
    }

    /// Schedule a wake for a (possibly blocked) actor at time `t`.
    ///
    /// Used by message sends: if `target` is currently blocked, it will run
    /// at `max(t, its own clock)`; if it is running or already has an earlier
    /// wake, the extra event is harmless (stale generations are discarded,
    /// and a woken actor re-checks its condition).
    pub(crate) fn wake_actor_at(&self, target: ActorId, t: SimTime) {
        let mut st = self.kernel.state.lock();
        let slot = &mut st.actors[target.0];
        if slot.state == ActorState::Done {
            return;
        }
        let generation = slot.generation;
        let target_clock = SimTime(slot.clock.load(Ordering::Relaxed));
        let time = t.max(target_clock);
        // Coalesce: a wake at or after one already queued for this
        // generation can never fire (the earlier event runs the actor and
        // its next block bumps the generation, staling this one), so skip
        // the heap push. The sequence number still advances — `seq` is the
        // deterministic tiebreak *and* the scheduled-event total, and both
        // must not depend on heap occupancy.
        let redundant = slot.pending_wake.is_some_and(|pw| pw <= time);
        if !redundant {
            slot.pending_wake = Some(time);
        }
        let seq = st.seq;
        st.seq += 1;
        if redundant {
            return;
        }
        st.queue.push(Reverse(Event {
            time,
            seq,
            actor: target,
            generation,
        }));
    }
}

/// RAII virtual-time span (see [`ActorCtx::span`]).
///
/// Time spent between construction and drop — as measured on the actor's
/// *virtual* clock — accrues to the `{layer}.{op}_ns` counter, which the
/// bench reports aggregate into per-layer time-breakdown tables.
#[must_use = "a span measures the time until it is dropped"]
pub struct Span<'a> {
    ctx: &'a ActorCtx,
    layer: &'static str,
    op: &'static str,
    start: SimTime,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let start = self.start.as_nanos();
        let end = self.ctx.now().as_nanos();
        let elapsed = end.saturating_sub(start);
        let reg = self.ctx.kernel.obs.registry();
        let (ns, calls) = reg.span_counters(self.layer, self.op);
        ns.add(elapsed);
        calls.inc();
        self.ctx.trace(
            self.layer,
            self.op,
            &[
                ("start_ns", Value::U64(start)),
                ("elapsed_ns", Value::U64(elapsed)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Port;
    use crate::time::units::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_kernel_runs_to_zero() {
        let k = SimKernel::new();
        assert_eq!(k.run(), SimTime::ZERO);
    }

    #[test]
    fn single_actor_advances_time() {
        let k = SimKernel::new();
        k.spawn("a", |ctx| {
            ctx.advance(us(10));
            ctx.advance(us(5));
            assert_eq!(ctx.now(), SimTime::ZERO + us(15));
        });
        assert_eq!(k.run(), SimTime::ZERO + us(15));
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let k = SimKernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("slow", 10u64), ("fast", 3u64)] {
            let order = order.clone();
            k.spawn(name, move |ctx| {
                for i in 0..3 {
                    ctx.advance(us(step));
                    order.lock().push((ctx.now().as_nanos(), name, i));
                }
            });
        }
        k.run();
        let got = order.lock().clone();
        // Events must be globally sorted by virtual time.
        let times: Vec<u64> = got.iter().map(|e| e.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "interleaving violated time order: {got:?}");
        // fast: 3,6,9 then slow: 10, fast... exact sequence check:
        assert_eq!(got[0].1, "fast");
        assert_eq!(got[3].1, "slow");
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<(u64, usize)> {
            let k = SimKernel::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for a in 0..8usize {
                let log = log.clone();
                k.spawn(&format!("a{a}"), move |ctx| {
                    for _ in 0..50 {
                        ctx.advance(us((a as u64 * 7 + 3) % 11 + 1));
                        log.lock().push((ctx.now().as_nanos(), a));
                    }
                });
            }
            k.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn spawn_from_inside_starts_at_spawn_time() {
        let k = SimKernel::new();
        let child_start = Arc::new(AtomicU64::new(0));
        let cs = child_start.clone();
        k.spawn("parent", move |ctx| {
            ctx.advance(us(42));
            let cs = cs.clone();
            ctx.spawn("child", move |cctx| {
                cs.store(cctx.now().as_nanos(), Ordering::Relaxed);
            });
        });
        k.run();
        assert_eq!(child_start.load(Ordering::Relaxed), 42_000);
    }

    #[test]
    #[should_panic(expected = "panicked: boom")]
    fn actor_panic_propagates() {
        let k = SimKernel::new();
        k.spawn("bomber", |ctx| {
            ctx.advance(us(1));
            panic!("boom");
        });
        k.run();
    }

    #[test]
    fn daemon_does_not_block_completion() {
        let k = SimKernel::new();
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = ticks.clone();
        // A daemon that would sleep forever after its work.
        k.spawn_daemon("daemon", move |ctx| {
            ctx.advance(us(1));
            t.fetch_add(1, Ordering::Relaxed);
            // Block forever with no scheduled wake.
            ctx.block(None);
            unreachable!();
        });
        k.spawn("worker", |ctx| ctx.advance(us(100)));
        let end = k.run();
        assert_eq!(end, SimTime::ZERO + us(100));
        assert_eq!(ticks.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let k = SimKernel::new();
        k.spawn("stuck", |ctx| {
            ctx.block(None); // waits forever, not a daemon
        });
        k.run();
    }

    #[test]
    fn yield_now_preserves_time() {
        let k = SimKernel::new();
        k.spawn("y", |ctx| {
            ctx.advance(us(4));
            let t = ctx.now();
            ctx.yield_now();
            assert_eq!(ctx.now(), t);
        });
        k.run();
    }

    #[test]
    fn same_time_wakes_fire_in_creation_order_across_handoffs() {
        // Each round the hub wakes every receiver at one timestamp, in a
        // rotated order. The receivers then hand the token to each other
        // directly as each re-parks, and must run in wake-creation order
        // (the FIFO `seq` tie-break), not in actor-id order.
        const N: usize = 4;
        let k = SimKernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let ports: Vec<Port<usize>> = (0..N).map(|i| Port::new(&format!("r{i}"))).collect();
        for (i, port) in ports.iter().enumerate() {
            let (port, log) = (port.clone(), log.clone());
            k.spawn(&format!("r{i}"), move |ctx| {
                while let Some(round) = port.recv(ctx) {
                    log.lock().push((ctx.now().as_nanos(), round, i));
                }
            });
        }
        k.spawn("hub", move |ctx| {
            for round in 0..3 {
                ctx.advance(us(10));
                for j in 0..N {
                    ports[(j + round) % N].send(ctx, round, ctx.now() + us(5));
                }
            }
            // Close only after the last round is delivered: a close wakes
            // every parked receiver at once, in port order.
            ctx.advance(us(10));
            for port in &ports {
                port.close(ctx);
            }
        });
        k.run();
        let want: Vec<(u64, usize, usize)> = (0..3)
            .flat_map(|round| {
                let t = (10 * round as u64 + 15) * 1_000;
                (0..N).map(move |j| (t, round, (j + round) % N))
            })
            .collect();
        assert_eq!(*log.lock(), want);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mutual_recv_wait_after_handoffs_is_a_deadlock() {
        let k = SimKernel::new();
        let (ab, ba): (Port<u64>, Port<u64>) = (Port::new("a->b"), Port::new("b->a"));
        let (to_b, from_b) = (ab.clone(), ba.clone());
        k.spawn("a", move |ctx| {
            for i in 0..3 {
                to_b.send(ctx, i, ctx.now() + us(1));
                assert_eq!(from_b.recv(ctx), Some(i));
            }
            from_b.recv(ctx); // b never sends again
        });
        k.spawn("b", move |ctx| {
            for _ in 0..3 {
                let v = ab.recv(ctx).expect("ping");
                ba.send(ctx, v, ctx.now() + us(1));
            }
            ab.recv(ctx); // nor does a
        });
        k.run();
    }

    #[test]
    #[should_panic(expected = "panicked: boom after handoff")]
    fn panic_in_actor_granted_by_another_actor_propagates() {
        // "a" blocks at 1us and at 5us; each block grants "b" directly, so
        // b's fatal turn at 2us comes from a's handoff, not the scheduler.
        let k = SimKernel::new();
        k.spawn("a", |ctx| {
            ctx.advance(us(1));
            ctx.advance(us(5));
        });
        k.spawn("b", |ctx| {
            ctx.advance(us(2));
            panic!("boom after handoff");
        });
        k.run();
    }

    #[test]
    fn lone_actor_self_grants_every_step() {
        const STEPS: u64 = 100_000;
        let k = SimKernel::new();
        k.spawn("solo", |ctx| {
            for _ in 0..STEPS {
                ctx.advance(ns(1));
            }
        });
        assert_eq!(k.run(), SimTime::ZERO + ns(STEPS));
    }
}
