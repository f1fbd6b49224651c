//! The engine: a single-threaded event loop driving simulated processors
//! as resumable stackful coroutines.
//!
//! The Ready processor with the minimum effective clock (ties by id)
//! executes the next sync operation. A processor that must wait suspends
//! its coroutine and returns control to one event loop, which resumes
//! whichever processor's turn is next. One host core therefore executes any
//! cluster size with zero synchronization — no mutex, no condvars, no kernel
//! round trips — which is what makes 256-node runs practical.
//!
//! A processor yields at exactly two points, both inside [`Ctx::sync`]:
//!
//! * while it is not this processor's turn;
//! * while the processor is blocked awaiting [`Op::wake_at`].
//!
//! [`Ctx::advance`] never yields (local compute needs no global order).
//! Stolen cycles are folded when a processor enters `sync`, when its turn
//! begins, when it wakes, and when its body returns.
//!
//! A panicking processor poisons the run: every other coroutine is
//! force-unwound (running its destructors), and the first panic propagates
//! out of [`CoopEngine::run`]. The watchdog verdicts (cycle budget,
//! all-blocked deadlock) propagate the same way, as the panic message.
//!
//! The coroutine switcher in `vendor/coro` is hand-written assembly; its
//! thread-backed fallback (`--cfg tmk_coro_threads`) runs this same engine
//! on parked OS threads, and CI diffs the two builds' results.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic;
use std::sync::Arc;

use tmk_trace::{Category, Sink, TraceBuf};

use crate::sched::{
    budget_msg, compose_abort, DiagFn, Op, RunResult, Sched, State, Status, DEADLOCK_CAUSE,
};
use crate::Cycle;

/// Default coroutine stack size; override with the `TMK_CORO_STACK`
/// environment variable (bytes) or [`CoopEngine::with_stack_bytes`].
///
/// 2 MiB matches the default OS thread stack. Stacks are lazily committed
/// heap allocations, so a 256-node run reserves address space, not resident
/// memory.
fn default_stack_bytes() -> usize {
    std::env::var("TMK_CORO_STACK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2 * 1024 * 1024)
}

/// A deterministic multiprocessor simulation.
///
/// `M` is the *machine model*: caches, buses, networks, protocol state,
/// statistics — anything the simulated processors share. The engine
/// guarantees that closures passed to [`Ctx::sync`] observe `M` in
/// simulated-time order.
pub struct CoopEngine<M> {
    state: State<M>,
    diag: Option<DiagFn<M>>,
    nprocs: usize,
    stack_bytes: usize,
}

/// Per-processor handle passed to each simulated processor's body.
///
/// Cloning is not offered: one `Ctx` per processor, used from that
/// processor's coroutine only.
pub struct Ctx<'e, M> {
    run: &'e CoopRun<M>,
    id: usize,
    nprocs: usize,
}

/// Per-run shared state: the scheduler core in a `RefCell` (everything runs
/// on one thread) plus each processor's yielder so `Ctx` methods can
/// suspend the coroutine they are called from.
struct CoopRun<M> {
    state: RefCell<State<M>>,
    diag: Option<DiagFn<M>>,
    yielders: Vec<Cell<Option<coro::Yielder>>>,
}

impl<M> CoopRun<M> {
    /// Suspends processor `id`'s coroutine; returns when the event loop
    /// resumes it. Callers must not hold a `state` borrow across this.
    fn suspend(&self, id: usize) {
        self.yielders[id]
            .get()
            .expect("yielder installed before first resume")
            .suspend();
    }

    /// The body of [`Ctx::sync`] for processor `id`. A function of its own
    /// rather than written inside `Ctx::sync`: that way M-Water on AS-64
    /// measured 10–25% slower on a 2-core x86-64 host, most likely through
    /// different inlining at the many call sites.
    fn sync<R>(&self, id: usize, nprocs: usize, f: impl FnOnce(&mut Op<'_, M>) -> R) -> R {
        self.state.borrow_mut().sched.apply_stolen(id);
        // Wait for our turn. No poison check: the event loop never resumes a
        // waiter after poisoning — it force-unwinds it instead.
        while self.state.borrow().sched.min_ready() != Some(id) {
            self.suspend(id);
        }
        let (result, block) = {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            // Stolen cycles may have arrived while we waited for the turn;
            // fold them in so the operation starts at the effective clock.
            st.sched.apply_stolen(id);
            let clock_now = st.sched.clocks[id];
            if let Some(trace) = st.sched.trace.as_mut() {
                trace.push((id, clock_now));
            }
            if let Some(budget) = st.sched.budget {
                if clock_now > budget {
                    // Livelock watchdog: this processor ran past the cycle
                    // budget (e.g. an endless fault-retry loop). Take the
                    // whole simulation down with a diagnostic instead of
                    // spinning; the panic unwinds to the event loop, which
                    // propagates it.
                    let msg =
                        compose_abort(st, self.diag.as_ref(), &budget_msg(id, clock_now, budget));
                    drop(guard);
                    panic!("{msg}");
                }
            }

            let mut op = Op {
                state: &mut *st,
                id,
                nprocs,
                block: false,
                block_reason: None,
            };
            let result = f(&mut op);
            let block = op.block;
            let block_reason = op.block_reason.take();

            if block {
                st.sched.status[id] = Status::Blocked;
                st.sched.block_reason[id] = block_reason;
            }
            (result, block)
        };
        if block {
            while self.state.borrow().sched.status[id] == Status::Blocked {
                self.suspend(id);
            }
            self.state.borrow_mut().sched.apply_stolen(id);
        }
        result
    }
}

/// Raw-pointer wrapper used to move references into the (nominally `Send`)
/// coroutine closures. Sound: the coroutines run on the spawning thread and
/// are dropped before the referents. The accessor (not direct field access)
/// makes move closures capture the wrapper whole — edition-2021 disjoint
/// capture would otherwise capture only the non-`Send` pointer field.
struct SendPtr<T>(*const T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced on the thread that created it
// (or, under the thread-backed coroutine fallback, while that thread is
// parked in the handshake), and never after the referent is dropped.
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(self) -> *const T {
        self.0
    }
}

impl<M> CoopEngine<M> {
    /// Creates an engine simulating `nprocs` processors sharing `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn new(machine: M, nprocs: usize) -> Self {
        assert!(nprocs > 0, "a simulation needs at least one processor");
        CoopEngine {
            state: State {
                machine,
                sched: Sched::new(nprocs),
            },
            diag: None,
            nprocs,
            stack_bytes: default_stack_bytes(),
        }
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Arms the watchdog's cycle budget: the simulation aborts with a
    /// diagnostic dump if any processor's clock passes `budget` (livelock
    /// protection; deadlocks are caught unconditionally).
    pub fn with_cycle_budget(mut self, budget: Cycle) -> Self {
        self.state.sched.budget = Some(budget);
        self
    }

    /// Attaches a time-attribution tracer: every simulated cycle of every
    /// processor is charged to a `tmk_trace::Category` as the clocks
    /// advance, and (when the buffer keeps events) category spans appear
    /// on the processors' trace tracks. Tracing never alters clocks, so a
    /// traced run is cycle-identical to an untraced one.
    pub fn with_tracer(mut self, buf: Arc<TraceBuf>) -> Self {
        self.state.sched.tracer = Sink::new(buf);
        self
    }

    /// Installs a machine-state renderer appended to the watchdog's
    /// per-processor dump (lock holders, barrier occupancy, …).
    pub fn with_diagnostics(mut self, f: impl Fn(&M) -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Box::new(f));
        self
    }

    /// Turns the per-op `(pid, clock)` trace ([`RunResult::op_trace`]) on
    /// or off (default off).
    pub fn with_op_trace(mut self, on: bool) -> Self {
        self.state.sched.trace = on.then(Vec::new);
        self
    }

    /// Overrides the per-processor coroutine stack size (bytes).
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Runs `body` SPMD-style on every simulated processor and returns the
    /// machine plus final clocks once all bodies have returned. The whole
    /// run executes on the calling thread.
    ///
    /// # Panics
    ///
    /// If any body panics the simulation is poisoned, all other processors
    /// are unwound, and the first panic is propagated. A watchdog verdict
    /// propagates the same way.
    pub fn run<F>(self, body: F) -> RunResult<M>
    where
        F: Fn(&Ctx<'_, M>) + Send + Sync,
    {
        let CoopEngine {
            state,
            diag,
            nprocs,
            stack_bytes,
        } = self;
        let run = CoopRun {
            state: RefCell::new(state),
            diag,
            yielders: (0..nprocs).map(|_| Cell::new(None)).collect(),
        };

        let mut coros: Vec<coro::Coro> = (0..nprocs)
            .map(|id| {
                let run_ptr = SendPtr(&run as *const CoopRun<M>);
                let body_ptr = SendPtr(&body as *const F);
                // SAFETY: every coroutine is cancelled/dropped below, before
                // `run` and `body` go out of scope, and runs only on this
                // thread (the SendPtr wrappers never actually cross one).
                unsafe {
                    coro::Coro::new_unchecked(stack_bytes, move || {
                        let run = &*run_ptr.get();
                        let body = &*body_ptr.get();
                        body(&Ctx { run, id, nprocs });
                    })
                }
            })
            .collect();
        for (id, c) in coros.iter().enumerate() {
            run.yielders[id].set(Some(c.yielder()));
        }

        // The event loop: resume whichever processor's turn it is, in
        // simulated-time order, until everyone finished or the run dies.
        enum Pick {
            Done,
            Run(usize),
            Deadlock,
        }
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        loop {
            let pick = {
                let st = run.state.borrow();
                if st.sched.all_done() {
                    Pick::Done
                } else {
                    match st.sched.min_ready() {
                        Some(p) => Pick::Run(p),
                        None => Pick::Deadlock,
                    }
                }
            };
            match pick {
                Pick::Done => break,
                Pick::Run(p) => match coros[p].resume() {
                    coro::Resume::Yielded => {}
                    coro::Resume::Finished(payload) => {
                        let mut st = run.state.borrow_mut();
                        st.sched.apply_stolen(p);
                        st.sched.status[p] = Status::Finished;
                        if payload.is_some() {
                            first_panic = payload;
                            break;
                        }
                    }
                },
                Pick::Deadlock => {
                    // Nobody Ready, somebody Blocked: with every live
                    // processor parked and nothing in flight inside a sync
                    // op, no future event can wake anyone (lost wakeup or
                    // lost message).
                    let st = run.state.borrow();
                    first_panic = Some(Box::new(compose_abort(
                        &st,
                        run.diag.as_ref(),
                        DEADLOCK_CAUSE,
                    )));
                    break;
                }
            }
        }

        // Unwind every still-live coroutine (in pid order, deterministic)
        // so their stacks run destructors and release their borrows of
        // `run`/`body`, then either propagate the failure or collect.
        for c in coros.iter_mut() {
            c.cancel();
        }
        drop(coros);

        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }

        let mut state = run.state.into_inner();
        debug_assert!(state.sched.all_done());
        // A remote handler may charge a processor after it finished and did
        // its last apply_stolen; fold the remainder in so the reported
        // clocks are complete.
        for p in 0..nprocs {
            state.sched.apply_stolen(p);
        }
        RunResult {
            machine: state.machine,
            clocks: state.sched.clocks,
            op_trace: state.sched.trace.unwrap_or_default(),
        }
    }
}

impl<M> Ctx<'_, M> {
    /// This processor's id, in `0..nprocs`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charges `cycles` of purely local computation to this processor.
    ///
    /// Local time advances without waiting for other processors; ordering is
    /// only enforced for [`sync`](Self::sync) operations.
    pub fn advance(&self, cycles: Cycle) {
        let mut st = self.run.state.borrow_mut();
        let sched = &mut st.sched;
        sched.apply_stolen(self.id);
        sched
            .tracer
            .charge_span(self.id, Category::Compute, sched.clocks[self.id], cycles);
        sched.clocks[self.id] += cycles;
    }

    /// Current local clock (effective, including pending stolen cycles).
    pub fn now(&self) -> Cycle {
        self.run.state.borrow().sched.eff_clock(self.id)
    }

    /// Executes a globally ordered operation against the machine model.
    ///
    /// The closure runs when this processor holds the minimum effective
    /// clock among runnable processors, with exclusive access to the machine.
    /// If the closure calls [`Op::block`], this processor parks after the
    /// closure returns and `sync` only returns once another processor wakes
    /// it via [`Op::wake_at`]; callers typically loop, re-examining machine
    /// state on each iteration.
    ///
    /// # Panics
    ///
    /// Panics with the watchdog verdict if this processor's clock passed
    /// the cycle budget. Must not be called reentrantly from inside an `Op`
    /// closure (the run state is already borrowed).
    pub fn sync<R>(&self, f: impl FnOnce(&mut Op<'_, M>) -> R) -> R {
        self.run.sync(self.id, self.nprocs, f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// A tiny spin-free lock implemented with block/wake (the pattern the
    /// machine crates use).
    #[derive(Default)]
    struct TestLock {
        held: bool,
        queue: VecDeque<usize>,
        acquisitions: Vec<usize>,
    }

    fn lock(ctx: &Ctx<'_, TestLock>) {
        loop {
            let got = ctx.sync(|op| {
                let me = op.id();
                let m = op.machine();
                if !m.held {
                    m.held = true;
                    m.acquisitions.push(me);
                    true
                } else {
                    m.queue.push_back(me);
                    op.block();
                    false
                }
            });
            if got {
                return;
            }
        }
    }

    fn unlock(ctx: &Ctx<'_, TestLock>) {
        ctx.sync(|op| {
            let now = op.now();
            let next = {
                let m = op.machine();
                m.held = false;
                m.queue.pop_front()
            };
            if let Some(p) = next {
                op.wake_at(p, now + 5);
            }
        });
    }

    fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }
    #[test]
    fn single_proc_advances() {
        let engine = CoopEngine::new((), 1);
        let r = engine.run(|ctx| {
            ctx.advance(100);
            ctx.sync(|op| op.advance(10));
        });
        assert_eq!(r.time(), 110);
    }

    #[test]
    fn ops_execute_in_clock_order() {
        struct Log(Vec<(usize, Cycle)>);
        let engine = CoopEngine::new(Log(Vec::new()), 4);
        let r = engine.run(|ctx| {
            ctx.advance(10 * (4 - ctx.id() as Cycle));
            ctx.sync(|op| {
                let t = op.now();
                let id = op.id();
                op.machine().0.push((id, t));
            });
        });
        let order: Vec<usize> = r.machine.0.iter().map(|&(p, _)| p).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
        let times: Vec<Cycle> = r.machine.0.iter().map(|&(_, t)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ties_break_by_processor_id() {
        struct Log(Vec<usize>);
        let engine = CoopEngine::new(Log(Vec::new()), 3);
        let r = engine.run(|ctx| {
            ctx.sync(|op| {
                let id = op.id();
                op.machine().0.push(id);
            });
        });
        assert_eq!(r.machine.0, vec![0, 1, 2]);
    }

    #[test]
    fn block_wake_lock_is_fifo_in_time_order() {
        let engine = CoopEngine::new(TestLock::default(), 4);
        let r = engine.run(|ctx| {
            ctx.advance(ctx.id() as Cycle);
            lock(ctx);
            ctx.advance(100);
            unlock(ctx);
        });
        assert_eq!(r.machine.acquisitions, vec![0, 1, 2, 3]);
        assert!(r.time() >= 300);
    }

    #[test]
    fn stolen_cycles_are_charged() {
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                ctx.sync(|op| op.charge_remote(1, 500));
            } else {
                ctx.advance(10);
                ctx.sync(|_| ());
            }
        });
        assert_eq!(r.clocks[1], 510);
    }

    #[test]
    fn stolen_cycles_fold_in_before_an_op_starts() {
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                ctx.sync(|op| {
                    op.charge_remote(1, 700);
                    op.advance(2000);
                });
            } else {
                ctx.advance(100);
                let started_at = ctx.sync(|op| op.now());
                assert_eq!(started_at, 800, "op starts at clock + stolen");
            }
        });
        assert_eq!(r.clocks[1], 800);
    }

    #[test]
    fn blocked_procs_are_excluded_from_the_minimum() {
        let engine = CoopEngine::new(TestLock::default(), 3);
        let r = engine.run(|ctx| match ctx.id() {
            0 => {
                lock(ctx);
                ctx.advance(1_000);
                unlock(ctx);
            }
            1 => {
                ctx.advance(1);
                lock(ctx);
                unlock(ctx);
            }
            _ => {
                ctx.advance(10);
                ctx.sync(|op| op.advance(5));
            }
        });
        assert!(r.clocks[2] < r.clocks[0]);
    }

    #[test]
    fn wake_at_never_moves_clocks_backwards() {
        let engine = CoopEngine::new(TestLock::default(), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                lock(ctx);
                ctx.advance(10);
                unlock(ctx);
            } else {
                ctx.advance(500);
                lock(ctx);
                unlock(ctx);
            }
        });
        assert!(r.clocks[1] >= 500);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = CoopEngine::new((), 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_and_unwind_parked_processors() {
        let engine = CoopEngine::new((), 2);
        engine.run(|ctx| {
            if ctx.id() == 1 {
                ctx.advance(10); // panic second, with proc 0 parked
                panic!("boom");
            }
            // Processor 0 parks forever; cancellation must unwind it.
            ctx.sync(|op| op.block());
        });
    }

    #[test]
    fn unwound_processors_run_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 3).run(|ctx| {
                let _g = Guard;
                if ctx.id() == 2 {
                    ctx.advance(10);
                    panic!("die");
                }
                ctx.sync(|op| op.block());
            });
        });
        assert!(r.is_err());
        assert_eq!(DROPS.load(Ordering::SeqCst), 3, "every stack unwound");
    }

    #[test]
    fn deadlock_dump_names_blocked_processors_and_reasons() {
        let r = panic::catch_unwind(|| {
            let engine = CoopEngine::new((), 3)
                .with_diagnostics(|_| "  widget registry: empty\n".to_string());
            engine.run(|ctx| match ctx.id() {
                0 => ctx.advance(42),
                1 => {
                    ctx.sync(|op| op.block_on("lock 7 grant"));
                }
                _ => {
                    ctx.advance(9);
                    ctx.sync(|op| op.block());
                }
            });
        });
        let msg = panic_message(r.expect_err("must abort, not hang"));
        assert!(msg.contains("simulation deadlock"), "got: {msg}");
        assert!(msg.contains("p0: finished @ cycle 42"), "got: {msg}");
        assert!(
            msg.contains("p1: blocked @ cycle 0, waiting on lock 7 grant"),
            "got: {msg}"
        );
        assert!(msg.contains("p2: blocked @ cycle 9"), "got: {msg}");
        assert!(msg.contains("widget registry: empty"), "got: {msg}");
    }

    #[test]
    fn single_blocked_processor_aborts_immediately() {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 1)
                .run(|ctx| ctx.sync(|op| op.block_on("a wakeup that never comes")));
        });
        let msg = panic_message(r.expect_err("must abort"));
        assert!(msg.contains("a wakeup that never comes"), "got: {msg}");
    }

    #[test]
    fn cycle_budget_catches_livelock() {
        let r = panic::catch_unwind(|| {
            let engine = CoopEngine::new((), 2).with_cycle_budget(10_000);
            engine.run(|ctx| loop {
                ctx.sync(|op| op.advance(100));
            });
        });
        let msg = panic_message(r.expect_err("budget must fire"));
        assert!(msg.contains("passed the cycle budget"), "got: {msg}");
        assert!(msg.contains("10000"), "got: {msg}");
    }

    #[test]
    fn budget_does_not_fire_below_threshold() {
        let engine = CoopEngine::new((), 2).with_cycle_budget(1_000_000);
        let r = engine.run(|ctx| {
            for _ in 0..10 {
                ctx.sync(|op| op.advance(10));
            }
        });
        assert_eq!(r.time(), 100);
    }

    // ---- goldens -----------------------------------------------------
    //
    // The literals below were recorded from the original thread-per-
    // processor engine, an independent implementation of the same
    // scheduling rules, and matched this engine byte for byte when both
    // existed. They pin the turn order, wake timing, stolen-cycle folding
    // and watchdog text.

    /// FNV-1a over the `Debug` rendering of a value.
    fn fnv_debug(v: &impl std::fmt::Debug) -> u64 {
        format!("{v:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The lock-contention workload: 8 processors, 50 acquisitions each.
    fn contended_run() -> (Vec<usize>, Vec<Cycle>, Vec<(usize, Cycle)>) {
        let engine = CoopEngine::new(TestLock::default(), 8).with_op_trace(true);
        let r = engine.run(|ctx| {
            for _ in 0..50 {
                ctx.advance((ctx.id() as Cycle * 7) % 13 + 1);
                lock(ctx);
                ctx.advance(3);
                unlock(ctx);
            }
        });
        (r.machine.acquisitions, r.clocks, r.op_trace)
    }

    const CONTENDED_ACQUISITIONS: [usize; 400] = [
        0, 6, 1, 6, 0, 1, 3, 5, 7, 3, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        2, 1, 5, 4, 6, 7, 3, 2, 1, 3, 5, 6, 2, 6, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
        4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
        4, 4, 4, 3, 7, 3, 2, 5, 3, 1, 2, 3, 6, 5, 6, 2, 2, 3, 7, 3, 7, 3, 6, 3, 6, 5, 3, 7, 1, 3,
        2, 5, 3, 7, 1, 2, 6, 5, 6, 2, 7, 1, 3, 6, 3, 7, 3, 1, 2, 3, 5, 7, 3, 2, 1, 3, 5, 2, 3, 6,
        1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6,
        1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6,
        1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6,
        1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6,
        1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 3, 7, 5, 3, 2, 6, 1, 6, 2, 5, 7, 1, 7, 1, 6, 5,
        7, 5, 6, 1, 2, 2, 6, 5, 7, 1, 2, 2, 5, 6, 7, 6, 2, 6, 7, 6, 2, 6, 7, 5, 1, 5, 1, 5, 1, 7,
        2, 5, 1, 5, 7, 1, 7, 1, 5, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7,
        1, 7, 1, 7, 1, 7, 1, 7, 1, 7,
    ];

    #[test]
    fn deterministic_across_runs_and_matches_golden() {
        let first = contended_run();
        assert_eq!(first, contended_run(), "the engine must be deterministic");
        let (acq, clocks, ops) = first;
        assert_eq!(acq, CONTENDED_ACQUISITIONS);
        assert_eq!(clocks, [239, 1840, 1584, 1394, 587, 1630, 1538, 1846]);
        assert_eq!(ops.len(), 1173);
        assert_eq!(
            ops[..8],
            [
                (0, 1),
                (2, 2),
                (4, 3),
                (0, 4),
                (6, 4),
                (0, 5),
                (6, 7),
                (1, 8)
            ]
        );
        assert_eq!(
            ops[ops.len() - 4..],
            [(1, 1837), (1, 1840), (7, 1843), (7, 1846)]
        );
        assert_eq!(fnv_debug(&ops), 0x2f10_63c5_ed96_03d2, "op trace digest");
    }

    #[test]
    fn stolen_cycle_accounting_matches_golden() {
        let clocks = CoopEngine::new((), 4)
            .run(|ctx| {
                for i in 0..20 {
                    ctx.advance(ctx.id() as Cycle + 1);
                    ctx.sync(|op| {
                        let target = (op.id() + 1) % op.nprocs();
                        op.charge_remote(target, 50 + i);
                        op.advance(7);
                    });
                }
            })
            .clocks;
        assert_eq!(clocks, [1350, 1370, 1390, 1410]);
    }

    #[test]
    fn deadlock_verdict_matches_golden() {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 3)
                .with_diagnostics(|_| "  registry: 3 widgets\n".to_string())
                .run(|ctx| match ctx.id() {
                    0 => ctx.advance(42),
                    1 => {
                        ctx.sync(|op| op.block_on("lock 7 grant"));
                    }
                    _ => {
                        ctx.advance(9);
                        ctx.sync(|op| op.block());
                    }
                });
        });
        assert_eq!(
            panic_message(r.expect_err("must abort")),
            "simulation deadlock: all live processors are blocked and no wakeup is \
             pending (lost wakeup or lost message)\n  \
             p0: finished @ cycle 42\n  \
             p1: blocked @ cycle 0, waiting on lock 7 grant\n  \
             p2: blocked @ cycle 9\n\
             machine diagnostics:\n  \
             registry: 3 widgets\n"
        );
    }

    #[test]
    fn budget_verdict_matches_golden() {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 2)
                .with_cycle_budget(10_000)
                .run(|ctx| loop {
                    ctx.sync(|op| op.advance(100));
                });
        });
        assert_eq!(
            panic_message(r.expect_err("budget must fire")),
            "simulation watchdog: processor 0 passed the cycle budget (10100 > 10000) \
             — livelock or runaway run\n  \
             p0: ready @ cycle 10100\n  \
             p1: ready @ cycle 10100\n"
        );
    }

    #[test]
    fn many_processors_complete_on_one_thread() {
        // 300 simulated processors: far beyond what per-proc threads would
        // tolerate cheaply; the coop engine must handle it in-process.
        let engine = CoopEngine::new(TestLock::default(), 300).with_stack_bytes(64 * 1024);
        let r = engine.run(|ctx| {
            ctx.advance((ctx.id() as Cycle) % 17);
            lock(ctx);
            ctx.advance(5);
            unlock(ctx);
        });
        assert_eq!(r.machine.acquisitions.len(), 300);
        assert_eq!(r.clocks.len(), 300);
    }
}
