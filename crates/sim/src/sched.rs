//! The scheduler core of the conservative execution-driven engine: clocks,
//! stolen-cycle ledger, turn order, block/wake state, watchdog text and the
//! trace sink, plus the [`Op`] view a sync operation gets of them.
//!
//! See the crate-level docs for the execution model;
//! [`CoopEngine`](crate::CoopEngine) in `coop.rs` drives this core from an
//! event loop over stackful coroutines.

use tmk_trace::{Category, Sink};

use crate::Cycle;

/// Machine-state renderer appended to watchdog dumps.
pub(crate) type DiagFn<M> = Box<dyn Fn(&M) -> String + Send + Sync>;

/// Cause string for the all-blocked deadlock verdict.
pub(crate) const DEADLOCK_CAUSE: &str = "simulation deadlock: all live processors are blocked \
     and no wakeup is pending (lost wakeup or lost message)";

/// Cause string for the cycle-budget (livelock) verdict.
pub(crate) fn budget_msg(id: usize, clock_now: Cycle, budget: Cycle) -> String {
    format!(
        "simulation watchdog: processor {id} passed the cycle \
         budget ({clock_now} > {budget}) — livelock or runaway run"
    )
}

/// Renders the full watchdog verdict: cause, per-processor dump, optional
/// machine diagnostics.
pub(crate) fn compose_abort<M>(state: &State<M>, diag: Option<&DiagFn<M>>, cause: &str) -> String {
    let mut msg = format!("{cause}\n{}", state.sched.dump());
    if let Some(diag) = diag {
        msg.push_str("machine diagnostics:\n");
        msg.push_str(&diag(&state.machine));
    }
    msg
}

/// Exclusive view of the machine and scheduler during a
/// [`Ctx::sync`](crate::Ctx::sync) operation.
pub struct Op<'a, M> {
    pub(crate) state: &'a mut State<M>,
    pub(crate) id: usize,
    pub(crate) nprocs: usize,
    pub(crate) block: bool,
    pub(crate) block_reason: Option<String>,
}

/// The outcome of [`CoopEngine::run`](crate::CoopEngine::run): the machine
/// model plus final clocks.
#[derive(Debug)]
pub struct RunResult<M> {
    /// The machine model, with whatever statistics it accumulated.
    pub machine: M,
    /// Final per-processor clocks, in cycles.
    pub clocks: Vec<Cycle>,
    /// `(pid, clock)` at each sync-op start, when the engine was built
    /// with [`with_op_trace(true)`](crate::CoopEngine::with_op_trace)
    /// (else empty).
    pub op_trace: Vec<(usize, Cycle)>,
}

impl<M> RunResult<M> {
    /// Total simulated execution time: the clock of the slowest processor.
    pub fn time(&self) -> Cycle {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

pub(crate) struct State<M> {
    pub(crate) machine: M,
    pub(crate) sched: Sched,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// Runnable: either executing local code or waiting for its sync turn.
    Ready,
    /// Waiting to be woken by another processor via [`Op::wake_at`].
    Blocked,
    /// Body returned.
    Finished,
}

pub(crate) struct Sched {
    /// Optional (pid, clock-at-op-start) trace, for debugging determinism.
    pub(crate) trace: Option<Vec<(usize, Cycle)>>,
    pub(crate) clocks: Vec<Cycle>,
    /// Cycles charged to a processor by remote request handlers, folded into
    /// its clock at its next scheduling point.
    pub(crate) stolen: Vec<Cycle>,
    pub(crate) status: Vec<Status>,
    /// What each blocked processor is waiting for ([`Op::block_on`]), for
    /// the watchdog dump.
    pub(crate) block_reason: Vec<Option<String>>,
    /// Watchdog: abort when any processor's clock passes this.
    pub(crate) budget: Option<Cycle>,
    /// Time-attribution sink ([`CoopEngine::with_tracer`]); disabled by
    /// default, in which case every charge below is a no-op.
    ///
    /// The attribution invariant (per-processor categories sum exactly to
    /// the final clock) holds by construction: every mutation of `clocks`
    /// goes through [`Ctx::advance`], [`Op::advance`]/[`Op::advance_as`],
    /// [`Sched::apply_stolen`] or [`Op::wake_at`], and each charges the
    /// sink *before* incrementing the clock (so spans start at the
    /// pre-increment time).
    ///
    /// [`CoopEngine::with_tracer`]: crate::CoopEngine::with_tracer
    /// [`Ctx::advance`]: crate::Ctx::advance
    pub(crate) tracer: Sink,
}

impl Sched {
    pub(crate) fn new(n: usize) -> Self {
        Sched {
            trace: None,
            clocks: vec![0; n],
            stolen: vec![0; n],
            status: vec![Status::Ready; n],
            block_reason: vec![None; n],
            budget: None,
            tracer: Sink::default(),
        }
    }

    /// The per-processor half of the watchdog dump.
    pub(crate) fn dump(&self) -> String {
        let mut s = String::new();
        for p in 0..self.clocks.len() {
            let state = match self.status[p] {
                Status::Ready => "ready",
                Status::Blocked => "blocked",
                Status::Finished => "finished",
            };
            s.push_str(&format!("  p{p}: {state} @ cycle {}", self.eff_clock(p)));
            if let Some(why) = self.block_reason[p].as_deref() {
                s.push_str(&format!(", waiting on {why}"));
            }
            s.push('\n');
        }
        s
    }

    pub(crate) fn eff_clock(&self, p: usize) -> Cycle {
        self.clocks[p] + self.stolen[p]
    }

    pub(crate) fn apply_stolen(&mut self, p: usize) {
        // Ledger only, no span event: a fold is a bookkeeping point, not
        // simulated activity, and the breakdown needs only the total
        // stolen from each processor.
        self.tracer.charge(p, Category::Stolen, self.stolen[p]);
        self.clocks[p] += self.stolen[p];
        self.stolen[p] = 0;
    }

    /// The processor that should execute the next sync operation: the Ready
    /// processor with the minimum effective clock (ties broken by id).
    /// Returns `None` when no processor is Ready.
    pub(crate) fn min_ready(&self) -> Option<usize> {
        let mut best: Option<(Cycle, usize)> = None;
        for p in 0..self.clocks.len() {
            if self.status[p] == Status::Ready {
                let c = self.eff_clock(p);
                if best.is_none_or(|(bc, bp)| c < bc || (c == bc && p < bp)) {
                    best = Some((c, p));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    pub(crate) fn all_done(&self) -> bool {
        self.status.iter().all(|&s| s == Status::Finished)
    }
}

impl<'a, M> Op<'a, M> {
    /// The processor executing this operation.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Exclusive access to the machine model.
    pub fn machine(&mut self) -> &mut M {
        &mut self.state.machine
    }

    /// This processor's clock.
    pub fn now(&self) -> Cycle {
        self.state.sched.clocks[self.id]
    }

    /// Charges `cycles` to this processor as part of the operation,
    /// attributed as computation.
    pub fn advance(&mut self, cycles: Cycle) {
        self.advance_as(Category::Compute, cycles);
    }

    /// Charges `cycles` to this processor, attributed to `cat` (the
    /// machine layers split an operation's latency into memory-stall,
    /// protocol, synchronization-idle and network portions).
    pub fn advance_as(&mut self, cat: Category, cycles: Cycle) {
        let sched = &mut self.state.sched;
        sched
            .tracer
            .charge_span(self.id, cat, sched.clocks[self.id], cycles);
        sched.clocks[self.id] += cycles;
    }

    /// The trace sink, for machine layers that log protocol/network
    /// instants (no-op when tracing is disabled).
    pub fn tracer(&self) -> &Sink {
        &self.state.sched.tracer
    }

    /// Effective clock of an arbitrary processor (for latency computations
    /// that depend on when a remote node can service a request).
    pub fn clock_of(&self, pid: usize) -> Cycle {
        self.state.sched.eff_clock(pid)
    }

    /// Charges `cycles` of request-servicing overhead to a remote processor.
    ///
    /// The cycles are folded into `pid`'s clock at its next scheduling point
    /// — the standard execution-driven approximation for asynchronous
    /// message handlers stealing time from the computation.
    pub fn charge_remote(&mut self, pid: usize, cycles: Cycle) {
        if pid == self.id {
            // Servicing one's own request is still handler work, so it is
            // attributed as stolen time either way.
            self.advance_as(Category::Stolen, cycles);
        } else {
            self.state.sched.stolen[pid] += cycles;
        }
    }

    /// Parks this processor after the closure returns; see
    /// [`Ctx::sync`](crate::Ctx::sync).
    pub fn block(&mut self) {
        self.block = true;
    }

    /// Like [`block`](Self::block), recording what the processor is waiting
    /// for — named in the watchdog's diagnostic dump if the wakeup never
    /// comes.
    pub fn block_on(&mut self, reason: impl Into<String>) {
        self.block = true;
        self.block_reason = Some(reason.into());
    }

    /// Wakes a processor blocked via [`Op::block`], setting its clock to at
    /// least `at` (e.g. the simulated time a lock grant or barrier release
    /// message arrives).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not currently blocked — that is a machine-model
    /// bug (waking a runnable processor would corrupt its clock).
    pub fn wake_at(&mut self, pid: usize, at: Cycle) {
        let sched = &mut self.state.sched;
        assert!(
            sched.status[pid] == Status::Blocked,
            "wake_at({pid}): processor is not blocked"
        );
        sched.apply_stolen(pid);
        // The gap between the sleeper's frozen clock and its wake time is
        // synchronization idling (lock-wait, barrier-wait). Writing to the
        // sleeper's track is safe: it is suspended inside `sync`.
        let gap = at.saturating_sub(sched.clocks[pid]);
        sched
            .tracer
            .charge_span(pid, Category::SyncIdle, sched.clocks[pid], gap);
        sched.clocks[pid] = sched.clocks[pid].max(at);
        sched.status[pid] = Status::Ready;
        sched.block_reason[pid] = None;
    }
}
