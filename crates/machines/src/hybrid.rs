//! The hardware–software (HS) machine: bus-based multiprocessor nodes
//! connected by a general-purpose network, with TreadMarks providing
//! shared memory *between* nodes and bus snooping *within* them.
//!
//! Per the paper: all processors within a node are treated as one by the
//! DSM system — faults to the same page merge, modifications by co-resident
//! processors coalesce into a single diff, barriers use a local counter with
//! one arrival message per node, and a lock needs no messages when its
//! token already resides at the node.

use std::collections::{HashMap, HashSet, VecDeque};

use tmk_core::{Action, Config, Envelope, Msg, Node, NodeId, Traffic};
use tmk_mem::{BusParams, CacheParams, SnoopBus};
use tmk_net::{NetParams, PointToPointNet, SoftwareOverhead};
use tmk_parmacs::{InitWriter, System};
use tmk_sim::{Ctx, Cycle, Op};
use tmk_trace::{Category, Event, EventKind, Sink, Track};

use crate::dsm::{Avail, Slab};

/// Parameters of the hybrid machine.
#[derive(Debug, Clone)]
pub struct HsParams {
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Number of multiprocessor nodes.
    pub nodes: usize,
    /// Processors per node.
    pub per_node: usize,
    /// Per-processor cache geometry.
    pub cache: CacheParams,
    /// Intra-node bus timing.
    pub bus: BusParams,
    /// Inter-node network.
    pub net: NetParams,
    /// Communication software costs.
    pub so: SoftwareOverhead,
    /// Cycles for a lock acquire or hand-off that stays within the node.
    pub lock_local_cost: Cycle,
    /// Cycles per local barrier-counter update.
    pub barrier_local_cost: Cycle,
    /// DSM page size in bytes.
    pub page_size: usize,
}

impl HsParams {
    /// The simulation study's HS design: 100 MHz processors, eight per
    /// node, 64 KB/64 B caches on an uncontended split-transaction bus,
    /// 155 Mbit/s ATM between nodes, baseline software overheads.
    pub fn hs_sim(nodes: usize, per_node: usize) -> Self {
        HsParams {
            clock_hz: 100_000_000,
            nodes,
            per_node,
            cache: CacheParams::new(64 << 10, 64),
            bus: BusParams::hs_node(),
            net: NetParams::atm_100mhz(),
            so: SoftwareOverhead::sim_baseline(),
            lock_local_cost: 30,
            barrier_local_cost: 30,
            page_size: 4096,
        }
    }

    /// Total processors.
    pub fn procs(&self) -> usize {
        self.nodes * self.per_node
    }
}

/// Shared machine state.
pub struct HsMachine {
    pub(crate) dsm: Vec<Node>,
    buses: Vec<SnoopBus>,
    net: PointToPointNet,
    pub(crate) params: HsParams,
    pub(crate) traffic: Traffic,
    pub(crate) mark: (Cycle, Traffic),
    header_bytes: usize,
    /// Application-level lock state: which processor holds each lock, and
    /// the co-resident processors queued behind it.
    lock_holder: HashMap<usize, usize>,
    lock_local_q: HashMap<usize, VecDeque<usize>>,
    /// `(lock, node)` pairs with an outstanding node-level (DSM) acquire:
    /// a second co-resident requester must queue locally, not re-acquire.
    /// Several nodes can chase the same token concurrently.
    lock_dsm_pending: HashSet<(usize, NodeId)>,
    /// Per-barrier, per-node arrival counts and blocked processors.
    barrier_count: HashMap<usize, Vec<usize>>,
    barrier_waiters: HashMap<usize, Vec<usize>>,
    /// Trace sink for protocol instants (node tracks); disabled by default.
    sink: Sink,
}

impl HsMachine {
    /// Builds the machine with a `segment_bytes` shared segment.
    pub fn new(params: HsParams, segment_bytes: usize, tuning: &crate::DsmTuning) -> Self {
        let page_size = tuning.page_size.unwrap_or(params.page_size);
        let pages = segment_bytes.div_ceil(page_size);
        let mut cfg = Config::new(params.nodes)
            .page_size(page_size)
            .segment_pages(pages);
        if tuning.eager_all {
            cfg = cfg.eager_release_all();
        }
        for &l in &tuning.eager_locks {
            cfg = cfg.eager_release_lock(l);
        }
        if let Some(t) = tuning.gc {
            cfg = cfg.gc(t);
        }
        let header_bytes = cfg.header_bytes;
        HsMachine {
            dsm: (0..params.nodes)
                .map(|i| Node::new(i, cfg.clone()))
                .collect(),
            buses: (0..params.nodes)
                .map(|node| {
                    let mut bus = SnoopBus::new(params.per_node, params.cache, params.bus);
                    // The fault plan's drop rate doubles as the per-node
                    // flaky-bus strike rate (a struck transaction retries:
                    // masked, slower, never a changed result). Each node's
                    // bus draws from its own seed stream.
                    if let Some(plan) = &tuning.faults {
                        if plan.drop > 0.0 {
                            bus.set_faults(tmk_mem::FabricFaults::new(
                                plan.seed ^ node as u64,
                                plan.drop,
                            ));
                        }
                    }
                    bus
                })
                .collect(),
            net: PointToPointNet::new(params.nodes, params.net),
            traffic: Traffic::default(),
            mark: (0, Traffic::default()),
            header_bytes,
            lock_holder: HashMap::new(),
            lock_local_q: HashMap::new(),
            lock_dsm_pending: HashSet::new(),
            barrier_count: HashMap::new(),
            barrier_waiters: HashMap::new(),
            sink: Sink::default(),
            params,
        }
    }

    /// Attaches a trace sink: DSM protocol actions appear on node tracks,
    /// inter-node transfers on link tracks, and each node's snooping bus on
    /// its own bus track. Tracing never alters timing.
    pub fn set_tracer(&mut self, sink: Sink) {
        for (node, b) in self.buses.iter_mut().enumerate() {
            b.set_tracer(sink.clone(), node as u32);
        }
        self.net.set_sink(sink.clone());
        self.sink = sink;
    }

    fn node_of(&self, proc: usize) -> NodeId {
        proc / self.params.per_node
    }

    fn cpu_of(&self, proc: usize) -> usize {
        proc % self.params.per_node
    }

    fn page_size(&self) -> usize {
        self.dsm[0].config().page_size
    }

    /// Bus-level charge for an access by `proc` within its node.
    fn charge_bus(&mut self, proc: usize, addr: usize, len: usize, write: bool, t: Cycle) -> Cycle {
        let node = self.node_of(proc);
        let cpu = self.cpu_of(proc);
        let mut t = t;
        let block = self.params.cache.block;
        let first = addr / block;
        let last = if len == 0 { first } else { (addr + len - 1) / block };
        for line in first..=last {
            let r = self.buses[node].access(cpu, line as u64, write, t);
            t = if r.hit { t + 1 } else { r.done + 1 };
        }
        t
    }

    /// Purges a page's lines from every cache of `node` (fresh DSM data
    /// arrived; the paper assumes intra-node cache/TLB coherence handles
    /// this — we model it as invalidations).
    fn purge_page(&mut self, node: NodeId, page: usize) {
        let ps = self.page_size();
        let block = self.params.cache.block;
        let first = page * ps / block;
        let last = ((page + 1) * ps - 1) / block;
        for line in first..=last {
            // Invalidates the line in every cache on the node's bus. Re-fill
            // cost shows up as later misses; state change only.
            self.buses[node].purge_line(line as u64);
        }
    }
}

/// Routed cascade between DSM nodes (mirrors `dsm::route_timed`, but the
/// initiator is a *node*, and completions wake whole waiter sets).
struct Routed {
    actions: Vec<(NodeId, Action, Cycle)>,
    charges: Vec<(NodeId, Cycle)>,
    initiator_busy_until: Cycle,
}

fn route_timed(m: &mut HsMachine, me_node: NodeId, t0: Cycle, sends: Vec<Envelope>) -> Routed {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut heap: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut inflight: Slab<Envelope> = Slab::new();
    let mut avail = Avail::new(m.dsm.len(), me_node, t0);
    let mut out = Routed {
        actions: Vec::new(),
        charges: Vec::new(),
        initiator_busy_until: t0,
    };

    fn enqueue(
        m: &mut HsMachine,
        avail: &mut Avail,
        heap: &mut BinaryHeap<Reverse<(Cycle, u64)>>,
        inflight: &mut Slab<Envelope>,
        charges: &mut Vec<(NodeId, Cycle)>,
        t0: Cycle,
        env: Envelope,
    ) {
        let from = env.from;
        let to = env.to;
        let t_out = avail.sender(from, t0);
        let deliver_at = if from == to {
            t_out
        } else {
            let body = env.msg.body_bytes().total();
            let send_c = m.params.so.send_cycles(body);
            let recv_c = m.params.so.recv_cycles(body);
            charges.push((from, send_c));
            charges.push((to, recv_c));
            avail.set(from, t_out + send_c);
            let wire = m.header_bytes + body;
            m.traffic.record(&env, m.header_bytes);
            m.sink.emit(Event {
                track: Track::Node(from as u32),
                at: t_out + send_c,
                dur: 0,
                kind: EventKind::MsgSend {
                    to: to as u32,
                    class: env.msg.class().bit(),
                    bytes: wire as u64,
                },
            });
            if let Msg::LockForward { lock, .. } = &env.msg {
                m.sink.emit(Event {
                    track: Track::Node(from as u32),
                    at: t_out + send_c,
                    dur: 0,
                    kind: EventKind::LockForward { lock: *lock as u64 },
                });
            }
            let arrive = m.net.transfer(from, to, wire, t_out + send_c);
            arrive + recv_c
        };
        heap.push(Reverse((deliver_at, inflight.insert(env))));
    }

    for env in sends {
        enqueue(
            m,
            &mut avail,
            &mut heap,
            &mut inflight,
            &mut out.charges,
            t0,
            env,
        );
    }

    while let Some(Reverse((t, s))) = heap.pop() {
        let env = inflight.remove(s).expect("in-flight message");
        let to = env.to;
        let begin = t.max(avail.get(to).unwrap_or(0));
        let arrived = (m.sink.enabled() && env.from != to).then(|| EventKind::MsgArrive {
            from: env.from as u32,
            class: env.msg.class().bit(),
            bytes: (m.header_bytes + env.msg.body_bytes().total()) as u64,
        });
        let before = *m.dsm[to].stats();
        let handled = m.dsm[to].handle(env);
        let after = m.dsm[to].stats();
        let created = after.diffs_created - before.diffs_created;
        let twinned = after.twins_created - before.twins_created;
        let retired = after.gc_intervals_retired - before.gc_intervals_retired;
        let freed = after.gc_diff_bytes_retired - before.gc_diff_bytes_retired;
        if m.sink.enabled() {
            let node = Track::Node(to as u32);
            let instant = |kind| Event { track: node, at: begin, dur: 0, kind };
            if let Some(kind) = arrived {
                m.sink.emit(instant(kind));
            }
            if twinned > 0 {
                m.sink.emit(instant(EventKind::TwinCreate { count: twinned }));
            }
            if created > 0 {
                m.sink.emit(instant(EventKind::DiffMake {
                    count: created,
                    bytes: after.diff_bytes_created - before.diff_bytes_created,
                }));
            }
            let applied = after.diffs_applied - before.diffs_applied;
            if applied > 0 {
                m.sink.emit(instant(EventKind::DiffApply { count: applied }));
            }
            let notices = after.notices_received - before.notices_received;
            if notices > 0 {
                m.sink.emit(instant(EventKind::WriteNotice { count: notices }));
            }
            if retired > 0 {
                m.sink.emit(instant(EventKind::GcRetire {
                    intervals: retired,
                    bytes: freed,
                }));
            }
        }
        let service = created * m.params.so.diff_cycles(m.page_size())
            + twinned * (m.page_size() / 4) as u64
            + crate::dsm::gc_service_cycles(retired, freed);
        if service > 0 {
            out.charges.push((to, service));
        }
        let ready = begin + service;
        avail.set(to, ready);
        for a in handled.actions {
            out.actions.push((to, a, ready));
        }
        for next in handled.sends {
            enqueue(
                m,
                &mut avail,
                &mut heap,
                &mut inflight,
                &mut out.charges,
                t0,
                next,
            );
        }
    }

    out.initiator_busy_until = avail.get(me_node).unwrap_or(t0);
    out
}

impl InitWriter for HsMachine {
    fn write_init(&mut self, addr: usize, bytes: &[u8]) {
        self.dsm[0].master_write(addr, bytes);
    }
}

/// Per-processor [`System`] handle for the hybrid machine.
pub struct HsSys<'a, 'e> {
    ctx: &'a Ctx<'e, HsMachine>,
}

impl<'a, 'e> HsSys<'a, 'e> {
    /// Wraps an engine context.
    pub fn new(ctx: &'a Ctx<'e, HsMachine>) -> Self {
        HsSys { ctx }
    }

    /// Applies a cascade: node charges become stolen cycles on the node's
    /// first processor (an approximation of per-node protocol processing),
    /// remote completions wake their waiter sets, and this processor
    /// advances to its own completion time (if any).
    fn settle(
        &self,
        op: &mut Op<'_, HsMachine>,
        me_proc: usize,
        me_node: NodeId,
        routed: Routed,
        local_done: Cycle,
        wait: Category,
    ) -> Vec<(Action, Cycle)> {
        let per_node = op.machine().params.per_node;
        let mut mine = Vec::new();
        let mut me_extra: Cycle = 0;
        for (node, c) in routed.charges {
            if node == me_node {
                me_extra += c;
            } else {
                // Protocol processing steals time from the node's cpu 0.
                op.charge_remote(node * per_node, c);
            }
        }
        let mut me_target = routed.initiator_busy_until.max(op.now() + me_extra);
        for (node, action, t) in routed.actions {
            if node == me_node {
                me_target = me_target.max(t);
            }
            // Completions for other nodes are returned too: the caller
            // knows which blocked processors they unblock.
            mine.push((action, t));
        }
        let now = op.now();
        if me_target > now {
            // Split for the trace ledger: local pre-work plus this node's
            // send/recv/service charges are protocol time, the rest is
            // waiting (see `dsm::settle`).
            let total = me_target - now;
            let proto = (local_done.saturating_sub(now) + me_extra).min(total);
            op.advance_as(Category::Protocol, proto);
            op.advance_as(wait, total - proto);
        }
        let _ = me_proc;
        mine
    }

    fn access(&self, addr: usize, len: usize, write: bool, mut data: AccessData<'_>) {
        let me = self.ctx.id();
        loop {
            let done = self.ctx.sync(|op| {
                // Resolve faults and perform the access in one operation
                // (see `dsm::DsmSys::access` for the livelock rationale).
                loop {
                    let now = op.now();
                    let m = op.machine();
                    let nd = m.node_of(me);
                    let bad = m.dsm[nd].pages_in(addr, len).find(|&p| {
                        if write {
                            !m.dsm[nd].page_writable(p)
                        } else {
                            !m.dsm[nd].page_valid(p)
                        }
                    });
                    match bad {
                        None => {
                            let done = m.charge_bus(me, addr, len, write, now);
                            match &mut data {
                                AccessData::Read(buf) => m.dsm[nd].read_into(addr, buf),
                                AccessData::Write(bytes) => m.dsm[nd].write_from(addr, bytes),
                            }
                            op.advance_as(Category::MemStall, done - now);
                            return true;
                        }
                        Some(page) => {
                            m.sink.emit(Event {
                                track: Track::Cpu(me as u32),
                                at: now,
                                dur: 0,
                                kind: EventKind::PageFault {
                                    page: page as u64,
                                    write,
                                },
                            });
                            let handler = m.params.so.handler;
                            let twins_before = m.dsm[nd].stats().twins_created;
                            let start = m.dsm[nd].fault(page, write);
                            let mut t = now + handler;
                            if m.dsm[nd].stats().twins_created > twins_before {
                                t += (m.page_size() / 4) as Cycle;
                            }
                            if start.ready {
                                op.advance_as(Category::Protocol, t - now);
                            } else {
                                let routed = route_timed(m, nd, t, start.sends);
                                op.machine().purge_page(nd, page);
                                let mine =
                                    self.settle(op, me, nd, routed, t, Category::Network);
                                if !mine
                                    .iter()
                                    .any(|(a, _)| *a == Action::PageReady(page))
                                {
                                    return false;
                                }
                            }
                        }
                    }
                }
            });
            if done {
                return;
            }
        }
    }

    /// Wakes every processor of `node` blocked on `barrier`, at time `t`.
    fn wake_barrier_waiters(
        &self,
        op: &mut Op<'_, HsMachine>,
        barrier: usize,
        node: NodeId,
        t: Cycle,
        skip: usize,
    ) {
        let procs: Vec<usize> = {
            let m = op.machine();
            let per_node = m.params.per_node;
            let waiters = m.barrier_waiters.entry(barrier).or_default();
            let (here, rest): (Vec<usize>, Vec<usize>) = waiters
                .drain(..)
                .partition(|&p| p / per_node == node && p != skip);
            *waiters = rest;
            // Reset the node's local counter for the next episode.
            if let Some(counts) = m.barrier_count.get_mut(&barrier) {
                counts[node] = 0;
            }
            here
        };
        for p in procs {
            op.wake_at(p, t);
        }
    }
}

enum AccessData<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

impl System for HsSys<'_, '_> {
    fn nprocs(&self) -> usize {
        self.ctx.nprocs()
    }

    fn pid(&self) -> usize {
        self.ctx.id()
    }

    fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        self.access(addr, buf.len(), false, AccessData::Read(buf));
    }

    fn write_bytes(&self, addr: usize, data: &[u8]) {
        self.access(addr, data.len(), true, AccessData::Write(data));
    }

    fn lock(&self, lock: usize) {
        let me = self.ctx.id();
        loop {
            let got = self.ctx.sync(|op| {
                let now = op.now();
                let nd = op.machine().node_of(me);
                // Handed to us directly (local pass or remote grant)?
                if op.machine().lock_holder.get(&lock) == Some(&me) {
                    return true;
                }
                let pending_here =
                    op.machine().lock_dsm_pending.contains(&(lock, nd));
                let held_by = op.machine().lock_holder.get(&lock).copied();
                let holder_here =
                    held_by.is_some_and(|p| op.machine().node_of(p) == nd);
                match held_by {
                    _ if pending_here || holder_here => {
                        // The token is at (or already headed to) our node:
                        // wait for a local hand-off, no messages.
                        op.machine()
                            .lock_local_q
                            .entry(lock)
                            .or_default()
                            .push_back(me);
                        op.block();
                        false
                    }
                    _ => {
                        // No processor holds it: bring the token here.
                        let start = op.machine().dsm[nd].acquire(lock);
                        match start {
                            tmk_core::StartAcquire::Granted => {
                                let c = op.machine().params.lock_local_cost;
                                op.machine().lock_holder.insert(lock, me);
                                op.advance_as(Category::Protocol, c);
                                true
                            }
                            tmk_core::StartAcquire::Wait(sends) => {
                                let routed = route_timed(op.machine(), nd, now, sends);
                                let mine = self
                                    .settle(op, me, nd, routed, now, Category::SyncIdle);
                                let granted = mine.iter().any(|(a, _)| {
                                    *a == Action::LockGranted(lock)
                                });
                                if granted {
                                    op.machine().lock_holder.insert(lock, me);
                                    true
                                } else {
                                    op.machine().lock_dsm_pending.insert((lock, nd));
                                    op.machine()
                                        .lock_local_q
                                        .entry(lock)
                                        .or_default()
                                        .push_back(me);
                                    op.block();
                                    false
                                }
                            }
                        }
                    }
                }
            });
            if got {
                return;
            }
        }
    }

    fn unlock(&self, lock: usize) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let nd = op.machine().node_of(me);
            let per_node = op.machine().params.per_node;
            op.machine().lock_holder.remove(&lock);

            // Prefer passing to a co-resident waiter: no messages (the
            // paper's "if the token already resides at the node, no
            // messages are required").
            let local_next = {
                let m = op.machine();
                let q = m.lock_local_q.entry(lock).or_default();
                let pos = q.iter().position(|&p| p / per_node == nd);
                pos.map(|i| q.remove(i).expect("position exists"))
            };
            if let Some(p) = local_next {
                let c = op.machine().params.lock_local_cost;
                op.machine().lock_holder.insert(lock, p);
                op.advance_as(Category::SyncIdle, 2);
                op.wake_at(p, now + c);
                return;
            }

            // Otherwise release at the DSM level; a queued remote node gets
            // the token, and one of its waiters the lock.
            let sends = op.machine().dsm[nd].release(lock);
            let routed = route_timed(op.machine(), nd, now + 2, sends);
            let mine = self.settle(op, me, nd, routed, now + 2, Category::Network);
            for (action, t) in mine {
                if let Action::LockGranted(l) = action {
                    debug_assert_eq!(l, lock);
                    // The grant landed on some node; find a waiter there.
                    let granted_node = {
                        let m = op.machine();
                        (0..m.params.nodes)
                            .find(|&q| m.dsm[q].holds(lock))
                            .expect("grant landed somewhere")
                    };
                    let next = {
                        let m = op.machine();
                        let per_node = m.params.per_node;
                        let q = m.lock_local_q.entry(lock).or_default();
                        let pos = q.iter().position(|&p| p / per_node == granted_node);
                        pos.map(|i| q.remove(i).expect("position exists"))
                    };
                    op.machine().lock_dsm_pending.remove(&(lock, granted_node));
                    if let Some(p) = next {
                        op.machine().lock_holder.insert(lock, p);
                        op.wake_at(p, t);
                    }
                }
            }
            op.advance_as(Category::SyncIdle, 2);
        });
    }

    fn barrier(&self, barrier: usize) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let (nd, per_node, nodes, local_cost) = {
                let m = op.machine();
                (
                    m.node_of(me),
                    m.params.per_node,
                    m.params.nodes,
                    m.params.barrier_local_cost,
                )
            };
            let node_full = {
                let m = op.machine();
                let counts = m
                    .barrier_count
                    .entry(barrier)
                    .or_insert_with(|| vec![0; nodes]);
                counts[nd] += 1;
                counts[nd] == per_node
            };
            op.machine().sink.emit(Event {
                track: Track::Cpu(me as u32),
                at: now,
                dur: 0,
                kind: EventKind::BarrierEpoch {
                    barrier: barrier as u64,
                },
            });
            op.advance_as(Category::SyncIdle, local_cost);
            if !node_full {
                op.machine()
                    .barrier_waiters
                    .entry(barrier)
                    .or_default()
                    .push(me);
                op.block();
                return;
            }
            // Last processor on the node: node-level DSM arrival.
            let t = now + local_cost;
            let (ready, sends) = {
                let m = op.machine();
                let before = *m.dsm[nd].stats();
                let start = m.dsm[nd].barrier_arrive(barrier);
                let after = *m.dsm[nd].stats();
                // Diff/GC service is charged via settle's initiator time;
                // trace the collection for visibility.
                let retired = after.gc_intervals_retired - before.gc_intervals_retired;
                if retired > 0 {
                    m.sink.emit(Event {
                        track: Track::Node(nd as u32),
                        at: t,
                        dur: 0,
                        kind: EventKind::GcRetire {
                            intervals: retired,
                            bytes: after.gc_diff_bytes_retired
                                - before.gc_diff_bytes_retired,
                        },
                    });
                }
                (start.ready, start.sends)
            };
            let routed = route_timed(op.machine(), nd, t, sends);
            let mine = self.settle(op, me, nd, routed, t, Category::SyncIdle);
            let mut my_done: Option<Cycle> = None;
            for (action, at) in mine {
                if let Action::BarrierDone(b) = action {
                    debug_assert_eq!(b, barrier);
                    // Which node finished? Find by checking who emitted it:
                    // actions from settle() tagged for me_node come from our
                    // own arrival; others were recorded with their node in
                    // route_timed — but settle flattened that. Wake every
                    // node's waiters whose DSM barrier completed: the
                    // departure reached all nodes in this cascade.
                    my_done = Some(my_done.map_or(at, |v: Cycle| v.max(at)));
                }
            }
            if ready || my_done.is_some() {
                // The barrier completed globally within this cascade: wake
                // all waiters on every node at their nodes' times.
                let t_done = my_done.unwrap_or(op.now());
                for q in 0..nodes {
                    self.wake_barrier_waiters(op, barrier, q, t_done, me);
                }
            } else {
                op.machine()
                    .barrier_waiters
                    .entry(barrier)
                    .or_default()
                    .push(me);
                op.block();
            }
        });
    }

    fn compute(&self, cycles: Cycle) {
        self.ctx.advance(cycles);
    }

    fn mark(&self) {
        self.ctx.sync(|op| {
            let now = op.now();
            let m = op.machine();
            m.mark = (now, m.traffic);
        });
    }
}

impl HsMachine {
    /// Finishing report pieces specific to this machine.
    pub(crate) fn fill_report(&self, report: &mut crate::RunReport) {
        report.clock_hz = self.params.clock_hz;
        report.traffic = self.traffic;
        report.mark_cycles = self.mark.0;
        report.mark_traffic = self.mark.1;
        for n in &self.dsm {
            report.dsm.merge(n.stats());
        }
        let mut bus = tmk_mem::BusStats::default();
        for b in &self.buses {
            let s = b.stats();
            bus.transactions += s.transactions;
            bus.busy_cycles += s.busy_cycles;
            bus.cache_supplies += s.cache_supplies;
            bus.memory_supplies += s.memory_supplies;
            bus.invalidations += s.invalidations;
            bus.writebacks += s.writebacks;
            bus.data_bytes += s.data_bytes;
            bus.retries += s.retries;
        }
        report.bus = Some(bus);
        for (node, b) in self.buses.iter().enumerate() {
            let _ = node;
            for cpu in 0..self.params.per_node {
                let s = b.cache_stats(cpu);
                report.cache.hits += s.hits;
                report.cache.misses += s.misses;
            }
        }
    }
}
