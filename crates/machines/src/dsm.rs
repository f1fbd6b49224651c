//! The software shared-memory machine: TreadMarks nodes on a
//! general-purpose network.
//!
//! One protocol [`Node`] per processor (the paper's DECstation/ATM cluster
//! and the simulation study's all-software design). Every protocol cascade
//! — a page fault's fetches, a lock chase through manager and holder, a
//! barrier episode — is routed through the network model inside the
//! requesting processor's engine operation: each hop charges the sender's
//! and receiver's software overheads (receivers via stolen cycles, the
//! interrupt-driven handler model), reserves link occupancy, and the
//! resulting completion times drive processor clocks and wakeups.

use std::collections::{BinaryHeap, HashMap};

use tmk_core::{
    Action, Config, Envelope, IvyNode, Msg, Node, NodeId, PacketId, Reliability,
    RetransmitPolicy, Traffic,
};
use tmk_mem::{CacheParams, DirectCache, Probe};
use tmk_net::{Fate, LossyNet, NetParams, PointToPointNet, SoftwareOverhead};
use tmk_parmacs::{InitWriter, System};
use tmk_sim::{Ctx, Cycle, Op};
use tmk_trace::{Category, Event, EventKind, Sink, Track};

/// Parameters of a software-DSM cluster.
#[derive(Debug, Clone)]
pub struct DsmParams {
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Nodes (= processors; uniprocessor nodes).
    pub procs: usize,
    /// Node-local processor cache.
    pub cache: CacheParams,
    /// Local memory miss penalty, cycles.
    pub memory_latency: Cycle,
    /// The general-purpose network.
    pub net: NetParams,
    /// Communication software costs.
    pub so: SoftwareOverhead,
    /// Cycles for a lock acquire whose token is already local.
    pub lock_local_cost: Cycle,
    /// DSM page size in bytes.
    pub page_size: usize,
}

impl DsmParams {
    /// Part 1: TreadMarks on DECstation-5000/240s and a Fore ATM LAN,
    /// user-level Ultrix implementation.
    pub fn treadmarks_dec_atm(procs: usize) -> Self {
        DsmParams {
            clock_hz: 40_000_000,
            procs,
            cache: CacheParams::new(64 << 10, 32),
            memory_latency: 10,
            net: NetParams::atm_40mhz(),
            so: SoftwareOverhead::ultrix_user(),
            lock_local_cost: 20,
            page_size: 4096,
        }
    }

    /// Part 2: the simulation study's all-software design (100 MHz nodes,
    /// 155 Mbit/s ATM, baseline software overheads).
    pub fn as_sim(procs: usize) -> Self {
        DsmParams {
            clock_hz: 100_000_000,
            procs,
            cache: CacheParams::new(64 << 10, 64),
            memory_latency: 20,
            net: NetParams::atm_100mhz(),
            so: SoftwareOverhead::sim_baseline(),
            lock_local_cost: 20,
            page_size: 4096,
        }
    }
}

/// Which page-based DSM protocol the software cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DsmProtocol {
    /// TreadMarks lazy release consistency (the paper's protocol).
    #[default]
    Lrc,
    /// IVY-style sequential consistency (Li & Hudak): the single-writer
    /// write-invalidate baseline, for the LRC-vs-SC ablation.
    Ivy,
}

/// One protocol instance, either flavor, with a uniform surface for the
/// machine layer.
#[derive(Debug)]
pub enum ProtoNode {
    /// A TreadMarks node.
    Lrc(Node),
    /// An IVY node.
    Ivy(IvyNode),
}

macro_rules! delegate {
    ($self:ident, $node:pat => $body:expr) => {
        match $self {
            ProtoNode::Lrc($node) => $body,
            ProtoNode::Ivy($node) => $body,
        }
    };
}

impl ProtoNode {
    pub(crate) fn config(&self) -> &Config {
        delegate!(self, n => n.config())
    }
    pub(crate) fn stats(&self) -> &tmk_core::NodeStats {
        delegate!(self, n => n.stats())
    }
    pub(crate) fn holds(&self, lock: usize) -> bool {
        delegate!(self, n => n.holds(lock))
    }
    pub(crate) fn pages_in(&self, addr: usize, len: usize) -> std::ops::Range<usize> {
        delegate!(self, n => n.pages_in(addr, len))
    }
    pub(crate) fn page_valid(&self, page: usize) -> bool {
        delegate!(self, n => n.page_valid(page))
    }
    pub(crate) fn page_writable(&self, page: usize) -> bool {
        delegate!(self, n => n.page_writable(page))
    }
    pub(crate) fn fault(&mut self, page: usize, write: bool) -> tmk_core::FaultStart {
        delegate!(self, n => n.fault(page, write))
    }
    pub(crate) fn acquire(&mut self, lock: usize) -> tmk_core::StartAcquire {
        delegate!(self, n => n.acquire(lock))
    }
    pub(crate) fn release(&mut self, lock: usize) -> Vec<Envelope> {
        delegate!(self, n => n.release(lock))
    }
    pub(crate) fn barrier_arrive(&mut self, b: usize) -> tmk_core::FaultStart {
        delegate!(self, n => n.barrier_arrive(b))
    }
    pub(crate) fn handle(&mut self, env: Envelope) -> tmk_core::Handled {
        delegate!(self, n => n.handle(env))
    }
    pub(crate) fn read_into(&mut self, addr: usize, buf: &mut [u8]) {
        delegate!(self, n => n.read_into(addr, buf))
    }
    pub(crate) fn write_from(&mut self, addr: usize, bytes: &[u8]) {
        delegate!(self, n => n.write_from(addr, bytes))
    }
    pub(crate) fn master_write(&mut self, addr: usize, bytes: &[u8]) {
        delegate!(self, n => n.master_write(addr, bytes))
    }
    pub(crate) fn sync_debug(&self) -> String {
        delegate!(self, n => n.sync_debug())
    }
    pub(crate) fn pages_resident(&self) -> u64 {
        delegate!(self, n => n.pages_resident())
    }
}

/// Runtime state of the node-crash fault model: which scheduled crashes
/// recovery has repaired, the last barrier-consistent checkpoint cut, and
/// the counters reported at the end of the run.
#[derive(Debug, Default)]
pub(crate) struct CrashState {
    /// Per scheduled crash (parallel to the fault plan's `crashes`): the
    /// cycle at which recovery completed, once the failure detector fired.
    recovered: Vec<Option<Cycle>>,
    /// Cycle of the last checkpoint cut. `Some(0)` as soon as
    /// checkpointing is armed: the initial memory image is always
    /// replayable, so a crash before the first barrier restarts the run.
    ckpt_at: Option<Cycle>,
    /// Pages resident per node at the cut (what a restore re-fetches).
    ckpt_pages: Vec<u64>,
    /// Counters surfaced in [`crate::RunReport::recovery`].
    pub(crate) stats: crate::RecoveryStats,
}

/// The shared machine state: all protocol nodes plus the network.
pub struct DsmMachine {
    pub(crate) nodes: Vec<ProtoNode>,
    caches: Vec<DirectCache>,
    net: LossyNet,
    pub(crate) params: DsmParams,
    pub(crate) traffic: Traffic,
    pub(crate) mark: (Cycle, Traffic),
    header_bytes: usize,
    /// End-to-end reliability layer (`None` = raw datagrams: a dropped
    /// message is lost forever and the watchdog is the only way out).
    pub(crate) rel: Option<Reliability>,
    /// Timeout/backoff knobs used when `rel` is armed.
    pub(crate) policy: RetransmitPolicy,
    /// Per-processor cycle ceiling forwarded to the engine's watchdog.
    pub(crate) watchdog_budget: Option<Cycle>,
    /// Whether barrier-epoch checkpointing is armed (the prerequisite for
    /// surviving a scheduled node crash).
    pub(crate) checkpoints: bool,
    /// Crash/recovery runtime state.
    pub(crate) crash: CrashState,
    /// Trace sink for protocol instants (node tracks); disabled by default.
    pub(crate) sink: Sink,
}

impl DsmMachine {
    /// Builds the cluster with a `segment_bytes` shared segment.
    pub fn new(params: DsmParams, segment_bytes: usize, tuning: &crate::DsmTuning) -> Self {
        let procs = params.procs;
        let pages = segment_bytes.div_ceil(tuning.page_size.unwrap_or(params.page_size));
        let mut cfg = Config::new(params.procs)
            .page_size(tuning.page_size.unwrap_or(params.page_size))
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
        let wire = PointToPointNet::new(params.procs, params.net);
        let net = match &tuning.faults {
            Some(plan) => LossyNet::faulty(wire, plan.clone()),
            None => LossyNet::perfect(wire),
        };
        DsmMachine {
            nodes: (0..params.procs)
                .map(|i| match tuning.protocol {
                    DsmProtocol::Lrc => ProtoNode::Lrc(Node::new(i, cfg.clone())),
                    DsmProtocol::Ivy => ProtoNode::Ivy(IvyNode::new(i, cfg.clone())),
                })
                .collect(),
            caches: (0..params.procs)
                .map(|_| DirectCache::new(params.cache))
                .collect(),
            net,
            traffic: Traffic::default(),
            mark: (0, Traffic::default()),
            header_bytes,
            params,
            rel: tuning.reliability.map(|_| Reliability::new()),
            policy: tuning.reliability.unwrap_or_default(),
            watchdog_budget: tuning.watchdog_budget,
            checkpoints: tuning.checkpoints,
            crash: CrashState {
                recovered: tuning
                    .faults
                    .as_ref()
                    .map(|p| vec![None; p.crashes.len()])
                    .unwrap_or_default(),
                ckpt_at: tuning.checkpoints.then_some(0),
                ckpt_pages: vec![0; procs],
                stats: crate::RecoveryStats::default(),
            },
            sink: Sink::default(),
        }
    }

    /// Attaches a trace sink: protocol actions appear on node tracks, wire
    /// transfers on link tracks. Tracing never alters timing.
    pub fn set_tracer(&mut self, sink: Sink) {
        self.net.set_sink(sink.clone());
        self.sink = sink;
    }

    fn page_size(&self) -> usize {
        self.nodes[0].config().page_size
    }

    /// Drops a page's lines from a node's processor cache (fresh remote data
    /// arrived outside the cache).
    fn purge_page(&mut self, node: NodeId, page: usize) {
        let ps = self.page_size();
        let block = self.params.cache.block;
        let first = page * ps / block;
        let last = ((page + 1) * ps - 1) / block;
        for line in first..=last {
            self.caches[node].invalidate(line as u64);
        }
    }

    /// Charges processor-cache costs for an access; returns completion time.
    fn charge_cache(&mut self, node: NodeId, addr: usize, len: usize, write: bool, t: Cycle) -> Cycle {
        let mut t = t;
        let lat = self.params.memory_latency;
        let c = &mut self.caches[node];
        for line in c.params().lines_of(addr, len) {
            if write {
                // Write-through with a write buffer.
                c.probe(line, false);
                t += 1;
            } else {
                match c.probe(line, false) {
                    Probe::Hit => t += 1,
                    _ => {
                        c.fill(line, tmk_mem::LineState::Shared);
                        t += 1 + lat;
                    }
                }
            }
        }
        t
    }

    /// Whether `node` sits inside a scheduled crash window at `t` that
    /// recovery has not yet repaired.
    fn down_at(&self, node: NodeId, t: Cycle) -> bool {
        let Some(plan) = self.net.plan() else {
            return false;
        };
        plan.crashes
            .iter()
            .zip(&self.crash.recovered)
            .any(|(c, rec)| c.node == node && c.down_at(t) && rec.is_none_or(|r| t < r))
    }

    /// If a recovery covering `node`'s crash window at `t` already ran,
    /// returns the cycle it completed (a second detector waits for it
    /// instead of rolling the cluster back again).
    fn recovery_end(&self, node: NodeId, t: Cycle) -> Option<Cycle> {
        let plan = self.net.plan()?;
        plan.crashes
            .iter()
            .zip(&self.crash.recovered)
            .filter(|(c, _)| c.node == node && c.down_at(t))
            .filter_map(|(_, rec)| *rec)
            .max()
    }

    /// Lock state a crash of `crashed` forces recovery to re-mint at the
    /// managers. For the token-forwarding LRC protocol that is every token
    /// resting away from its manager (survivor metadata alone no longer
    /// proves where it is) plus anything cached on the dead node itself;
    /// for IVY's centralized directory it is the entries the dead node
    /// managed.
    fn tokens_to_regen(&self, crashed: NodeId) -> u64 {
        self.nodes
            .iter()
            .enumerate()
            .map(|(id, n)| match n {
                ProtoNode::Lrc(n) => n
                    .token_holdings()
                    .into_iter()
                    .filter(|&l| n.config().lock_manager(l) != id || id == crashed)
                    .count() as u64,
                ProtoNode::Ivy(n) => {
                    if id == crashed {
                        n.managed_locks()
                    } else {
                        0
                    }
                }
            })
            .sum()
    }

    /// Records a barrier-consistent checkpoint cut at `t`, taken by the
    /// barrier manager `by` the moment the last arrival lands (every node's
    /// interval state is then closed — the same cut the metadata GC uses).
    /// Each node is charged the cycles to copy its resident pages aside.
    fn take_checkpoint(&mut self, by: NodeId, t: Cycle, charges: &mut Vec<(NodeId, Cycle)>) {
        let ps = self.page_size() as u64;
        let mut total = 0;
        for (id, n) in self.nodes.iter().enumerate() {
            let pages = n.pages_resident();
            self.crash.ckpt_pages[id] = pages;
            total += pages;
            if pages > 0 {
                charges.push((id, pages * (ps / 8)));
            }
        }
        self.crash.ckpt_at = Some(t);
        self.crash.stats.checkpoints += 1;
        self.sink.emit(Event {
            track: Track::Node(by as u32),
            at: t,
            dur: 0,
            kind: EventKind::CheckpointTake { pages: total },
        });
    }
}

/// Runs barrier-consistent recovery after the failure detector declared
/// `dead` crashed (retransmission exhaustion observed by `detector` at `t`).
///
/// The simulation is deterministic, so rolling every survivor back to the
/// last checkpoint cut and replaying reproduces the pre-crash protocol and
/// application state exactly; the machine therefore keeps its live state
/// and *charges* the recovery procedure instead — confirmation with the
/// barrier manager, parallel rollback, the dead node re-fetching its pages,
/// lock tokens re-minted at their managers from survivor metadata, and the
/// deterministic replay of the work lost since the cut. Returns the cycle
/// recovery completes and the span charged to [`Category::Recovery`].
fn recover(m: &mut DsmMachine, dead: NodeId, detector: NodeId, t: Cycle) -> (Cycle, Cycle) {
    let Some(ckpt_at) = m.crash.ckpt_at else {
        panic!(
            "node {dead} crashed and is unrecoverable: no checkpoint armed \
             (detected by node {detector} at cycle {t} after retransmission \
             exhaustion); arm DsmTuning::checkpoints to survive crash plans"
        );
    };
    m.crash.stats.suspected += 1;
    m.sink.emit(Event {
        track: Track::Node(detector as u32),
        at: t,
        dur: 0,
        kind: EventKind::NodeSuspected { node: dead as u32 },
    });
    let so = &m.params.so;
    // Lease-style confirmation round trip with the barrier manager (the
    // lowest-id survivor stands in when the manager itself died).
    let confirm = 2 * (so.send_cycles(16) + so.recv_cycles(16));
    // Every survivor restores its snapshot in parallel: the slowest governs.
    let ps = m.page_size();
    let restore = m
        .crash
        .ckpt_pages
        .iter()
        .enumerate()
        .filter(|&(n, _)| n != dead)
        .map(|(_, &p)| p)
        .max()
        .unwrap_or(0)
        * (ps / 8) as Cycle;
    // The dead node re-fetches its checkpointed pages from the survivors.
    let pages = m.crash.ckpt_pages[dead];
    let refetch = pages * (so.send_cycles(8) + so.recv_cycles(ps));
    // Lock tokens re-minted at their managers, one exchange each.
    let tokens = m.tokens_to_regen(dead);
    let regen = tokens * (so.send_cycles(16) + so.recv_cycles(16));
    // Deterministic replay of everything executed since the cut.
    let replay = t.saturating_sub(ckpt_at);
    let span = confirm + restore + refetch + regen + replay;
    m.sink.emit(Event {
        track: Track::Node(dead as u32),
        at: t,
        dur: span,
        kind: EventKind::Rollback {
            node: dead as u32,
            pages,
        },
    });
    if tokens > 0 {
        m.sink.emit(Event {
            track: Track::Node(dead as u32),
            at: t,
            dur: 0,
            kind: EventKind::TokenRegen { count: tokens },
        });
    }
    m.crash.stats.rollbacks += 1;
    m.crash.stats.tokens_regenerated += tokens;
    m.crash.stats.pages_refetched += pages;
    m.crash.stats.recovery_cycles += span;
    let t_rec = t + span;
    let covering: Vec<usize> = m
        .net
        .plan()
        .map(|p| {
            p.crashes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.node == dead && c.down_at(t))
                .map(|(i, _)| i)
                .collect()
        })
        .unwrap_or_default();
    for i in covering {
        m.crash.recovered[i] = Some(t_rec);
    }
    // Packets that exhausted their retries against the dead node get a
    // fresh allowance: post-recovery they are deliverable again.
    if let Some(rel) = &mut m.rel {
        rel.forgive_retries(dead);
    }
    (t_rec, span)
}

/// Cycles a node spends retiring collected metadata: list bookkeeping per
/// interval record plus freeing cached diff storage. GC work is protocol
/// work — it lands in [`Category::Protocol`] (or `Stolen` on remote nodes)
/// like twin and diff service.
pub(crate) fn gc_service_cycles(intervals: u64, freed_bytes: u64) -> Cycle {
    intervals * 8 + freed_bytes / 64
}

/// Everything a routed protocol cascade produced.
pub(crate) struct Routed {
    /// Completed operations: `(node, action, completion cycle)`.
    pub actions: Vec<(NodeId, Action, Cycle)>,
    /// Cycles to charge each node (requester included).
    pub charges: Vec<(NodeId, Cycle)>,
    /// Cycles the cascade spent in crash recovery (rollback, token
    /// regeneration, replay) — ledgered as [`Category::Recovery`].
    pub recovery: Cycle,
    /// When the initiating node finished its sends/service.
    pub initiator_busy_until: Cycle,
}

/// A scheduled event in a cascade's virtual-time queue.
enum Ev {
    /// A message copy arriving at its destination (reliability id attached
    /// when the packet is tracked).
    Deliver(Envelope, Option<PacketId>),
    /// A sender-side retransmission timer for an unacked packet.
    Retry(Envelope, PacketId),
}

/// One cascade's per-node "free from" times, dense by node id. A node the
/// cascade has not touched yet has no entry: as a sender it starts at the
/// cascade's start time, as a receiver at time zero.
pub(crate) struct Avail(Vec<Option<Cycle>>);

impl Avail {
    /// `nodes` untouched entries, with the initiator `me` free at `t0`.
    pub(crate) fn new(nodes: usize, me: NodeId, t0: Cycle) -> Self {
        let mut a = Avail(vec![None; nodes]);
        a.set(me, t0);
        a
    }

    /// When `node` is free, if the cascade touched it.
    pub(crate) fn get(&self, node: NodeId) -> Option<Cycle> {
        self.0[node]
    }

    /// When `node` can send: its entry, first set to `t0` if it has none.
    pub(crate) fn sender(&mut self, node: NodeId, t0: Cycle) -> Cycle {
        *self.0[node].get_or_insert(t0)
    }

    /// Records that `node` is free from `at`.
    pub(crate) fn set(&mut self, node: NodeId, at: Cycle) {
        self.0[node] = Some(at);
    }
}

/// A cascade's scheduled events, keyed by their dense sequence number: the
/// key is the slot index, handed out in insertion order, so `(time, key)`
/// heap order is insertion order among equal times.
pub(crate) struct Slab<T>(Vec<Option<T>>);

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab(Vec::new())
    }

    /// Stores `v` under the next key.
    pub(crate) fn insert(&mut self, v: T) -> u64 {
        self.0.push(Some(v));
        (self.0.len() - 1) as u64
    }

    /// Takes the value stored under `key` out of the slab.
    pub(crate) fn remove(&mut self, key: u64) -> Option<T> {
        self.0.get_mut(key as usize).and_then(Option::take)
    }
}

/// Routes a protocol cascade to quiescence with full timing, starting from
/// `sends` issued by `me` at time `t0`.
///
/// Every hop runs through the machine's [`LossyNet`]: a copy can be
/// dropped, duplicated, or delayed per the fault plan. When the machine's
/// reliability layer is armed, each cross-node packet gets a sequence
/// number and a retransmission timer (delivery doubles as the ack — replies
/// piggyback it in the real protocol); dropped copies are re-sent after a
/// timeout with exponential backoff, and duplicate arrivals are suppressed
/// before the protocol handler sees them. Without the layer, a dropped
/// message is simply gone — the engine watchdog is what ends the run.
pub(crate) fn route_timed(
    m: &mut DsmMachine,
    me: NodeId,
    t0: Cycle,
    sends: Vec<Envelope>,
) -> Routed {
    use std::cmp::Reverse;

    let mut heap: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut events: Slab<Ev> = Slab::new();
    let mut avail = Avail::new(m.nodes.len(), me, t0);
    // Copies of each tracked packet currently scheduled for delivery: a
    // retransmit timer that fires while one is pending is *spurious* (the
    // RTO undershot the queueing round trip, not a loss).
    let mut pending: HashMap<PacketId, usize> = HashMap::new();
    let mut out = Routed {
        actions: Vec::new(),
        charges: Vec::new(),
        recovery: 0,
        initiator_busy_until: t0,
    };

    // One transmission attempt: charges the sender, reserves the wire,
    // rolls the fault fate, and schedules arrivals plus (when tracked) the
    // retransmission timer. `retrans_of` carries the packet id and retry
    // count when this is a re-send of an already-registered packet.
    let send_one = |m: &mut DsmMachine,
                    avail: &mut Avail,
                    heap: &mut BinaryHeap<Reverse<(Cycle, u64)>>,
                    events: &mut Slab<Ev>,
                    pending: &mut HashMap<PacketId, usize>,
                    charges: &mut Vec<(NodeId, Cycle)>,
                    env: Envelope,
                    retrans_of: Option<(PacketId, u32)>| {
        let from = env.from;
        let to = env.to;
        let t_out = avail.sender(from, t0);
        if from == to {
            // Self-sends take the loopback path: no wire, no loss.
            heap.push(Reverse((t_out, events.insert(Ev::Deliver(env, None)))));
            return;
        }
        let body = env.msg.body_bytes().total();
        let send_c = m.params.so.send_cycles(body);
        let recv_c = m.params.so.recv_cycles(body);
        let depart = t_out + send_c;
        let wire = m.header_bytes + body;
        // Scheduled node crashes sever the link *before* the fate draw, so
        // arming a crash plan never perturbs the drop/dup/delay streams.
        let from_down = m.down_at(from, depart);
        let to_down = m.down_at(to, depart);
        if !from_down {
            charges.push((from, send_c));
            avail.set(from, depart);
            m.traffic.record(&env, m.header_bytes);
            m.sink.emit(Event {
                track: Track::Node(from as u32),
                at: depart,
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
                    at: depart,
                    dur: 0,
                    kind: EventKind::LockForward { lock: *lock as u64 },
                });
            }
        }
        let (pid, attempt) = match retrans_of {
            Some((pid, attempt)) => (Some(pid), attempt),
            None => (m.rel.as_mut().map(|r| r.register_at(&env, depart)), 0),
        };
        if let Some(pid) = pid {
            let rel = m.rel.as_ref().expect("tracked packet implies reliability");
            let expire = depart + rel.rto(&m.policy, from, to, attempt);
            let key = events.insert(Ev::Retry(env.clone(), pid));
            heap.push(Reverse((expire, key)));
        }
        if from_down || to_down {
            // The copy never arrives: a dead sender transmits nothing; a
            // live sender's copy still occupies the wire into the dead
            // interface. The retransmission timer above keeps running —
            // exhaustion against the dead peer is how the failure detector
            // fires. Without reliability the loss is final and the engine
            // watchdog names the crashed node.
            m.crash.stats.messages_severed += 1;
            if !from_down {
                let _ = m.net.transfer(from, to, wire, depart);
            }
            return;
        }
        let fate = m.net.fate(from, to, env.msg.class().bit());
        let mut arrivals: Vec<Cycle> = Vec::new();
        match fate {
            Fate::Drop => {
                // The copy occupied the wire; it just never arrives.
                let _ = m.net.transfer(from, to, wire, depart);
            }
            Fate::Deliver => arrivals.push(m.net.transfer(from, to, wire, depart)),
            Fate::Duplicate => {
                arrivals.push(m.net.transfer(from, to, wire, depart));
                arrivals.push(m.net.transfer(from, to, wire, depart));
            }
            Fate::Delay(extra) => {
                arrivals.push(m.net.transfer(from, to, wire, depart) + extra)
            }
        }
        for arrive in arrivals {
            charges.push((to, recv_c));
            let key = events.insert(Ev::Deliver(env.clone(), pid));
            heap.push(Reverse((arrive + recv_c, key)));
            if let Some(pid) = pid {
                *pending.entry(pid).or_insert(0) += 1;
            }
        }
    };

    for env in sends {
        send_one(
            m,
            &mut avail,
            &mut heap,
            &mut events,
            &mut pending,
            &mut out.charges,
            env,
            None,
        );
    }

    while let Some(Reverse((t, s))) = heap.pop() {
        let env = match events.remove(s).expect("scheduled event") {
            Ev::Retry(env, pid) => {
                if !m.rel.as_ref().is_some_and(|r| r.is_in_flight(pid)) {
                    continue; // acked in the meantime: stale timer
                }
                let rel = m.rel.as_mut().expect("tracked packet");
                if pending.get(&pid).copied().unwrap_or(0) > 0 {
                    // A copy is still queued for delivery: the RTO fired
                    // early (queueing, not loss) and this re-send is
                    // spurious — the receiver will suppress the duplicate.
                    rel.note_spurious();
                }
                let retries = rel.bump_retry(pid);
                if retries > m.policy.max_retries {
                    // Exhaustion: the failure detector just found a crashed
                    // peer, or the link is genuinely broken — unless copies
                    // are still queued for delivery (post-recovery wire
                    // congestion outlasting the RTO), in which case the
                    // sender keeps the timer alive rather than giving up.
                    if let Some(dead) = [env.to, env.from]
                        .into_iter()
                        .find(|&n| m.down_at(n, t))
                    {
                        // If another packet's exhaustion already triggered
                        // this recovery, wait for it; otherwise run it now.
                        let t_rec = match m.recovery_end(dead, t) {
                            Some(r) => r,
                            None => {
                                let (r, span) = recover(m, dead, env.from, t);
                                out.recovery += span;
                                r
                            }
                        };
                        let a = avail.sender(env.from, t0);
                        avail.set(env.from, a.max(t_rec));
                        send_one(
                            m,
                            &mut avail,
                            &mut heap,
                            &mut events,
                            &mut pending,
                            &mut out.charges,
                            env,
                            Some((pid, 0)),
                        );
                        continue;
                    }
                    assert!(
                        pending.get(&pid).copied().unwrap_or(0) > 0,
                        "reliability gave up: {} -> {} seq {} still unacked after {} retransmissions",
                        pid.0,
                        pid.1,
                        pid.2,
                        m.policy.max_retries,
                    );
                }
                m.sink.emit(Event {
                    track: Track::Node(env.from as u32),
                    at: t,
                    dur: 0,
                    kind: EventKind::Retransmit { attempt: retries },
                });
                // The sender is free no earlier than the timer expiry.
                let a = avail.sender(env.from, t0);
                avail.set(env.from, a.max(t));
                send_one(
                    m,
                    &mut avail,
                    &mut heap,
                    &mut events,
                    &mut pending,
                    &mut out.charges,
                    env,
                    Some((pid, retries)),
                );
                continue;
            }
            Ev::Deliver(env, pid) => {
                if let Some(pid) = pid {
                    if let Some(c) = pending.get_mut(&pid) {
                        *c -= 1;
                    }
                    let rel = m.rel.as_mut().expect("tracked packet");
                    rel.acked_at(pid, t); // delivery doubles as the piggybacked ack
                    if !rel.accept(pid) {
                        continue; // duplicate suppressed before the handler
                    }
                }
                env
            }
        };
        let to = env.to;
        let begin = t.max(avail.get(to).unwrap_or(0));
        let arrived = (m.sink.enabled() && env.from != to).then(|| EventKind::MsgArrive {
            from: env.from as u32,
            class: env.msg.class().bit(),
            bytes: (m.header_bytes + env.msg.body_bytes().total()) as u64,
        });
        let before = *m.nodes[to].stats();
        let handled = m.nodes[to].handle(env);
        let after = m.nodes[to].stats();
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
            + gc_service_cycles(retired, freed);
        if service > 0 {
            out.charges.push((to, service));
        }
        let ready = begin + service;
        avail.set(to, ready);
        for a in handled.actions {
            // A barrier release at its manager is the checkpoint cut: every
            // node has arrived, so all interval state is closed — the same
            // consistent cut the metadata GC collects at.
            if m.checkpoints {
                if let Action::BarrierDone(b) = &a {
                    if to == m.nodes[to].config().barrier_manager(*b) {
                        m.take_checkpoint(to, ready, &mut out.charges);
                    }
                }
            }
            out.actions.push((to, a, ready));
        }
        for next in handled.sends {
            send_one(
                m,
                &mut avail,
                &mut heap,
                &mut events,
                &mut pending,
                &mut out.charges,
                next,
                None,
            );
        }
    }

    if let Some(rel) = &m.rel {
        assert_eq!(
            rel.in_flight_len(),
            0,
            "cascade quiesced with unacked packets in flight"
        );
    }
    out.initiator_busy_until = avail.get(me).unwrap_or(t0);
    out
}

/// Applies a cascade's side effects to the engine: charges remote nodes,
/// advances the initiator, and wakes blocked processors whose operations
/// completed. Returns the initiator's own completion times per action kind.
///
/// The initiator's elapsed time is split for the trace ledger: its own
/// local pre-work (up to `local_done`) plus its send/recv/service charges
/// count as [`Category::Protocol`]; the remainder — time spent waiting on
/// the wire and on other nodes — is charged to `wait` (network occupancy
/// for data fetches, synchronization idle for lock/barrier waits).
pub(crate) fn settle(
    op: &mut Op<'_, DsmMachine>,
    me: NodeId,
    routed: Routed,
    local_done: Cycle,
    wait: Category,
) -> Vec<(Action, Cycle)> {
    let mut mine = Vec::new();
    let mut me_extra: Cycle = 0;
    for (node, c) in routed.charges {
        if node == me {
            me_extra += c;
        } else {
            op.charge_remote(node, c);
        }
    }
    // The initiator's send/recv work is folded into its completion time.
    let mut me_target = routed.initiator_busy_until.max(op.now() + me_extra);
    for (node, action, t) in routed.actions {
        if node == me {
            me_target = me_target.max(t);
            mine.push((action, t));
        } else {
            op.wake_at(node, t);
        }
    }
    let now = op.now();
    if me_target > now {
        let total = me_target - now;
        let proto = (local_done.saturating_sub(now) + me_extra).min(total);
        // Crash-recovery spans (rollback, token regeneration, replay) are
        // ledgered on the initiating processor under their own category so
        // the breakdown's sum invariant stays exact.
        let rec = routed.recovery.min(total - proto);
        op.advance_as(Category::Protocol, proto);
        op.advance_as(Category::Recovery, rec);
        op.advance_as(wait, total - proto - rec);
    }
    mine
}

impl InitWriter for DsmMachine {
    fn write_init(&mut self, addr: usize, bytes: &[u8]) {
        self.nodes[0].master_write(addr, bytes);
    }
}

/// Per-processor [`System`] handle for the software-DSM machine.
pub struct DsmSys<'a, 'e> {
    ctx: &'a Ctx<'e, DsmMachine>,
}

impl<'a, 'e> DsmSys<'a, 'e> {
    /// Wraps an engine context.
    pub fn new(ctx: &'a Ctx<'e, DsmMachine>) -> Self {
        DsmSys { ctx }
    }

    fn access(&self, addr: usize, len: usize, write: bool, mut data: AccessData<'_>) {
        let me = self.ctx.id();
        loop {
            let done = self.ctx.sync(|op| {
                // Resolve faults and, once every page is usable, perform the
                // access *within the same operation* — otherwise another
                // node could steal a just-fetched page before we touch it
                // (a livelock under single-writer protocols like IVY).
                loop {
                    let now = op.now();
                    let m = op.machine();
                    let bad = m.nodes[me].pages_in(addr, len).find(|&p| {
                        if write {
                            !m.nodes[me].page_writable(p)
                        } else {
                            !m.nodes[me].page_valid(p)
                        }
                    });
                    match bad {
                        None => {
                            let done = m.charge_cache(me, addr, len, write, now);
                            match &mut data {
                                AccessData::Read(buf) => m.nodes[me].read_into(addr, buf),
                                AccessData::Write(bytes) => m.nodes[me].write_from(addr, bytes),
                            }
                            op.advance_as(Category::MemStall, done - now);
                            return true;
                        }
                        Some(page) => {
                            // Page fault: handler dispatch, then the protocol.
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
                            let twins_before = m.nodes[me].stats().twins_created;
                            let start = m.nodes[me].fault(page, write);
                            let mut t = now + handler;
                            if m.nodes[me].stats().twins_created > twins_before {
                                // Twinning copies the page.
                                t += (m.page_size() / 4) as Cycle;
                            }
                            if start.ready {
                                op.advance_as(Category::Protocol, t - now);
                            } else {
                                let routed = route_timed(m, me, t, start.sends);
                                op.machine().purge_page(me, page);
                                let mine = settle(op, me, routed, t, Category::Network);
                                if !mine
                                    .iter()
                                    .any(|(a, _)| *a == Action::PageReady(page))
                                {
                                    // Should not happen (cascades complete
                                    // synchronously); re-enter via the outer
                                    // loop defensively.
                                    return false;
                                }
                            }
                            // Loop: recheck remaining pages in this op.
                        }
                    }
                }
            });
            if done {
                return;
            }
        }
    }
}

enum AccessData<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

impl System for DsmSys<'_, '_> {
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
                if op.machine().nodes[me].holds(lock) {
                    return true; // granted while we were blocked
                }
                let start = op.machine().nodes[me].acquire(lock);
                match start {
                    tmk_core::StartAcquire::Granted => {
                        let c = op.machine().params.lock_local_cost;
                        op.advance_as(Category::Protocol, c);
                        true
                    }
                    tmk_core::StartAcquire::Wait(sends) => {
                        let routed = route_timed(op.machine(), me, now, sends);
                        let mine = settle(op, me, routed, now, Category::SyncIdle);
                        if mine
                            .iter()
                            .any(|(a, _)| *a == Action::LockGranted(lock))
                        {
                            true
                        } else {
                            op.block_on(format!("lock {lock} grant"));
                            false
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
            let m = op.machine();
            let created_before = m.nodes[me].stats().diffs_created;
            let sends = m.nodes[me].release(lock);
            let created = m.nodes[me].stats().diffs_created - created_before;
            let t = now + 2 + created * m.params.so.diff_cycles(m.page_size());
            let routed = route_timed(m, me, t, sends);
            settle(op, me, routed, t, Category::Network);
        });
    }

    fn barrier(&self, barrier: usize) {
        let me = self.ctx.id();
        let done = self.ctx.sync(|op| {
            let now = op.now();
            let m = op.machine();
            m.sink.emit(Event {
                track: Track::Cpu(me as u32),
                at: now,
                dur: 0,
                kind: EventKind::BarrierEpoch {
                    barrier: barrier as u64,
                },
            });
            let before = *m.nodes[me].stats();
            let start = m.nodes[me].barrier_arrive(barrier);
            let after = *m.nodes[me].stats();
            let created = after.diffs_created - before.diffs_created;
            // A manager that is also the last arriver can depart — and
            // collect — inside `barrier_arrive`; charge that work here.
            let retired = after.gc_intervals_retired - before.gc_intervals_retired;
            let freed = after.gc_diff_bytes_retired - before.gc_diff_bytes_retired;
            if retired > 0 {
                m.sink.emit(Event {
                    track: Track::Node(me as u32),
                    at: now,
                    dur: 0,
                    kind: EventKind::GcRetire {
                        intervals: retired,
                        bytes: freed,
                    },
                });
            }
            let t = now
                + 10
                + created * m.params.so.diff_cycles(m.page_size())
                + gc_service_cycles(retired, freed);
            let ready = start.ready;
            let mut routed = route_timed(m, me, t, start.sends);
            if ready && m.checkpoints {
                // The manager was the last arriver: it departed inside
                // `barrier_arrive`, so the cut is taken here.
                m.take_checkpoint(me, t, &mut routed.charges);
            }
            let mine = settle(op, me, routed, t, Category::SyncIdle);
            if ready || mine.iter().any(|(a, _)| *a == Action::BarrierDone(barrier)) {
                true
            } else {
                op.block_on(format!("barrier {barrier} release"));
                false
            }
        });
        // If we blocked, the barrier completed when another processor's
        // cascade woke us; nothing more to do.
        let _ = done;
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

impl DsmMachine {
    /// Finishing report pieces specific to this machine.
    pub(crate) fn fill_report(&self, report: &mut crate::RunReport) {
        report.clock_hz = self.params.clock_hz;
        report.traffic = self.traffic;
        report.mark_cycles = self.mark.0;
        report.mark_traffic = self.mark.1;
        for n in &self.nodes {
            report.dsm.merge(n.stats());
        }
        for c in &self.caches {
            let s = c.stats();
            report.cache.hits += s.hits;
            report.cache.misses += s.misses;
            report.cache.evictions += s.evictions;
        }
        report.net_faults = self.net.fault_stats();
        if let Some(rel) = &self.rel {
            report.reliability = *rel.stats();
        }
        report.recovery = self.crash.stats;
    }

    /// Machine-state dump appended to the engine watchdog's diagnostics:
    /// per-node synchronization state (lock tokens, holders, barrier
    /// arrivals) plus reliability and fault counters.
    pub(crate) fn diagnostics(&self) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!("  node {i}: {}\n", n.sync_debug()));
        }
        if let Some(rel) = &self.rel {
            s.push_str(&format!(
                "  reliability: {} packets unacked in flight\n",
                rel.in_flight_len()
            ));
        }
        let fs = self.net.fault_stats();
        if fs.decisions > 0 {
            s.push_str(&format!(
                "  injected faults: {} drops, {} dups, {} delays of {} decisions\n",
                fs.drops, fs.dups, fs.delays, fs.decisions
            ));
        }
        // Name suspected-crashed nodes distinctly from deadlocked ones: a
        // node inside a crash window is not "waiting", it is gone.
        if let Some(plan) = self.net.plan() {
            for (i, c) in plan.crashes.iter().enumerate() {
                let state = match (self.crash.recovered.get(i).copied().flatten(), c.restart_after)
                {
                    (Some(r), _) => format!("recovered at cycle {r}"),
                    (None, Some(d)) => format!("restarts at cycle {}", c.at + d),
                    (None, None) => "down — suspected crashed, not deadlocked".to_string(),
                };
                s.push_str(&format!(
                    "  node {}: crashed at cycle {} ({state})\n",
                    c.node, c.at
                ));
            }
            if self.crash.stats.messages_severed > 0 {
                s.push_str(&format!(
                    "  crash model: {} message copies severed\n",
                    self.crash.stats.messages_severed
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk_parmacs::SystemExt;
    use tmk_sim::CoopEngine;

    fn run_tuned<R: Send>(
        params: DsmParams,
        tuning: &crate::DsmTuning,
        body: impl Fn(&DsmSys<'_, '_>) -> R + Send + Sync,
    ) -> (Vec<R>, DsmMachine, Vec<Cycle>) {
        let procs = params.procs;
        let machine = DsmMachine::new(params, 1 << 16, tuning);
        let engine =
            CoopEngine::new(machine, procs).with_diagnostics(|m: &DsmMachine| m.diagnostics());
        let results: parking_lot::Mutex<Vec<Option<R>>> =
            parking_lot::Mutex::new((0..procs).map(|_| None).collect());
        let r = engine.run(|ctx| {
            let sys = DsmSys::new(ctx);
            let out = body(&sys);
            results.lock()[ctx.id()] = Some(out);
        });
        let results = results
            .into_inner()
            .into_iter()
            .map(|o| o.unwrap())
            .collect();
        (results, r.machine, r.clocks)
    }

    fn run<R: Send>(
        procs: usize,
        body: impl Fn(&DsmSys<'_, '_>) -> R + Send + Sync,
    ) -> (Vec<R>, DsmMachine, Vec<Cycle>) {
        run_tuned(
            DsmParams::treadmarks_dec_atm(procs),
            &crate::DsmTuning::default(),
            body,
        )
    }

    #[test]
    fn coherent_counter_under_timing() {
        let (results, m, _) = run(4, |sys| {
            for _ in 0..10 {
                sys.lock(0);
                let v: u64 = sys.read(0);
                sys.write(0, v + 1);
                sys.unlock(0);
            }
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert!(results.into_iter().all(|v| v == 40));
        assert!(m.traffic.lock_msgs > 0);
        assert!(m.traffic.miss_msgs > 0);
    }

    #[test]
    fn remote_lock_latency_is_sub_millisecond_but_nontrivial() {
        // Paper: minimum remote lock acquisition time is a fraction of a
        // millisecond on the user-level implementation.
        let (_, _, clocks) = run(2, |sys| {
            if sys.pid() == 1 {
                sys.lock(0); // token starts at node 0: remote acquire
                sys.unlock(0);
            }
        });
        let cycles = clocks[1];
        let us = cycles as f64 / 40.0; // 40 cycles per µs at 40 MHz
        assert!(us > 100.0, "remote lock took only {us} µs");
        assert!(us < 1500.0, "remote lock took {us} µs");
    }

    #[test]
    fn barrier_wakes_everyone_with_consistent_times() {
        let (_, _, clocks) = run(4, |sys| {
            sys.compute(1000 * (sys.pid() as u64 + 1));
            sys.barrier(0);
        });
        // All processors leave the barrier after the slowest arrival.
        assert!(clocks.iter().all(|&c| c >= 4000));
    }

    #[test]
    fn page_data_flows_between_nodes() {
        let (results, m, _) = run(3, |sys| {
            if sys.pid() == 0 {
                sys.write(0, 123u64);
            }
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert!(results.into_iter().all(|v| v == 123));
        assert!(m.traffic.miss_bytes >= 4096, "page moved at least once");
    }

    fn chaos_tuning(seed: u64, drop: f64) -> crate::DsmTuning {
        crate::DsmTuning {
            faults: Some(
                tmk_net::FaultPlan::drop_rate(seed, drop)
                    .with_dup(0.02)
                    .with_delay(0.02, 2_000),
            ),
            reliability: Some(RetransmitPolicy::default()),
            ..Default::default()
        }
    }

    fn counter_workload(sys: &DsmSys<'_, '_>) -> u64 {
        for _ in 0..10 {
            sys.lock(0);
            let v: u64 = sys.read(0);
            sys.write(0, v + 1);
            sys.unlock(0);
        }
        sys.barrier(0);
        sys.read::<u64>(0)
    }

    #[test]
    fn retransmission_masks_heavy_losses() {
        let (results, m, _) = run_tuned(
            DsmParams::as_sim(4),
            &chaos_tuning(42, 0.05),
            counter_workload,
        );
        assert!(results.into_iter().all(|v| v == 40));
        let fs = m.net.fault_stats();
        assert!(fs.drops > 0, "seed produced no drops: {fs:?}");
        let rel = m.rel.as_ref().unwrap().stats();
        assert!(rel.retransmissions > 0, "drops without retransmissions");
        assert_eq!(rel.timeouts, rel.retransmissions);
        assert!(rel.acks > 0);
    }

    #[test]
    fn faulty_runs_replay_bit_exactly() {
        let go = || {
            run_tuned(
                DsmParams::as_sim(4),
                &chaos_tuning(7, 0.02),
                counter_workload,
            )
        };
        let (r1, m1, c1) = go();
        let (r2, m2, c2) = go();
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        assert_eq!(m1.traffic, m2.traffic);
        assert_eq!(m1.net.fault_stats(), m2.net.fault_stats());
    }

    #[test]
    fn losses_cost_simulated_time() {
        let clean = run_tuned(
            DsmParams::as_sim(4),
            &crate::DsmTuning {
                reliability: Some(RetransmitPolicy::default()),
                ..Default::default()
            },
            counter_workload,
        );
        let lossy = run_tuned(
            DsmParams::as_sim(4),
            &crate::DsmTuning {
                faults: Some(tmk_net::FaultPlan::drop_rate(42, 0.05)),
                reliability: Some(RetransmitPolicy::default()),
                ..Default::default()
            },
            counter_workload,
        );
        let t_clean = clean.2.iter().copied().max().unwrap();
        let t_lossy = lossy.2.iter().copied().max().unwrap();
        assert!(
            t_lossy > t_clean,
            "timeout-driven retransmission should cost time ({t_lossy} vs {t_clean})"
        );
    }

    fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
        match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&'static str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "non-string panic".into()),
        }
    }

    #[test]
    fn lost_lock_grant_without_reliability_trips_the_watchdog() {
        // Drop every lock-class message on the floor, with no
        // retransmission layer to recover: node 1's acquire must end in the
        // watchdog's diagnostic abort, not a hang.
        let tuning = crate::DsmTuning {
            faults: Some(
                tmk_net::FaultPlan::drop_rate(3, 1.0)
                    .with_class_mask(tmk_core::MsgClass::SyncLock.bit()),
            ),
            ..Default::default()
        };
        let machine = DsmMachine::new(DsmParams::as_sim(2), 1 << 16, &tuning);
        let engine =
            CoopEngine::new(machine, 2).with_diagnostics(|m: &DsmMachine| m.diagnostics());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(|ctx| {
                let sys = DsmSys::new(ctx);
                if sys.pid() == 0 {
                    sys.lock(0); // token starts here; held to the end
                } else {
                    sys.compute(10);
                    sys.lock(0); // request dropped: the grant never comes
                }
            });
        }))
        .expect_err("the run must abort instead of hanging");
        let msg = panic_message(err);
        assert!(msg.contains("simulation deadlock"), "{msg}");
        assert!(msg.contains("waiting on lock 0 grant"), "{msg}");
        assert!(
            msg.contains("node 0: lock 0: token here, held=true"),
            "{msg}"
        );
        assert!(msg.contains("injected faults: 1 drops"), "{msg}");
    }

    /// A retransmission policy snappy enough for the failure detector to
    /// fire within a short workload (the default waits ~16M cycles).
    fn snappy() -> RetransmitPolicy {
        RetransmitPolicy {
            timeout: 50_000,
            backoff: 2,
            max_retries: 4,
            adaptive: None,
        }
    }

    fn crash_tuning(crash_at: Cycle, restart: Option<Cycle>) -> crate::DsmTuning {
        crate::DsmTuning {
            faults: Some(tmk_net::FaultPlan::crash_schedule(0).with_crash(1, crash_at, restart)),
            reliability: Some(snappy()),
            checkpoints: true,
            ..Default::default()
        }
    }

    #[test]
    fn crashed_node_recovers_with_byte_identical_results() {
        let baseline = run_tuned(
            DsmParams::as_sim(4),
            &crate::DsmTuning {
                reliability: Some(snappy()),
                checkpoints: true,
                ..Default::default()
            },
            counter_workload,
        );
        let t_end = *baseline.2.iter().max().unwrap();
        // Crash node 1 mid-run, after the checkpointing has had a chance to
        // cut at least once if a barrier passed (the initial image counts).
        let crashed = run_tuned(
            DsmParams::as_sim(4),
            &crash_tuning(t_end / 2, None),
            counter_workload,
        );
        assert_eq!(baseline.0, crashed.0, "results must survive the crash");
        let stats = crashed.1.crash.stats;
        assert!(stats.suspected >= 1, "{stats:?}");
        assert!(stats.rollbacks >= 1, "{stats:?}");
        assert!(stats.messages_severed > 0, "{stats:?}");
        assert!(stats.recovery_cycles > 0, "{stats:?}");
        assert!(stats.checkpoints >= 1, "a barrier ends the workload: {stats:?}");
        let t_crashed = *crashed.2.iter().max().unwrap();
        assert!(
            t_crashed > t_end,
            "recovery must cost time ({t_crashed} vs {t_end})"
        );
    }

    #[test]
    fn crash_runs_replay_bit_exactly() {
        let go = || {
            run_tuned(
                DsmParams::as_sim(4),
                &crash_tuning(400_000, None),
                counter_workload,
            )
        };
        let (r1, m1, c1) = go();
        let (r2, m2, c2) = go();
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        assert_eq!(m1.crash.stats, m2.crash.stats);
        assert_eq!(m1.traffic, m2.traffic);
    }

    #[test]
    fn transient_outage_is_masked_by_retransmission_alone() {
        // A short self-restarting outage with a patient RTO: the first
        // retry lands after the node is back, so no rollback is needed.
        let tuning = crate::DsmTuning {
            faults: Some(
                tmk_net::FaultPlan::crash_schedule(0).with_crash(1, 300_000, Some(100_000)),
            ),
            reliability: Some(RetransmitPolicy::default()),
            checkpoints: true,
            ..Default::default()
        };
        let (results, m, _) = run_tuned(DsmParams::as_sim(4), &tuning, counter_workload);
        assert!(results.into_iter().all(|v| v == 40));
        let stats = m.crash.stats;
        assert_eq!(stats.rollbacks, 0, "{stats:?}");
        assert_eq!(stats.suspected, 0, "{stats:?}");
    }

    #[test]
    fn crash_without_checkpoint_aborts_naming_the_dead_node() {
        let tuning = crate::DsmTuning {
            faults: Some(tmk_net::FaultPlan::crash_schedule(0).with_crash(1, 300_000, None)),
            reliability: Some(snappy()),
            checkpoints: false,
            ..Default::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tuned(DsmParams::as_sim(4), &tuning, counter_workload);
        }))
        .expect_err("an unrecoverable crash must abort");
        let msg = panic_message(err);
        assert!(
            msg.contains("node 1 crashed and is unrecoverable: no checkpoint armed"),
            "{msg}"
        );
    }

    #[test]
    fn crash_without_reliability_is_named_in_the_watchdog_dump() {
        // No retransmission layer: messages into the dead node are lost for
        // good, the cluster wedges, and the diagnostics must say "crashed",
        // not merely "deadlocked".
        let tuning = crate::DsmTuning {
            faults: Some(tmk_net::FaultPlan::crash_schedule(0).with_crash(1, 300_000, None)),
            checkpoints: true,
            ..Default::default()
        };
        let machine = DsmMachine::new(DsmParams::as_sim(4), 1 << 16, &tuning);
        let engine =
            CoopEngine::new(machine, 4).with_diagnostics(|m: &DsmMachine| m.diagnostics());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(|ctx| {
                let sys = DsmSys::new(ctx);
                if sys.pid() == 1 {
                    sys.lock(0); // takes the token from manager node 0 ...
                    sys.compute(400_000); // ... and is holding it at the crash
                    sys.unlock(0);
                } else {
                    sys.compute(350_000);
                    sys.lock(0); // forwarded into the dead node: never granted
                    sys.unlock(0);
                }
                sys.barrier(0);
            });
        }))
        .expect_err("the wedged run must abort instead of hanging");
        let msg = panic_message(err);
        assert!(
            msg.contains("node 1: crashed at cycle 300000 (down — suspected crashed, not deadlocked)"),
            "{msg}"
        );
        assert!(msg.contains("message copies severed"), "{msg}");
    }

    #[test]
    fn checkpoints_alone_do_not_change_results() {
        let plain = run_tuned(
            DsmParams::as_sim(4),
            &crate::DsmTuning::default(),
            counter_workload,
        );
        let armed = run_tuned(
            DsmParams::as_sim(4),
            &crate::DsmTuning {
                checkpoints: true,
                ..Default::default()
            },
            counter_workload,
        );
        assert_eq!(plain.0, armed.0);
        assert!(armed.1.crash.stats.checkpoints >= 1);
        let t_plain = *plain.2.iter().max().unwrap();
        let t_armed = *armed.2.iter().max().unwrap();
        assert!(t_armed >= t_plain, "checkpoint copies cost time");
    }

    #[test]
    fn single_node_runs_without_messages() {
        let (results, m, _) = run(1, |sys| {
            sys.lock(0);
            sys.write(0, 7u64);
            sys.unlock(0);
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert_eq!(results, vec![7]);
        assert_eq!(m.traffic.total_msgs(), 0);
    }
}
