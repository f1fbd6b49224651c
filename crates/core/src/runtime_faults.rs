//! Fault injection and recovery bookkeeping for the real-thread runtime.
//!
//! The runtime's in-process channels never lose messages, so faults are
//! introduced at the transmit hook: a seeded plan of per-link drops,
//! duplicates and delays (mirroring `tmk_net::FaultPlan` semantics), plus
//! scheduled node crashes at `(node, epoch, op)` points. A packet's fate is
//! a pure function of `(seed, src, dst, seq, attempt)`, so the schedule is
//! independent of thread interleaving: the same seed replays the same fault
//! pattern on real threads no matter how the OS schedules them.

use crate::NodeId;

/// A scheduled node crash: the node "dies" (its application thread unwinds
/// and every message to or from it is severed) at its `op`-th DSM operation
/// of epoch `epoch`. The crash fires once; after recovery the replayed
/// epoch runs clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node that crashes.
    pub node: NodeId,
    /// Epoch (of [`Dsm::run_epochs`](crate::runtime::Dsm::run_epochs)) in
    /// which the crash fires.
    pub epoch: u64,
    /// 1-based DSM-operation count within the epoch at which it fires.
    pub op: u64,
}

/// Deterministic channel-level fault injection for the real-thread
/// runtime. Rates are independent per-packet probabilities; the fate of
/// the `seq`-th packet on each link (and of each retransmitted copy) is
/// fixed by `seed` alone.
#[derive(Debug, Clone, Default)]
pub struct ChannelFaults {
    /// Transmit every Nth cross-node message twice (0 = never). Kept from
    /// the pre-hardening runtime: a counter-based duplicate independent of
    /// the seeded plan.
    pub duplicate_every: u64,
    /// Seed fixing the entire drop/dup/delay schedule.
    pub seed: u64,
    /// Probability a transmitted copy is dropped (repaired by
    /// retransmission).
    pub drop: f64,
    /// Probability a transmitted copy is delivered twice (suppressed by the
    /// receiver's dup window).
    pub dup: f64,
    /// Probability a transmitted copy is held for [`delay_us`] before
    /// delivery (reordering it behind later traffic).
    ///
    /// [`delay_us`]: ChannelFaults::delay_us
    pub delay: f64,
    /// Host-time hold applied to delayed copies, in microseconds.
    pub delay_us: u64,
    /// Scheduled node crashes (recoverable only under
    /// [`Dsm::run_epochs`](crate::runtime::Dsm::run_epochs), which arms
    /// epoch checkpoints).
    pub crashes: Vec<CrashPoint>,
}

impl ChannelFaults {
    /// A fault plan with the given seed and no faults enabled yet.
    pub fn seeded(seed: u64) -> Self {
        ChannelFaults {
            seed,
            ..Default::default()
        }
    }

    /// Sets the per-copy drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the per-copy duplication probability.
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Sets the per-copy delay probability and the hold time in host
    /// microseconds.
    pub fn delay_rate(mut self, p: f64, hold_us: u64) -> Self {
        self.delay = p;
        self.delay_us = hold_us;
        self
    }

    /// Schedules a crash of `node` at its `op`-th DSM operation of `epoch`.
    pub fn crash(mut self, node: NodeId, epoch: u64, op: u64) -> Self {
        self.crashes.push(CrashPoint { node, epoch, op });
        self
    }

    /// Whether any probabilistic link fault is enabled.
    pub(crate) fn link_faults_active(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.delay > 0.0
    }
}

/// The fate rolled for one transmitted copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkFate {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rolls the fate of attempt `attempt` of packet `(src, dst, seq)`: a pure
/// hash of the plan seed and the packet's identity, so the schedule
/// replays bit-exactly regardless of thread interleaving.
pub(crate) fn roll_fate(
    f: &ChannelFaults,
    (src, dst, seq): (NodeId, NodeId, u64),
    attempt: u32,
) -> LinkFate {
    if !f.link_faults_active() {
        return LinkFate::Deliver;
    }
    let mut x = f.seed;
    for v in [src as u64, dst as u64, seq, attempt as u64] {
        x = splitmix(x ^ v);
    }
    let band = |p: f64| -> u64 {
        if p >= 1.0 {
            u64::MAX
        } else {
            (p.max(0.0) * (u64::MAX as f64)) as u64
        }
    };
    let d = band(f.drop);
    let du = d.saturating_add(band(f.dup));
    let de = du.saturating_add(band(f.delay));
    if x < d {
        LinkFate::Drop
    } else if x < du {
        LinkFate::Duplicate
    } else if x < de {
        LinkFate::Delay
    } else {
        LinkFate::Deliver
    }
}

/// Per-link fault counters (keyed by `(src, dst)` in
/// [`FaultSummary::per_link`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Copies dropped on this link.
    pub drops: u64,
    /// Copies duplicated on this link.
    pub dups: u64,
    /// Copies delayed on this link.
    pub delays: u64,
    /// Copies delivered directly (no fault).
    pub delivered: u64,
}

/// What the fault plan actually did during a run, aggregated and per link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Total copies dropped.
    pub drops: u64,
    /// Total copies duplicated.
    pub dups: u64,
    /// Total copies delayed.
    pub delays: u64,
    /// Per-link counters, sorted by `(src, dst)`.
    pub per_link: Vec<((NodeId, NodeId), LinkFaults)>,
}

/// Crash-recovery counters and the event log of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRecovery {
    /// Epoch checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Scheduled crashes that fired.
    pub crashes: u64,
    /// Messages severed on the wire to or from a down node.
    pub severed: u64,
    /// Nodes suspected dead (by retransmission exhaustion or crash-site
    /// self-report), counted once per incident.
    pub suspected: u64,
    /// Cluster-wide rollbacks to the last checkpoint.
    pub rollbacks: u64,
    /// Lock tokens re-minted at their managers by rollbacks (the sans-io
    /// [`Cluster::crash_recover`](crate::Cluster::crash_recover) rule).
    pub tokens_regenerated: u64,
    /// Page copies the crashed nodes re-materialized from the checkpoint.
    pub pages_restored: u64,
    /// Ordered recovery event log (host-relative microsecond timestamps).
    pub events: Vec<RecoveryEvent>,
}

impl RunRecovery {
    /// Whether anything recovery-related happened at all.
    pub fn any(&self) -> bool {
        self.checkpoints > 0 || self.crashes > 0 || self.severed > 0 || self.rollbacks > 0
    }
}

/// One entry of the runtime's recovery event log. Mirrors the trace
/// vocabulary (`node_crash` / `node_suspected` / `checkpoint_take` /
/// `rollback` / `token_regen`) so callers can re-emit these into a
/// `tmk-trace` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A scheduled crash fired on `node` during `epoch`.
    NodeCrash {
        /// Crashed node.
        node: NodeId,
        /// Epoch the crash fired in.
        epoch: u64,
        /// Host-relative time, microseconds.
        at_us: u64,
    },
    /// `node` was given up for dead.
    NodeSuspected {
        /// Suspected node.
        node: NodeId,
        /// Host-relative time, microseconds.
        at_us: u64,
    },
    /// A barrier-consistent checkpoint was taken for `epoch`.
    CheckpointTake {
        /// First epoch the checkpoint would replay.
        epoch: u64,
        /// Resident page copies across the snapshot.
        pages: u64,
        /// Host-relative time, microseconds.
        at_us: u64,
    },
    /// The cluster rolled `node` (and everyone else) back to `to_epoch`.
    Rollback {
        /// The crashed node the rollback recovers.
        node: NodeId,
        /// Epoch execution resumes from.
        to_epoch: u64,
        /// Page copies restored on the crashed node.
        pages: u64,
        /// Host-relative time, microseconds.
        at_us: u64,
    },
    /// Lock tokens re-minted at their managers after a rollback.
    TokenRegen {
        /// Tokens regenerated.
        count: u64,
        /// Host-relative time, microseconds.
        at_us: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_a_pure_function_of_identity() {
        let f = ChannelFaults::seeded(42).drop_rate(0.3).dup_rate(0.2);
        for seq in 0..50u64 {
            for attempt in 0..3u32 {
                let a = roll_fate(&f, (0, 1, seq), attempt);
                let b = roll_fate(&f, (0, 1, seq), attempt);
                assert_eq!(a, b);
            }
        }
        // Different links / attempts see independent streams.
        let all_same = (0..50u64).all(|s| {
            roll_fate(&f, (0, 1, s), 0) == roll_fate(&f, (1, 0, s), 0)
        });
        assert!(!all_same, "links must not share one fate stream");
    }

    #[test]
    fn zero_rates_always_deliver() {
        let f = ChannelFaults::seeded(7);
        for seq in 0..100 {
            assert_eq!(roll_fate(&f, (2, 3, seq), 0), LinkFate::Deliver);
        }
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let f = ChannelFaults::seeded(9).drop_rate(0.25);
        let drops = (0..4000u64)
            .filter(|&s| roll_fate(&f, (0, 1, s), 0) == LinkFate::Drop)
            .count();
        assert!((800..1200).contains(&drops), "got {drops} drops of 4000");
    }
}
