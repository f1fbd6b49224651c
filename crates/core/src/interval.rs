//! Interval records: the units of the happened-before-1 partial order.
//!
//! A node's execution is divided into *intervals*, delimited by releases
//! (lock releases and barrier arrivals). Each interval carries the set of
//! pages the node dirtied during it — the *write notices* — plus the vector
//! time at which it closed. A node's interval store holds every interval it
//! has learned about, from any node, until barrier-time garbage collection
//! retires the prefix every node's vector time dominates.

use std::sync::Arc;

use crate::{NodeId, PageId, Seq, VTime};

/// An interval as transmitted on the wire (inside lock grants and barrier
/// messages).
///
/// The vector time and notice list live in a shared [`IntervalRec`]: the
/// creator builds it once, and every message and every node's store that
/// carries the interval afterwards holds the same record. A barrier
/// departure to N nodes therefore copies pointers, not N-entry vectors. The
/// record is behind an [`Arc`] because the real-thread runtime sends
/// messages across OS threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalMsg {
    /// The node that executed the interval.
    pub node: NodeId,
    /// Its 1-based sequence number within that node.
    pub seq: Seq,
    rec: Arc<IntervalRec>,
}

impl IntervalMsg {
    /// Builds an interval message, sorting the write notices and counting
    /// their consecutive runs once.
    pub fn new(node: NodeId, seq: Seq, vt: VTime, mut pages: Vec<PageId>) -> Self {
        pages.sort_unstable();
        let runs = count_runs(&pages);
        IntervalMsg {
            node,
            seq,
            rec: Arc::new(IntervalRec { vt, pages, runs }),
        }
    }

    /// The creator's vector time when the interval closed (with
    /// `vt().get(node) == seq`).
    pub fn vt(&self) -> &VTime {
        &self.rec.vt
    }

    /// Pages dirtied during the interval (the write notices), ascending.
    pub fn pages(&self) -> &[PageId] {
        &self.rec.pages
    }

    /// Wire size: ids + vector time + run-length-encoded write notices
    /// (consecutive page numbers collapse to `(start, len)` pairs, the
    /// natural encoding for band-partitioned applications like SOR).
    pub fn wire_bytes(&self) -> usize {
        8 + self.rec.vt.wire_bytes() + 8 * self.notice_runs()
    }

    /// Number of maximal runs of consecutive page ids (counted once at
    /// construction: `wire_bytes` is consulted per hop on hot paths).
    pub fn notice_runs(&self) -> usize {
        self.rec.runs
    }
}

/// Counts maximal runs of consecutive page ids in an ascending slice.
fn count_runs(sorted: &[PageId]) -> usize {
    let mut runs = 0;
    let mut prev: Option<PageId> = None;
    for &p in sorted {
        if prev != Some(p.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(p);
    }
    runs
}

/// One interval's closing vector time and write notices, shared by every
/// message and store that carries the interval.
#[derive(Debug, PartialEq, Eq)]
pub struct IntervalRec {
    /// Closing vector time.
    pub vt: VTime,
    /// Pages dirtied, ascending.
    pub pages: Vec<PageId>,
    /// Count of maximal consecutive-page runs in `pages`.
    runs: usize,
}

/// Logical bytes of one record (what it would cost unshared), so the GC
/// trigger and the memory ledger do not depend on how records are shared.
fn rec_bytes(rec: &IntervalRec) -> usize {
    16 + rec.vt.wire_bytes() + rec.pages.len() * 8
}

/// All intervals a node knows about, indexed by `(creator, seq)`.
///
/// Per creator, intervals are stored densely above a garbage-collection
/// floor: position `i` holds sequence number `retired + i + 1`. Lazy release
/// consistency guarantees intervals are learned contiguously (a grant or
/// barrier departure carries exactly the gap between two vector times),
/// which [`insert`](Self::insert) asserts. [`retire_below`](Self::retire_below)
/// advances the floor at barrier-time GC.
#[derive(Debug, Clone, Default)]
pub struct IntervalStore {
    by_node: Vec<Vec<Arc<IntervalRec>>>,
    /// Per creator: highest retired sequence (records `<= retired[q]` are
    /// gone; lookups below the floor return `None`).
    retired: Vec<Seq>,
    /// Logical bytes of the live records, maintained incrementally for the
    /// memory ledger and the GC trigger.
    bytes: usize,
}

impl IntervalStore {
    /// An empty store for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        IntervalStore {
            by_node: vec![Vec::new(); n],
            retired: vec![0; n],
            bytes: 0,
        }
    }

    /// Highest sequence number known for `node` (0 when none).
    pub fn frontier(&self, node: NodeId) -> Seq {
        self.retired[node] + self.by_node[node].len() as Seq
    }

    /// Highest retired (garbage-collected) sequence for `node`.
    pub fn floor(&self, node: NodeId) -> Seq {
        self.retired[node]
    }

    /// Looks up interval `(node, seq)`. Returns `None` below the GC floor.
    pub fn get(&self, node: NodeId, seq: Seq) -> Option<&Arc<IntervalRec>> {
        debug_assert!(seq >= 1);
        if seq <= self.retired[node] {
            return None;
        }
        self.by_node[node].get((seq - self.retired[node]) as usize - 1)
    }

    /// Interval `(node, seq)` as a wire message sharing the stored record.
    /// Returns `None` below the GC floor or above the frontier.
    pub fn msg(&self, node: NodeId, seq: Seq) -> Option<IntervalMsg> {
        self.get(node, seq).map(|rec| IntervalMsg {
            node,
            seq,
            rec: Arc::clone(rec),
        })
    }

    /// Records an interval learned from the wire (idempotent: re-delivery of
    /// a known interval is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the interval would leave a gap in its creator's sequence —
    /// that indicates a protocol bug, since LRC transmits interval ranges
    /// contiguously.
    pub fn insert(&mut self, msg: &IntervalMsg) {
        let have = self.frontier(msg.node);
        if msg.seq <= have {
            return; // already known
        }
        assert_eq!(
            msg.seq,
            have + 1,
            "interval gap for node {}: have {}, got {}",
            msg.node,
            have,
            msg.seq
        );
        self.push(msg);
    }

    /// Records an interval this node itself just closed.
    pub fn record_own(&mut self, msg: &IntervalMsg) {
        assert_eq!(
            msg.seq,
            self.frontier(msg.node) + 1,
            "own interval out of order"
        );
        self.push(msg);
    }

    fn push(&mut self, msg: &IntervalMsg) {
        self.bytes += rec_bytes(&msg.rec);
        self.by_node[msg.node].push(Arc::clone(&msg.rec));
    }

    /// All intervals covered by `upto` but not by `from`, as wire messages —
    /// exactly what a lock grant or barrier departure must carry. Retired
    /// sequences are never delivered (every node's time already dominates
    /// them, so no correct request can span below the floor).
    pub fn between(&self, from: &VTime, upto: &VTime) -> Vec<IntervalMsg> {
        let mut out = Vec::new();
        for q in 0..self.by_node.len() {
            let lo = from.get(q).max(self.retired[q]);
            let hi = upto.get(q).min(self.frontier(q));
            out.extend(((lo + 1)..=hi).map(|seq| self.msg(q, seq).expect("live record")));
        }
        out
    }

    /// Retires every record at or below `floor`, advancing the per-creator
    /// GC floors. Returns `(records retired, approximate bytes reclaimed)`.
    pub fn retire_below(&mut self, floor: &VTime) -> (u64, u64) {
        let mut records = 0u64;
        let mut freed = 0u64;
        for q in 0..self.by_node.len() {
            let cut = (floor.get(q).saturating_sub(self.retired[q]) as usize)
                .min(self.by_node[q].len());
            if cut == 0 {
                continue;
            }
            for rec in self.by_node[q].drain(..cut) {
                freed += rec_bytes(&rec) as u64;
            }
            records += cut as u64;
            self.retired[q] += cut as Seq;
        }
        self.bytes -= freed as usize;
        (records, freed)
    }

    /// Total number of live (unretired) intervals.
    pub fn len(&self) -> usize {
        self.by_node.iter().map(Vec::len).sum()
    }

    /// Logical bytes of the live interval records (each counted whole, as
    /// if unshared).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// True when no intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(node: NodeId, seq: Seq, n: usize, pages: &[PageId]) -> IntervalMsg {
        let mut vt = VTime::zero(n);
        vt.set(node, seq);
        IntervalMsg::new(node, seq, vt, pages.to_vec())
    }

    #[test]
    fn insert_contiguous_and_idempotent() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(1, 1, 2, &[3]));
        s.insert(&msg(1, 2, 2, &[4, 5]));
        s.insert(&msg(1, 1, 2, &[3])); // duplicate, ignored
        assert_eq!(s.frontier(1), 2);
        assert_eq!(s.get(1, 2).unwrap().pages, vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "interval gap")]
    fn insert_gap_panics() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(1, 2, 2, &[]));
    }

    #[test]
    fn between_returns_exactly_the_gap() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(0, 1, 2, &[1]));
        s.insert(&msg(0, 2, 2, &[2]));
        s.insert(&msg(1, 1, 2, &[9]));
        let mut from = VTime::zero(2);
        from.set(0, 1);
        let mut upto = VTime::zero(2);
        upto.set(0, 2);
        upto.set(1, 1);
        let got = s.between(&from, &upto);
        let keys: Vec<_> = got.iter().map(|m| (m.node, m.seq)).collect();
        assert_eq!(keys, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn wire_bytes_run_length_encodes_notices() {
        // 1,2,3 is one run; 1,3,5 is three.
        let m = msg(0, 1, 4, &[1, 2, 3]);
        assert_eq!(m.wire_bytes(), 8 + 16 + 8);
        let m = msg(0, 1, 4, &[1, 3, 5]);
        assert_eq!(m.wire_bytes(), 8 + 16 + 24);
        let m = msg(0, 1, 4, &[]);
        assert_eq!(m.wire_bytes(), 8 + 16);
    }

    #[test]
    fn notice_runs_sorts_at_construction() {
        // Out-of-order first-write order must not inflate the run count.
        let m = msg(0, 1, 4, &[5, 3, 4, 1, 2]);
        assert_eq!(m.pages(), &[1, 2, 3, 4, 5]);
        assert_eq!(m.notice_runs(), 1);
        assert_eq!(m.wire_bytes(), 8 + 16 + 8);
    }

    /// Regression for the hot-path fix: the cached run count must agree
    /// with a from-scratch scan for arbitrary page sets, so wire-byte
    /// accounting is unchanged by the caching.
    #[test]
    fn cached_runs_match_reference_scan() {
        let cases: Vec<Vec<PageId>> = vec![
            vec![],
            vec![0],
            vec![0, 1, 2, 3],
            vec![9, 1, 5, 2, 7, 0],
            vec![4, 4, 5], // duplicates collapse into the same run
            vec![10, 12, 14, 15, 16, 20],
        ];
        for pages in cases {
            let m = msg(0, 1, 4, &pages);
            let mut sorted = pages.clone();
            sorted.sort_unstable();
            let mut runs = 0;
            let mut prev: Option<PageId> = None;
            for &p in &sorted {
                if prev != Some(p.wrapping_sub(1)) {
                    runs += 1;
                }
                prev = Some(p);
            }
            assert_eq!(m.notice_runs(), runs, "pages {pages:?}");
            assert_eq!(m.wire_bytes(), 8 + 16 + 8 * runs);
        }
    }

    #[test]
    fn retire_below_advances_floor_and_clamps_queries() {
        let mut s = IntervalStore::new(2);
        for seq in 1..=4 {
            s.insert(&msg(0, seq, 2, &[seq as PageId]));
        }
        s.insert(&msg(1, 1, 2, &[9]));
        let before = s.approx_bytes();
        assert_eq!(s.len(), 5);

        let mut floor = VTime::zero(2);
        floor.set(0, 2);
        let (records, freed) = s.retire_below(&floor);
        assert_eq!(records, 2);
        assert!(freed > 0);
        assert_eq!(s.approx_bytes(), before - freed as usize);

        // Retired sequences are gone; the frontier is unchanged.
        assert_eq!(s.floor(0), 2);
        assert_eq!(s.frontier(0), 4);
        assert!(s.get(0, 1).is_none());
        assert!(s.get(0, 2).is_none());
        assert_eq!(s.get(0, 3).unwrap().pages, vec![3]);
        assert_eq!(s.len(), 3);

        // between() never resurrects retired intervals even when asked from
        // a stale lower bound.
        let from = VTime::zero(2);
        let mut upto = VTime::zero(2);
        upto.set(0, 4);
        let keys: Vec<_> = s.between(&from, &upto).iter().map(|m| m.seq).collect();
        assert_eq!(keys, vec![3, 4]);

        // Inserting continues above the frontier; re-delivery of a retired
        // sequence is still idempotent.
        s.insert(&msg(0, 2, 2, &[2]));
        assert_eq!(s.frontier(0), 4);
        s.insert(&msg(0, 5, 2, &[5]));
        assert_eq!(s.frontier(0), 5);
        assert_eq!(s.get(0, 5).unwrap().pages, vec![5]);
    }

    #[test]
    fn retire_everything_empties_the_store() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(0, 1, 2, &[1]));
        s.insert(&msg(1, 1, 2, &[2]));
        let mut floor = VTime::zero(2);
        floor.set(0, 1);
        floor.set(1, 1);
        let (records, _) = s.retire_below(&floor);
        assert_eq!(records, 2);
        assert!(s.is_empty());
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.frontier(0), 1, "frontier survives retirement");
    }
}
