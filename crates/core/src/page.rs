//! Per-node, per-page protocol state.
//!
//! Protocol memory grows with what a node touches, not with pages × nodes:
//! a page the node never faulted on, received a notice for, or originated
//! holds no allocation ([`PageTable`]), and a touched page records only the
//! writers it has actually heard from ([`PageMeta`]'s sparse `applied` and
//! `pending`).

use crate::{Diff, NodeId, PageId, Seq};

/// A node's view of one shared page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageMeta {
    /// Local copy of the page, if the node ever fetched or originated one.
    pub data: Option<Box<[u8]>>,
    /// Twin taken at the first write of the current interval; present iff
    /// the page is dirty in the open interval.
    pub twin: Option<Box<[u8]>>,
    /// `(writer, seq)`: the highest interval sequence of `writer` whose
    /// modifications are reflected in `data`, ascending by writer. Writers
    /// with nothing applied (seq 0) are absent.
    applied: Vec<(NodeId, Seq)>,
    /// Pending write notices `(writer, seq)`, ascending: intervals known to
    /// have dirtied this page whose diffs are not yet applied locally.
    /// Non-empty ⇒ the local copy is invalid.
    pending: Vec<(NodeId, Seq)>,
    /// Diffs this node itself materialized for the page, keyed by its own
    /// interval sequence (ascending). Kept for serving remote requests.
    /// Each diff is *cumulative*: it covers every own interval after the
    /// previous entry (lazy diff creation folds multiple intervals into
    /// the diff made at first request).
    pub my_diffs: Vec<(Seq, Diff)>,
    /// Own closed intervals whose modifications still live only in the
    /// twin-vs-data delta (no diff materialized yet), ascending.
    pub undiffed: Vec<Seq>,
    /// The page has been written in the currently open interval.
    pub open_dirty: bool,
    /// In-flight fault, if any.
    pub fetch: Option<Box<FetchState>>,
}

/// Progress of an outstanding page fetch.
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    /// Replies still expected.
    pub outstanding: usize,
    /// Full-page copy received, with the provider's applied-version vector.
    pub base: Option<(Vec<u8>, Vec<Seq>)>,
    /// Diffs received so far: `(writer, seq, closing vt, diff)`.
    pub diffs: Vec<(NodeId, Seq, crate::VTime, Diff)>,
    /// Whether the faulting access was a write (twin needed on completion).
    pub want_write: bool,
    /// This is a GC validation fetch by the origin: no processor is blocked
    /// on it, and its completion advances the collection instead of raising
    /// a page-ready action.
    pub gc: bool,
}

impl FetchState {
    /// A fetch with no requests issued yet.
    pub fn new(want_write: bool, gc: bool) -> Box<Self> {
        Box::new(FetchState {
            outstanding: 0,
            base: None,
            diffs: Vec::new(),
            want_write,
            gc,
        })
    }
}

impl PageMeta {
    /// A copy is present and no write notices are unapplied.
    pub fn is_valid(&self) -> bool {
        self.data.is_some() && self.pending.is_empty()
    }

    /// Some write notice is unapplied.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The unapplied write notices `(writer, seq)`, ascending.
    pub fn pending(&self) -> &[(NodeId, Seq)] {
        &self.pending
    }

    /// The highest interval sequence of `writer` reflected in `data`.
    pub fn applied(&self, writer: NodeId) -> Seq {
        match self.applied.binary_search_by_key(&writer, |&(q, _)| q) {
            Ok(i) => self.applied[i].1,
            Err(_) => 0,
        }
    }

    /// Per pending writer, ascending: `(writer, newest pending seq)` — the
    /// upper bound of the diff request that writer must answer.
    pub fn pending_tails(&self) -> impl Iterator<Item = (NodeId, Seq)> + '_ {
        self.pending
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| *run.last().expect("chunks are non-empty"))
    }

    /// The dense per-writer applied vector of an `n`-node cluster, as a
    /// page reply carries it.
    pub fn version_vector(&self, n: usize) -> Vec<Seq> {
        let mut v = vec![0; n];
        for &(q, s) in &self.applied {
            v[q] = s;
        }
        v
    }

    /// Registers a write notice `(writer, seq)` unless already applied or
    /// already pending. Notices may arrive out of order (eager-release
    /// updates race with lock grants), so insertion keeps the list sorted.
    pub fn add_notice(&mut self, writer: NodeId, seq: Seq) {
        if seq <= self.applied(writer) {
            return;
        }
        if let Err(pos) = self.pending.binary_search(&(writer, seq)) {
            self.pending.insert(pos, (writer, seq));
        }
    }

    /// Marks everything up to `seq` from `writer` as applied, dropping the
    /// corresponding pending notices.
    pub fn mark_applied(&mut self, writer: NodeId, seq: Seq) {
        let applied = match self.applied.binary_search_by_key(&writer, |&(q, _)| q) {
            Ok(i) => {
                let a = &mut self.applied[i].1;
                *a = (*a).max(seq);
                *a
            }
            // Notice sequences start at 1, so nothing pending is covered.
            Err(_) if seq == 0 => return,
            Err(i) => {
                self.applied.insert(i, (writer, seq));
                seq
            }
        };
        // The writer's notices are one contiguous run of the sorted list;
        // the covered ones are its prefix.
        let lo = self.pending.partition_point(|&(q, _)| q < writer);
        let hi = self.pending.partition_point(|&n| n <= (writer, applied));
        self.pending.drain(lo..hi);
    }

    /// Drops every pending notice (the copy they invalidated is gone).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// The materialized diffs needed to cover own intervals in `(from, to]`.
    ///
    /// Diffs are cumulative between twin points, so an interval may be
    /// covered by a diff with a *later* sequence number; the scan therefore
    /// includes every diff after `from` up to and including the first one
    /// whose sequence reaches `to`.
    pub fn my_diffs_between(&self, from: Seq, to: Seq) -> Vec<(Seq, Diff)> {
        let mut out = Vec::new();
        for (s, d) in &self.my_diffs {
            if *s > from {
                out.push((*s, d.clone()));
                if *s >= to {
                    break;
                }
            }
        }
        out
    }

    /// Heap bytes this page's protocol state holds (the record itself plus
    /// everything it owns).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let copy = |c: &Option<Box<[u8]>>| c.as_ref().map_or(0, |b| b.len());
        std::mem::size_of::<Self>()
            + copy(&self.data)
            + copy(&self.twin)
            + cap(&self.applied)
            + cap(&self.pending)
            + cap(&self.my_diffs)
            + self
                .my_diffs
                .iter()
                .map(|(_, d)| d.wire_bytes())
                .sum::<usize>()
            + cap(&self.undiffed)
            + self
                .fetch
                .as_ref()
                .map_or(0, |_| std::mem::size_of::<FetchState>())
    }
}

/// A node's per-page state, allocated on first touch: an untouched page is
/// one null pointer.
#[derive(Debug, Clone)]
pub(crate) struct PageTable(Vec<Option<Box<PageMeta>>>);

impl PageTable {
    /// A table of `pages` untouched pages.
    pub fn new(pages: usize) -> Self {
        PageTable(vec![None; pages])
    }

    /// The page's state, if the node ever touched it.
    pub fn get(&self, page: PageId) -> Option<&PageMeta> {
        self.0[page].as_deref()
    }

    /// Mutable access to a touched page's state.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut PageMeta> {
        self.0[page].as_deref_mut()
    }

    /// The page's state, allocating it on first touch.
    pub fn touch(&mut self, page: PageId) -> &mut PageMeta {
        self.0[page].get_or_insert_with(Box::default)
    }

    /// Every touched page's state.
    pub fn touched(&self) -> impl Iterator<Item = &PageMeta> {
        self.0.iter().filter_map(Option::as_deref)
    }

    /// Every touched page's state, mutably.
    pub fn touched_mut(&mut self) -> impl Iterator<Item = &mut PageMeta> {
        self.0.iter_mut().filter_map(Option::as_deref_mut)
    }

    /// Touched pages with a resident copy.
    pub fn resident(&self) -> u64 {
        self.touched().filter(|p| p.data.is_some()).count() as u64
    }

    /// Heap bytes of per-page state: zero for a node that touched nothing.
    #[cfg(test)]
    pub fn heap_bytes(&self) -> usize {
        self.touched().map(PageMeta::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validity_requires_data_and_no_pending() {
        let mut p = PageMeta::default();
        assert!(!p.is_valid());
        p.data = Some(vec![0u8; 16].into_boxed_slice());
        assert!(p.is_valid());
        p.add_notice(1, 1);
        assert!(!p.is_valid());
        p.mark_applied(1, 1);
        assert!(p.is_valid());
    }

    #[test]
    fn notices_dedup_and_skip_applied() {
        let mut p = PageMeta::default();
        p.mark_applied(1, 3);
        p.add_notice(1, 2); // already applied
        assert!(p.pending().is_empty());
        p.add_notice(1, 4);
        p.add_notice(1, 4); // duplicate
        assert_eq!(p.pending(), &[(1, 4)]);
        p.add_notice(1, 5);
        assert_eq!(p.pending(), &[(1, 4), (1, 5)]);
    }

    #[test]
    fn diff_range_query_covers_folded_intervals() {
        let mut p = PageMeta::default();
        p.my_diffs.push((1, Diff::default()));
        p.my_diffs.push((4, Diff::default()));
        p.my_diffs.push((7, Diff::default()));
        // Interval 2 and 3's mods are folded into the cumulative diff @4.
        let got = p.my_diffs_between(1, 3);
        let seqs: Vec<Seq> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4], "first diff reaching the range suffices");
        let got = p.my_diffs_between(1, 6);
        let seqs: Vec<Seq> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 7], "6 is only covered by the diff @7");
        assert!(p.my_diffs_between(7, 9).is_empty());
    }

    #[test]
    fn out_of_order_notices_stay_sorted() {
        let mut p = PageMeta::default();
        p.add_notice(1, 5);
        p.add_notice(1, 3);
        p.add_notice(1, 5);
        assert_eq!(p.pending(), &[(1, 3), (1, 5)]);
    }

    #[test]
    fn untouched_pages_hold_nothing() {
        let mut t = PageTable::new(64);
        assert_eq!(t.heap_bytes(), 0);
        assert!(t.get(3).is_none());
        t.touch(3).add_notice(1, 1);
        assert!(t.get(3).is_some_and(PageMeta::has_pending));
        assert_eq!(t.touched().count(), 1);
        assert!(t.heap_bytes() >= std::mem::size_of::<PageMeta>());
    }

    /// One step against a page: a notice or an apply from `writer`.
    #[derive(Debug, Clone)]
    enum Step {
        Notice(NodeId, Seq),
        Apply(NodeId, Seq),
    }

    fn step_strategy(nodes: usize) -> impl Strategy<Value = Step> {
        (any::<bool>(), 0..nodes, 0u32..8).prop_map(|(notice, q, s)| {
            if notice {
                Step::Notice(q, s.max(1))
            } else {
                Step::Apply(q, s)
            }
        })
    }

    proptest! {
        /// The sparse writer state agrees with the dense reference model
        /// (one applied seq and one sorted notice queue per writer) under
        /// arbitrary out-of-order and duplicate notice/apply sequences:
        /// applied versions, pending notices per writer, validity, and the
        /// diff requests a fault would issue.
        #[test]
        fn sparse_state_matches_dense_model(
            steps in proptest::collection::vec(step_strategy(6), 0..40),
            has_data in any::<bool>(),
        ) {
            const N: usize = 6;
            let mut p = PageMeta::default();
            if has_data {
                p.data = Some(vec![0u8; 8].into_boxed_slice());
            }
            let mut applied: Vec<Seq> = vec![0; N];
            let mut pending: Vec<Vec<Seq>> = vec![Vec::new(); N];
            for step in &steps {
                match *step {
                    Step::Notice(q, s) => {
                        p.add_notice(q, s);
                        if s > applied[q] {
                            if let Err(pos) = pending[q].binary_search(&s) {
                                pending[q].insert(pos, s);
                            }
                        }
                    }
                    Step::Apply(q, s) => {
                        p.mark_applied(q, s);
                        applied[q] = applied[q].max(s);
                        let a = applied[q];
                        pending[q].retain(|&x| x > a);
                    }
                }
                for q in 0..N {
                    prop_assert_eq!(p.applied(q), applied[q]);
                    let sparse: Vec<Seq> = p
                        .pending()
                        .iter()
                        .filter(|&&(w, _)| w == q)
                        .map(|&(_, s)| s)
                        .collect();
                    prop_assert_eq!(&sparse, &pending[q]);
                }
                let dense_valid = has_data && pending.iter().all(Vec::is_empty);
                prop_assert_eq!(p.is_valid(), dense_valid);
                // The DiffReq set: `(writer, from, to)` in writer order.
                let dense_reqs: Vec<(NodeId, Seq, Seq)> = (0..N)
                    .filter_map(|q| pending[q].last().map(|&last| (q, applied[q], last)))
                    .collect();
                let sparse_reqs: Vec<(NodeId, Seq, Seq)> = p
                    .pending_tails()
                    .map(|(q, last)| (q, p.applied(q), last))
                    .collect();
                prop_assert_eq!(sparse_reqs, dense_reqs);
                prop_assert_eq!(p.version_vector(N), applied.clone());
            }
        }
    }
}
