//! The in-memory staging buffer for incoming updates (§3.2/§3.3).
//!
//! Incoming well-formed updates are appended here; when the buffer
//! reaches its capacity (S pages — possibly extended by stolen query
//! pages in MaSM-M, Figure 8 lines 2–3) the engine materializes it as a
//! sorted run on the SSD.
//!
//! **Simplification vs. the paper:** the paper's `Mem_scan` shares the
//! live buffer with queries and repairs its cursors when the buffer is
//! sorted or flushed underneath it. We instead hand each scan a sorted
//! *snapshot* of the matching entries at scan setup. Visibility is
//! identical (a query sees exactly the updates with earlier timestamps);
//! the only cost is a small transient copy, which we accept in exchange
//! for clearly correct concurrency. The memory-footprint *accounting*
//! still follows the paper's S/query-page budget.
//!
//! Sealing ([`UpdateBuffer::drain_sorted`]) orders the buffer by
//! `(key, ts)` *stably* — one transaction's writes share a timestamp —
//! by sorting a 24-byte `(key, ts, arrival)` rank per update and then
//! moving each 48-byte record once, to its place.

use masm_pagestore::Key;

use crate::ts::Timestamp;
use crate::update::{UpdateOp, UpdateRecord};

/// Append-ordered buffer of recent updates with byte accounting.
#[derive(Debug)]
pub struct UpdateBuffer {
    entries: Vec<UpdateRecord>,
    /// `entries[i].key`, packed: a query's snapshot filters on these 8
    /// bytes per update and touches a 48-byte record only on a match.
    keys: Vec<Key>,
    bytes: usize,
    capacity: usize,
    base_capacity: usize,
}

impl UpdateBuffer {
    /// Create a buffer with `capacity` bytes (S pages worth).
    pub fn new(capacity: usize) -> Self {
        UpdateBuffer {
            entries: Vec::new(),
            keys: Vec::new(),
            bytes: 0,
            capacity,
            base_capacity: capacity,
        }
    }

    /// Append an update. The caller checks whether the buffer is full
    /// first and flushes or steals pages as its policy dictates; the
    /// buffer itself never refuses (the paper appends then handles
    /// overflow on the next arrival).
    pub fn push(&mut self, u: UpdateRecord) {
        self.bytes += u.encoded_len();
        self.keys.push(u.key);
        self.entries.push(u);
    }

    /// Bytes currently buffered.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of buffered update records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no updates are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when at (or beyond) capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.bytes >= self.capacity
    }

    /// Current capacity in bytes.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Capacity without stolen pages.
    pub(crate) fn base_capacity(&self) -> usize {
        self.base_capacity
    }

    /// Extend capacity by one stolen query page (MaSM-M, Fig. 8).
    pub(crate) fn steal_page(&mut self, page_bytes: usize) {
        self.capacity += page_bytes;
    }

    /// Reset capacity to the base S pages (after a flush).
    fn return_stolen_pages(&mut self) {
        self.capacity = self.base_capacity;
    }

    /// Smallest timestamp buffered, if any.
    pub(crate) fn min_ts(&self) -> Option<Timestamp> {
        self.entries.iter().map(|u| u.ts).min()
    }

    /// Sorted snapshot of updates overlapping `[begin, end]` with
    /// `ts ≤ as_of` — the `Mem_scan` input for one query.
    pub(crate) fn snapshot_range(
        &self,
        begin: Key,
        end: Key,
        as_of: Timestamp,
    ) -> Vec<UpdateRecord> {
        if end < begin {
            return Vec::new();
        }
        // `begin ≤ k ≤ end` as one unsigned compare (`end - begin`
        // cannot overflow, `k - begin` wraps keys below `begin` above
        // any width): a branch-free pass over the key column, which is
        // all a query that matches nothing — most point lookups — pays.
        let width = end - begin;
        let in_range = |k: Key| k.wrapping_sub(begin) <= width;
        let matching = self.keys.iter().filter(|&&k| in_range(k)).count();
        if matching == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(matching);
        let rows = self.keys.iter().zip(&self.entries);
        out.extend(
            rows.filter(|&(&k, u)| in_range(k) && u.ts <= as_of)
                .map(|(_, u)| u.clone()),
        );
        out.sort_by_key(|a| (a.key, a.ts));
        out
    }

    /// Drain everything, sorted by `(key, ts)`, for materializing a
    /// sorted run. Also returns stolen capacity.
    ///
    /// What is sorted is a 24-byte `(key, ts, arrival)` rank per update,
    /// not the 48-byte records: the arrival index makes every rank
    /// distinct, so the unstable sort yields the *stable* order — the
    /// writes of one transaction share a timestamp and must keep their
    /// arrival order — and each record then moves once, to its place.
    /// Arrivals already in order (a bulk of ascending keys) are handed
    /// back as they are.
    pub fn drain_sorted(&mut self) -> Vec<UpdateRecord> {
        // The next fill is as large as this one: size its buffer once
        // instead of growing it by doubling, as `keys` keeps its own.
        let refill = Vec::with_capacity(self.entries.len());
        let mut arrivals = std::mem::replace(&mut self.entries, refill);
        self.keys.clear();
        self.bytes = 0;
        self.return_stolen_pages();
        if arrivals.is_sorted_by_key(|u| (u.key, u.ts)) {
            return arrivals;
        }
        let mut ranks: Vec<(Key, Timestamp, usize)> = arrivals
            .iter()
            .enumerate()
            .map(|(arrival, u)| (u.key, u.ts, arrival))
            .collect();
        ranks.sort_unstable();
        let hole = || UpdateRecord::new(0, 0, UpdateOp::Delete);
        ranks
            .iter()
            .map(|&(_, _, arrival)| std::mem::replace(&mut arrivals[arrival], hole()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(ts: Timestamp, key: Key) -> UpdateRecord {
        UpdateRecord::new(ts, key, UpdateOp::Delete)
    }

    #[test]
    fn push_accounts_bytes() {
        let mut b = UpdateBuffer::new(100);
        let u = upd(1, 5);
        let sz = u.encoded_len();
        b.push(u);
        assert_eq!(b.bytes(), sz);
        assert_eq!(b.len(), 1);
        assert!(!b.is_full());
    }

    #[test]
    fn fills_at_capacity() {
        let mut b = UpdateBuffer::new(40);
        b.push(upd(1, 1)); // 17 bytes
        assert!(!b.is_full());
        b.push(upd(2, 2));
        assert!(!b.is_full());
        b.push(upd(3, 3));
        assert!(b.is_full());
    }

    #[test]
    fn steal_and_return_pages() {
        let mut b = UpdateBuffer::new(20);
        b.push(upd(1, 1));
        assert!(!b.is_full());
        b.push(upd(2, 2));
        assert!(b.is_full());
        b.steal_page(20);
        assert!(!b.is_full());
        assert_eq!(b.capacity(), 40);
        let drained = b.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(b.capacity(), 20);
        assert!(b.is_empty());
    }

    #[test]
    fn snapshot_filters_by_range_and_ts() {
        let mut b = UpdateBuffer::new(1000);
        b.push(upd(1, 10));
        b.push(upd(2, 20));
        b.push(upd(3, 30));
        b.push(upd(4, 20)); // same key, later ts
        let snap = b.snapshot_range(15, 25, 3);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].ts, 2);
        let snap_all = b.snapshot_range(0, 100, 10);
        assert_eq!(snap_all.len(), 4);
        // Sorted by (key, ts).
        let keys: Vec<(Key, Timestamp)> = snap_all.iter().map(|u| (u.key, u.ts)).collect();
        assert_eq!(keys, vec![(10, 1), (20, 2), (20, 4), (30, 3)]);
    }

    #[test]
    fn key_column_tracks_entries_and_snapshots_match_a_reference_filter() {
        let in_step = |b: &UpdateBuffer| {
            assert_eq!(b.keys.len(), b.entries.len());
            assert!(b.keys.iter().zip(&b.entries).all(|(&k, u)| k == u.key));
        };
        let reference = |b: &UpdateBuffer, begin: Key, end: Key, as_of: Timestamp| {
            let mut rows: Vec<UpdateRecord> = b
                .entries
                .iter()
                .filter(|u| u.key >= begin && u.key <= end && u.ts <= as_of)
                .cloned()
                .collect();
            rows.sort_by_key(|u| (u.key, u.ts));
            rows
        };
        let mut b = UpdateBuffer::new(64);
        for round in 0..3u64 {
            let keys = [0, 7, 7, 40, Key::MAX - 1, Key::MAX, 3, Key::MAX, 40];
            for (i, key) in keys.into_iter().enumerate() {
                b.push(upd(round * 100 + i as u64 + 1, key));
                in_step(&b);
            }
            b.steal_page(64);
            in_step(&b);
            let latest = round * 100 + 50;
            let ranges = [
                (7, 7),                   // a point with two versions
                (8, 8),                   // a point with none
                (Key::MAX, Key::MAX),     // the last key
                (0, Key::MAX),            // everything
                (4, 40),                  // a range
                (41, Key::MAX - 2),       // an empty range
                (Key::MAX - 1, Key::MAX), // a range ending at the last key
                (40, 7),                  // begin > end
            ];
            for (begin, end) in ranges {
                for as_of in [0, round * 100 + 3, latest] {
                    assert_eq!(
                        b.snapshot_range(begin, end, as_of),
                        reference(&b, begin, end, as_of),
                        "[{begin}, {end}] as of {as_of}"
                    );
                }
            }
            assert_eq!(b.snapshot_range(0, Key::MAX, latest).len(), keys.len());
            assert_eq!(b.drain_sorted().len(), keys.len());
            in_step(&b);
            assert!(b.is_empty() && b.keys.is_empty());
        }
    }

    #[test]
    fn drain_sorts_by_key_then_ts() {
        let mut b = UpdateBuffer::new(1000);
        b.push(upd(1, 30));
        b.push(upd(2, 10));
        b.push(upd(3, 10));
        let drained = b.drain_sorted();
        let keys: Vec<(Key, Timestamp)> = drained.iter().map(|u| (u.key, u.ts)).collect();
        assert_eq!(keys, vec![(10, 2), (10, 3), (30, 1)]);
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    fn ts_bounds() {
        let mut b = UpdateBuffer::new(1000);
        assert_eq!(b.min_ts(), None);
        b.push(upd(5, 1));
        b.push(upd(2, 2));
        assert_eq!(b.min_ts(), Some(2));
    }

    proptest::proptest! {
        /// `drain_sorted` is the stable sort by `(key, ts)` of the
        /// arrivals: updates that share both — a transaction writing
        /// one key twice — keep their arrival order (the payload tells
        /// them apart here). Few keys and timestamps, so repeats are
        /// the rule; arrivals random, ascending and descending.
        #[test]
        fn drain_sorted_is_the_stable_sort_of_the_arrivals(
            pairs in proptest::collection::vec((0u64..12, 0u64..6), 0..200),
            order in 0u8..3,
        ) {
            let mut pairs = pairs;
            match order {
                0 => {}
                1 => pairs.sort_unstable(),
                _ => pairs.sort_unstable_by(|a, b| b.cmp(a)),
            }
            let arrivals: Vec<UpdateRecord> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(key, ts))| {
                    UpdateRecord::new(ts, key, UpdateOp::Insert((i as u32).to_le_bytes().to_vec()))
                })
                .collect();
            let mut b = UpdateBuffer::new(64);
            b.steal_page(64);
            for u in &arrivals {
                b.push(u.clone());
            }
            let mut want = arrivals;
            want.sort_by_key(|u| (u.key, u.ts));
            proptest::prop_assert_eq!(b.drain_sorted(), want);
            proptest::prop_assert!(b.is_empty() && b.keys.is_empty());
            proptest::prop_assert_eq!((b.bytes(), b.capacity()), (0, 64));
        }
    }
}
