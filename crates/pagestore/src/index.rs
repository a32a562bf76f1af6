//! Sparse primary-key index: the smallest key of every logical page.
//!
//! In a clustered heap this is all the index a range scan or a point
//! lookup needs; the paper assumes it fits in memory (§2.1 footnote 2:
//! RIDs "may be obtained by searching the (in-memory) index on sort
//! keys").

use crate::record::Key;

/// Smallest key per logical page, in logical page order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseIndex {
    min_keys: Vec<Key>,
}

impl SparseIndex {
    /// Build from per-page minimum keys (must be non-decreasing).
    pub fn new(min_keys: Vec<Key>) -> Self {
        debug_assert!(min_keys.windows(2).all(|w| w[0] <= w[1]));
        SparseIndex { min_keys }
    }

    /// Minimum key of logical page `p`.
    pub(crate) fn min_key(&self, p: usize) -> Key {
        self.min_keys[p]
    }

    /// Logical page that would contain `key`: the last page whose minimum
    /// key is ≤ `key` (page 0 if `key` precedes everything).
    pub fn locate(&self, key: Key) -> Option<usize> {
        if self.min_keys.is_empty() {
            return None;
        }
        // partition_point gives the count of pages with min_key <= key.
        let n = self.min_keys.partition_point(|&k| k <= key);
        Some(n.saturating_sub(1))
    }

    /// Inclusive logical page range overlapping `[begin, end]`.
    pub(crate) fn page_range(&self, begin: Key, end: Key) -> Option<(usize, usize)> {
        if self.min_keys.is_empty() || end < begin {
            return None;
        }
        let first = self.locate(begin)?;
        let last = self.locate(end)?;
        Some((first, last))
    }

    /// Append a page's minimum key during bulk load.
    pub(crate) fn push(&mut self, min_key: Key) {
        debug_assert!(self.min_keys.last().is_none_or(|&k| k <= min_key));
        self.min_keys.push(min_key);
    }

    /// Replace the minimum keys of the logical pages `pages` with
    /// `min_keys` (fewer, as many or more), in place: what a rewrite
    /// does to the index when it commits a chunk. Only the keys after
    /// the replaced pages move, and only when the page count changes.
    pub(crate) fn splice(&mut self, pages: std::ops::Range<usize>, min_keys: &[Key]) {
        let seam = pages.start.saturating_sub(1)..pages.start + min_keys.len() + 1;
        self.min_keys.splice(pages, min_keys.iter().copied());
        let around = &self.min_keys[seam.start..seam.end.min(self.min_keys.len())];
        debug_assert!(around.windows(2).all(|w| w[0] <= w[1]));
    }

    /// All minimum keys (for snapshots).
    pub(crate) fn min_keys(&self) -> &[Key] {
        &self.min_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> SparseIndex {
        SparseIndex::new(vec![0, 100, 200, 300])
    }

    #[test]
    fn locate_exact_and_between() {
        let i = idx();
        assert_eq!(i.locate(0), Some(0));
        assert_eq!(i.locate(99), Some(0));
        assert_eq!(i.locate(100), Some(1));
        assert_eq!(i.locate(250), Some(2));
        assert_eq!(i.locate(1_000_000), Some(3));
    }

    #[test]
    fn locate_before_first_page_clamps() {
        let i = SparseIndex::new(vec![50, 100]);
        assert_eq!(i.locate(10), Some(0));
    }

    #[test]
    fn page_range_spans() {
        let i = idx();
        assert_eq!(i.page_range(50, 250), Some((0, 2)));
        assert_eq!(i.page_range(100, 100), Some((1, 1)));
        assert_eq!(i.page_range(301, 500), Some((3, 3)));
    }

    #[test]
    fn page_range_empty_cases() {
        let i = idx();
        assert_eq!(i.page_range(10, 5), None);
        assert_eq!(SparseIndex::default().page_range(0, 10), None);
        assert_eq!(SparseIndex::default().locate(5), None);
    }

    #[test]
    fn splice_equals_copy_splice_rebuild() {
        let mins: Vec<Key> = (0..10).map(|i| i * 100).collect();
        let (first, last) = (0..2, 8..10);
        // (pages replaced, their new minimum keys): the same number,
        // more, fewer and none at all — at the front, in the middle
        // and at the end.
        let cases: [(std::ops::Range<usize>, Vec<Key>); 12] = [
            (first.clone(), vec![0, 150]),
            (first.clone(), vec![5, 10, 20, 199]),
            (first.clone(), vec![120]),
            (first, vec![]),
            (4..6, vec![400, 500]),
            (4..6, vec![401, 450, 480, 520, 599]),
            (4..6, vec![455]),
            (4..6, vec![]),
            (last.clone(), vec![800, 950]),
            (last.clone(), vec![810, 820, 5000]),
            (last.clone(), vec![899]),
            (last, vec![]),
        ];
        for (pages, keys) in cases {
            let mut spliced = SparseIndex::new(mins.clone());
            spliced.splice(pages.clone(), &keys);
            let mut copy = mins.clone();
            copy.splice(pages.clone(), keys.iter().copied());
            let rebuilt = SparseIndex::new(copy);
            assert_eq!(spliced, rebuilt, "{pages:?} -> {keys:?}");
            for probe in (0..1100).step_by(7).chain([5000, Key::MAX]) {
                assert_eq!(spliced.locate(probe), rebuilt.locate(probe));
                assert_eq!(
                    spliced.page_range(probe / 2, probe),
                    rebuilt.page_range(probe / 2, probe)
                );
            }
        }
        let mut all = SparseIndex::new(mins);
        all.splice(0..10, &[]);
        assert!(all.min_keys().is_empty());
        assert_eq!(all.locate(5), None);
        all.splice(0..0, &[7, 9]);
        assert_eq!(all.min_keys(), [7, 9]);
    }

    #[test]
    fn push_keeps_order() {
        let mut i = SparseIndex::default();
        i.push(1);
        i.push(5);
        i.push(5);
        assert_eq!(i.min_keys().len(), 3);
        assert_eq!(i.locate(5), Some(2));
    }
}
