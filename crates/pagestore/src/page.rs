//! Slotted pages.
//!
//! Layout (little-endian):
//!
//! ```text
//! [0..8)    page timestamp — commit time of the last update applied to the
//!           page; the paper reuses the LSN field for this (§3.2)
//! [8..10)   record count
//! [10..12)  free-space pointer (offset of first free byte)
//! [12..16)  reserved
//! [16..)    record heap, growing up
//! [... end) slot directory of u16 record offsets, growing down
//! ```
//!
//! Records inside a page are kept in key order (the heap is clustered by
//! primary key; bulk load and migration both emit sorted streams).

use crate::record::Record;

/// Page header size in bytes.
pub const PAGE_HEADER: usize = 16;
/// Bytes per slot directory entry.
pub const SLOT_SIZE: usize = 2;

/// A slotted page over an owned byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

/// Read-only view of a slotted page over borrowed bytes: how a range
/// scan decodes records straight out of its device buffer. [`Page`]'s
/// own read accessors go through it.
#[derive(Debug, Clone, Copy)]
pub struct PageRef<'a> {
    data: &'a [u8],
}

impl<'a> PageRef<'a> {
    /// View raw bytes previously produced by [`Page::as_bytes`].
    pub fn new(data: &'a [u8]) -> Self {
        assert!(data.len() >= PAGE_HEADER);
        PageRef { data }
    }

    /// Timestamp of the last update applied to this page.
    #[inline]
    pub fn timestamp(&self) -> u64 {
        u64::from_le_bytes(self.data[0..8].try_into().unwrap())
    }

    /// Number of records stored.
    #[inline]
    pub fn record_count(&self) -> usize {
        u16::from_le_bytes(self.data[8..10].try_into().unwrap()) as usize
    }

    #[inline]
    fn slot_offset(&self, i: usize) -> usize {
        let pos = self.data.len() - (i + 1) * SLOT_SIZE;
        u16::from_le_bytes(self.data[pos..pos + SLOT_SIZE].try_into().unwrap()) as usize
    }

    /// Decode record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> Record {
        assert!(i < self.record_count(), "slot {i} out of range");
        Record::decode(&self.data[self.slot_offset(i)..]).0
    }

    /// Key of record `i` without decoding the payload.
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        let off = self.slot_offset(i);
        u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    /// Binary-search the slot directory for `key`: `Ok(slot)` of its
    /// first record if present, else `Err(slot)` where it would go. No
    /// payload is decoded.
    pub fn find(&self, key: u64) -> Result<usize, usize> {
        let n = self.record_count();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.key_at(mid);
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < n && self.key_at(lo) == key {
            Ok(lo)
        } else {
            Err(lo)
        }
    }
}

impl Page {
    /// Create an empty page of `size` bytes.
    pub fn new(size: usize) -> Self {
        assert!(size >= PAGE_HEADER + SLOT_SIZE, "page too small");
        assert!(size <= u16::MAX as usize, "page too large for u16 offsets");
        let mut data = vec![0u8; size];
        data[10..12].copy_from_slice(&(PAGE_HEADER as u16).to_le_bytes());
        Page { data }
    }

    /// Wrap raw bytes previously produced by [`Page::as_bytes`].
    pub fn from_bytes(data: Vec<u8>) -> Self {
        assert!(data.len() >= PAGE_HEADER);
        Page { data }
    }

    /// Raw bytes of the page.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consume into raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Page size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Borrowed read-only view of this page.
    #[inline]
    pub fn view(&self) -> PageRef<'_> {
        PageRef { data: &self.data }
    }

    /// Timestamp of the last update applied to this page.
    #[inline]
    pub fn timestamp(&self) -> u64 {
        self.view().timestamp()
    }

    /// Set the last-applied-update timestamp.
    pub fn set_timestamp(&mut self, ts: u64) {
        self.data[0..8].copy_from_slice(&ts.to_le_bytes());
    }

    /// Number of records stored.
    #[inline]
    pub fn record_count(&self) -> usize {
        self.view().record_count()
    }

    fn set_record_count(&mut self, n: usize) {
        self.data[8..10].copy_from_slice(&(n as u16).to_le_bytes());
    }

    fn free_ptr(&self) -> usize {
        u16::from_le_bytes(self.data[10..12].try_into().unwrap()) as usize
    }

    fn set_free_ptr(&mut self, p: usize) {
        self.data[10..12].copy_from_slice(&(p as u16).to_le_bytes());
    }

    fn set_slot_offset(&mut self, i: usize, off: usize) {
        let pos = self.data.len() - (i + 1) * SLOT_SIZE;
        self.data[pos..pos + SLOT_SIZE].copy_from_slice(&(off as u16).to_le_bytes());
    }

    /// Free bytes remaining (accounting for the slot a new record needs).
    pub fn free_space(&self) -> usize {
        let slots_end = self.data.len() - self.record_count() * SLOT_SIZE;
        slots_end.saturating_sub(self.free_ptr())
    }

    /// Whether `record` fits.
    pub fn fits(&self, record: &Record) -> bool {
        self.free_space() >= record.encoded_len() + SLOT_SIZE
    }

    /// Append a record. Records must be appended in non-decreasing key
    /// order; returns `false` (leaving the page unchanged) when full.
    pub fn append(&mut self, record: &Record) -> bool {
        if !self.fits(record) {
            return false;
        }
        let n = self.record_count();
        if n > 0 {
            debug_assert!(
                self.record(n - 1).key <= record.key,
                "page records must stay key-ordered"
            );
        }
        let off = self.free_ptr();
        let len = record.encoded_len();
        record.encode(&mut self.data[off..off + len]);
        self.set_slot_offset(n, off);
        self.set_record_count(n + 1);
        self.set_free_ptr(off + len);
        true
    }

    /// Decode record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> Record {
        self.view().record(i)
    }

    /// Key of record `i` without decoding the payload.
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        self.view().key_at(i)
    }

    /// Iterate over all records.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.record_count()).map(move |i| self.record(i))
    }

    /// Smallest key on the page, if any.
    pub fn min_key(&self) -> Option<u64> {
        (self.record_count() > 0).then(|| self.key_at(0))
    }

    /// Largest key on the page, if any.
    pub fn max_key(&self) -> Option<u64> {
        let n = self.record_count();
        (n > 0).then(|| self.key_at(n - 1))
    }

    /// Binary-search the page for `key`; `Ok(slot)` if present.
    pub fn find(&self, key: u64) -> Result<usize, usize> {
        self.view().find(key)
    }

    /// Replace the payload of the record in slot `i` (same width only —
    /// fixed-width schemas guarantee this; used by in-place modify).
    pub fn overwrite_payload(&mut self, i: usize, payload: &[u8]) {
        let off = self.view().slot_offset(i);
        let old = self.record(i);
        assert_eq!(
            old.payload.len(),
            payload.len(),
            "in-place overwrite requires equal width"
        );
        self.data[off + 10..off + 10 + payload.len()].copy_from_slice(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::new(4096);
        for &k in keys {
            assert!(p.append(&Record::synthetic(k, 92)));
        }
        p
    }

    #[test]
    fn append_and_read_back() {
        let p = page_with(&[1, 5, 9]);
        assert_eq!(p.record_count(), 3);
        assert_eq!(p.record(0), Record::synthetic(1, 92));
        assert_eq!(p.record(2), Record::synthetic(9, 92));
        assert_eq!(p.min_key(), Some(1));
        assert_eq!(p.max_key(), Some(9));
    }

    #[test]
    fn capacity_matches_paper_density() {
        // 4KB page, 102B encoded records (+2B slot): ~39 records.
        let mut p = Page::new(4096);
        let mut n = 0u64;
        while p.append(&Record::synthetic(n, 92)) {
            n += 1;
        }
        assert!((35..=40).contains(&n), "got {n}");
    }

    #[test]
    fn full_page_rejects_append() {
        let mut p = Page::new(128);
        assert!(p.append(&Record::synthetic(1, 80)));
        let before = p.clone();
        assert!(!p.append(&Record::synthetic(2, 80)));
        assert_eq!(p, before, "failed append must not mutate");
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = page_with(&[2, 4, 6]);
        p.set_timestamp(777);
        let bytes = p.clone().into_bytes();
        let q = Page::from_bytes(bytes);
        assert_eq!(q, p);
        assert_eq!(q.timestamp(), 777);
        assert_eq!(q.record(1).key, 4);
    }

    #[test]
    fn find_binary_search() {
        let p = page_with(&[10, 20, 30, 40]);
        assert_eq!(p.find(10), Ok(0));
        assert_eq!(p.find(40), Ok(3));
        assert_eq!(p.find(25), Err(2));
        assert_eq!(p.find(5), Err(0));
        assert_eq!(p.find(99), Err(4));
    }

    #[test]
    fn overwrite_payload_in_place() {
        let mut p = page_with(&[10, 20, 30]);
        let new_payload = vec![0xAB; 92];
        p.overwrite_payload(1, &new_payload);
        assert_eq!(p.record(1).payload, new_payload);
        assert_eq!(p.record(0), Record::synthetic(10, 92));
        assert_eq!(p.record(2), Record::synthetic(30, 92));
    }

    #[test]
    fn timestamp_defaults_to_zero() {
        assert_eq!(Page::new(4096).timestamp(), 0);
    }

    #[test]
    fn empty_page_has_no_keys() {
        let p = Page::new(4096);
        assert_eq!(p.min_key(), None);
        assert_eq!(p.max_key(), None);
        assert_eq!(p.records().count(), 0);
    }

    #[test]
    #[should_panic(expected = "key-ordered")]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert is compiled out")]
    fn unordered_append_panics_in_debug() {
        let mut p = Page::new(4096);
        p.append(&Record::synthetic(9, 10));
        p.append(&Record::synthetic(3, 10));
    }
}
