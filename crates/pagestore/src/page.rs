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
//! primary key; bulk load and migration both emit sorted streams), and
//! records appended one after another sit back to back in the record
//! heap: a run of them is one contiguous byte range.
//!
//! Three types share the layout: [`Page`] owns one page and can change
//! it, [`PageRef`] reads one page out of somebody else's bytes, and
//! [`PageChunk`] is a run of whole pages in one allocation — what a
//! heap rewrite reads, packs and writes ([`crate::heap::HeapRewriter`]).

use std::fmt;
use std::ops::Range;

use crate::record::{encode_parts, Key, Record, RECORD_HEADER};

/// Page header size in bytes.
pub(crate) const PAGE_HEADER: usize = 16;
/// Bytes per slot directory entry.
pub(crate) const SLOT_SIZE: usize = 2;

/// The longest encoded record (header and payload) a page of
/// `page_size` bytes can hold: what is left of an empty page after its
/// header and the record's slot.
pub const fn max_record_len(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER + SLOT_SIZE)
}

/// A record whose encoding does not fit an empty page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordTooLarge {
    /// Encoded length of the record (header and payload).
    pub encoded_len: usize,
    /// Size of the page it was meant for.
    pub page_size: usize,
}

impl fmt::Display for RecordTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a record of {} encoded bytes does not fit an empty {}-byte page (at most {})",
            self.encoded_len,
            self.page_size,
            max_record_len(self.page_size)
        )
    }
}

impl std::error::Error for RecordTooLarge {}

fn check_page_size(size: usize) {
    assert!(size >= PAGE_HEADER + SLOT_SIZE, "page too small");
    assert!(size <= u16::MAX as usize, "page too large for u16 offsets");
}

/// Format `page` as an empty page stamped `timestamp`. Only the header
/// is written: the rest must already be zero.
fn format_page(page: &mut [u8], timestamp: u64) {
    page[0..8].copy_from_slice(&timestamp.to_le_bytes());
    page[10..12].copy_from_slice(&(PAGE_HEADER as u16).to_le_bytes());
}

/// Make room for `records` more records of `bytes` encoded bytes in all
/// at the end of `page`'s record heap — the caller has checked that
/// they fit — and return the offset they start at. Their slots are the
/// caller's to fill ([`set_slot`]).
fn grow(page: &mut [u8], records: usize, bytes: usize) -> usize {
    let view = PageRef { data: page };
    let (count, start) = (view.record_count(), view.free_ptr());
    page[8..10].copy_from_slice(&((count + records) as u16).to_le_bytes());
    page[10..12].copy_from_slice(&((start + bytes) as u16).to_le_bytes());
    start
}

fn set_slot(page: &mut [u8], i: usize, offset: usize) {
    let pos = page.len() - (i + 1) * SLOT_SIZE;
    page[pos..pos + SLOT_SIZE].copy_from_slice(&(offset as u16).to_le_bytes());
}

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
    pub(crate) fn new(data: &'a [u8]) -> Self {
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
    fn free_ptr(&self) -> usize {
        u16::from_le_bytes(self.data[10..12].try_into().unwrap()) as usize
    }

    /// Free bytes remaining (a new record needs its length plus
    /// [`SLOT_SIZE`] of them).
    #[inline]
    fn free_space(&self) -> usize {
        let slots_end = self.data.len() - self.record_count() * SLOT_SIZE;
        slots_end.saturating_sub(self.free_ptr())
    }

    #[inline]
    fn slot_offset(&self, i: usize) -> usize {
        let pos = self.data.len() - (i + 1) * SLOT_SIZE;
        u16::from_le_bytes(self.data[pos..pos + SLOT_SIZE].try_into().unwrap()) as usize
    }

    /// Encoded length of the record that starts at byte `off`.
    #[inline]
    fn encoded_len_at(&self, off: usize) -> usize {
        let len = u16::from_le_bytes(self.data[off + 8..off + 10].try_into().unwrap());
        RECORD_HEADER + len as usize
    }

    /// The encoded bytes of record `i` — header and payload, as
    /// [`Record::encode_into`] writes them — bounds-checked against the page.
    #[inline]
    pub fn record_bytes(&self, i: usize) -> &'a [u8] {
        assert!(i < self.record_count(), "slot {i} out of range");
        let off = self.slot_offset(i);
        &self.data[off..off + self.encoded_len_at(off)]
    }

    /// Decode record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> Record {
        assert!(i < self.record_count(), "slot {i} out of range");
        Record::decode(&self.data[self.slot_offset(i)..]).0
    }

    /// Decode every record, in slot order.
    pub(crate) fn records(self) -> impl Iterator<Item = Record> + 'a {
        (0..self.record_count()).map(move |i| self.record(i))
    }

    /// Key of record `i` without decoding the payload.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key {
        let off = self.slot_offset(i);
        Key::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    /// Smallest key on the page, if any.
    pub(crate) fn min_key(&self) -> Option<Key> {
        (self.record_count() > 0).then(|| self.key_at(0))
    }

    /// Largest key on the page, if any.
    pub fn max_key(&self) -> Option<Key> {
        let n = self.record_count();
        (n > 0).then(|| self.key_at(n - 1))
    }

    /// Binary-search the slots from `from` on for the first record whose
    /// key is at least `key`; the record count when there is none. No
    /// payload is decoded.
    pub fn lower_bound(&self, from: usize, key: Key) -> usize {
        let (mut lo, mut hi) = (from, self.record_count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key_at(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Binary-search the slot directory for `key`: `Ok(slot)` of its
    /// first record if present, else `Err(slot)` where it would go. No
    /// payload is decoded.
    pub fn find(&self, key: Key) -> Result<usize, usize> {
        let slot = self.lower_bound(0, key);
        if slot < self.record_count() && self.key_at(slot) == key {
            Ok(slot)
        } else {
            Err(slot)
        }
    }
}

impl Page {
    /// Create an empty page of `size` bytes.
    pub fn new(size: usize) -> Self {
        check_page_size(size);
        let mut data = vec![0u8; size];
        format_page(&mut data, 0);
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

    /// Borrowed read-only view of this page.
    #[inline]
    pub(crate) fn view(&self) -> PageRef<'_> {
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
    pub(crate) fn record_count(&self) -> usize {
        self.view().record_count()
    }

    /// Free bytes remaining (accounting for the slot a new record needs).
    pub(crate) fn free_space(&self) -> usize {
        self.view().free_space()
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
        debug_assert!(
            self.max_key().is_none_or(|last| last <= record.key),
            "page records must stay key-ordered"
        );
        let len = record.encoded_len();
        let off = grow(&mut self.data, 1, len);
        record.encode(&mut self.data[off..off + len]);
        set_slot(&mut self.data, n, off);
        true
    }

    /// Key of record `i` without decoding the payload.
    #[inline]
    pub fn key_at(&self, i: usize) -> Key {
        self.view().key_at(i)
    }

    /// Iterate over all records.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.view().records()
    }

    /// Smallest key on the page, if any.
    pub fn min_key(&self) -> Option<Key> {
        self.view().min_key()
    }

    /// Largest key on the page, if any.
    pub fn max_key(&self) -> Option<Key> {
        self.view().max_key()
    }

    /// Binary-search the page for `key`; `Ok(slot)` if present.
    pub fn find(&self, key: Key) -> Result<usize, usize> {
        self.view().find(key)
    }
}

/// A run of whole slotted pages in one allocation: the unit a heap
/// rewrite reads, packs and writes.
///
/// Read side: the bytes of consecutive pages as they came off the
/// device, handed out as [`PageRef`]s. Write side: a packer —
/// [`PageChunk::push`], [`PageChunk::push_encoded`] and
/// [`PageChunk::push_run`] append records in key order, formatting
/// pages **in place** at the end of the buffer; a new page is opened
/// only when the next record does not fit the open one (or, for a bulk
/// load's packer, would take it past its fill budget). Every page is
/// byte for byte what [`Page::new`], [`Page::set_timestamp`] and
/// [`Page::append`] would have produced, whatever the buffer held
/// before.
#[derive(Debug)]
pub struct PageChunk {
    /// Whole pages only: the length is a multiple of `page_size`.
    data: Vec<u8>,
    page_size: usize,
    /// Timestamp of the pages the packer opens.
    stamp: u64,
}

impl PageChunk {
    /// An empty chunk of `page_size`-byte pages; nothing is allocated
    /// until something is read or pushed into it.
    pub fn new(page_size: usize) -> Self {
        Self::from_bytes(page_size, Vec::new())
    }

    /// Wrap the bytes of whole pages, each as [`Page::as_bytes`]
    /// produced it.
    pub fn from_bytes(page_size: usize, data: Vec<u8>) -> Self {
        check_page_size(page_size);
        assert_eq!(data.len() % page_size, 0, "a chunk is whole pages");
        PageChunk {
            data,
            page_size,
            stamp: 0,
        }
    }

    /// Size of each page in bytes.
    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.data.len() / self.page_size
    }

    /// True when the chunk holds no page.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes of all pages, in order: what is written to the device.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The pages, in order.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = PageRef<'_>> {
        self.data
            .chunks_exact(self.page_size)
            .map(|data| PageRef { data })
    }

    /// Total records, from the page headers.
    pub(crate) fn record_count(&self) -> u64 {
        self.pages().map(|p| p.record_count() as u64).sum()
    }

    /// Drop every page but keep the allocation; pages the packer opens
    /// from now on are stamped `stamp`.
    pub fn reset(&mut self, stamp: u64) {
        self.data.clear();
        self.stamp = stamp;
    }

    /// The emptied buffer, for the heap to read whole pages into.
    pub(crate) fn read_buffer(&mut self) -> &mut Vec<u8> {
        self.data.clear();
        &mut self.data
    }

    /// The page the packer is filling, if one is open.
    fn open_page(&mut self) -> Option<&mut [u8]> {
        let start = self.data.len().checked_sub(self.page_size)?;
        Some(&mut self.data[start..])
    }

    /// Open a new page for a record of `encoded_len` bytes. The buffer
    /// may have held other pages before [`PageChunk::reset`]: the new
    /// page is zeroed, so no stale byte shows through its free gap.
    fn next_page(&mut self, encoded_len: usize) -> Result<(), RecordTooLarge> {
        if encoded_len > max_record_len(self.page_size) {
            return Err(RecordTooLarge {
                encoded_len,
                page_size: self.page_size,
            });
        }
        let start = self.data.len();
        self.data.resize(start + self.page_size, 0);
        format_page(&mut self.data[start..], self.stamp);
        Ok(())
    }

    /// Whether a record of `len` encoded bytes would open a new page
    /// when pushed with [`PageChunk::push_within`]`(.., budget)`: no
    /// page is open, the record does not fit the open one, or the open
    /// page's records and slots would take more than `budget` bytes.
    pub(crate) fn opens_page(&self, len: usize, budget: usize) -> bool {
        let Some(start) = self.data.len().checked_sub(self.page_size) else {
            return true;
        };
        let free = PageRef {
            data: &self.data[start..],
        }
        .free_space();
        let used = self.page_size - PAGE_HEADER - free;
        free < len + SLOT_SIZE || used + len + SLOT_SIZE > budget
    }

    /// Reserve `len` bytes and a slot for one more record, in the open
    /// page if it takes them within `budget` ([`PageChunk::opens_page`])
    /// and in a new page if not, and hand the bytes out to be filled
    /// with the record's encoding.
    fn reserve(
        &mut self,
        key: Key,
        len: usize,
        budget: usize,
    ) -> Result<&mut [u8], RecordTooLarge> {
        if self.opens_page(len, budget) {
            self.next_page(len)?;
        }
        let page = self.open_page().expect("a page is open");
        let view = PageRef { data: page };
        debug_assert!(
            view.max_key().is_none_or(|last| last <= key),
            "page records must stay key-ordered"
        );
        let slot = view.record_count();
        let off = grow(page, 1, len);
        set_slot(page, slot, off);
        Ok(&mut page[off..off + len])
    }

    /// Append `record`, encoded straight into its page.
    pub fn push(&mut self, record: &Record) -> Result<(), RecordTooLarge> {
        self.push_within(record, self.page_size)
    }

    /// Append `record` like [`PageChunk::push`], but open a new page
    /// once the open one's records and slots would take more than
    /// `budget` bytes — a bulk load's fill factor. The first record of
    /// a page is taken whatever its size.
    pub(crate) fn push_within(
        &mut self,
        record: &Record,
        budget: usize,
    ) -> Result<(), RecordTooLarge> {
        record.encode(self.reserve(record.key, record.encoded_len(), budget)?);
        Ok(())
    }

    /// Append a record given as its encoded bytes
    /// ([`PageRef::record_bytes`]): nothing is decoded. Returns the
    /// copy, in its page, for the caller to patch in place.
    pub fn push_encoded(&mut self, encoded: &[u8]) -> Result<&mut [u8], RecordTooLarge> {
        let key = Key::from_le_bytes(encoded[..8].try_into().expect("record header"));
        let copy = self.reserve(key, encoded.len(), self.page_size)?;
        copy.copy_from_slice(encoded);
        Ok(copy)
    }

    /// Append the record of `key` with `payload`, encoded straight from
    /// the two: the same page bytes as a [`PageChunk::push`] of
    /// [`Record::new`]`(key, payload.to_vec())`, without the record.
    pub fn push_payload(&mut self, key: Key, payload: &[u8]) -> Result<(), RecordTooLarge> {
        let len = RECORD_HEADER + payload.len();
        encode_parts(key, payload, self.reserve(key, len, self.page_size)?);
        Ok(())
    }

    /// Append records `slots` of `src` as their encoded bytes — the
    /// same pages as a [`PageChunk::push_encoded`] of each, at the cost
    /// of one copy per run: records appended to `src` in order sit back
    /// to back in its record heap, so as many of them as the open page
    /// has room for move as one byte range plus their slot entries. A
    /// run ends where the open page is full or where two records of
    /// `src` are not adjacent.
    pub fn push_run(
        &mut self,
        src: PageRef<'_>,
        slots: Range<usize>,
    ) -> Result<(), RecordTooLarge> {
        assert!(slots.end <= src.record_count(), "slots out of range");
        let mut next = slots.start;
        while next < slots.end {
            let first = src.slot_offset(next);
            let Some(page) = self.open_page() else {
                self.next_page(src.encoded_len_at(first))?;
                continue;
            };
            let view = PageRef { data: page };
            let (count, room, to) = (view.record_count(), view.free_space(), view.free_ptr());
            debug_assert!(
                view.max_key().is_none_or(|last| last <= src.key_at(next)),
                "page records must stay key-ordered"
            );
            let (mut end, mut taken) = (first, 0);
            while next + taken < slots.end && src.slot_offset(next + taken) == end {
                let len = src.encoded_len_at(end);
                if (end - first) + len + (taken + 1) * SLOT_SIZE > room {
                    break;
                }
                set_slot(page, count + taken, to + (end - first));
                end += len;
                taken += 1;
            }
            if taken == 0 {
                self.next_page(src.encoded_len_at(first))?;
                continue;
            }
            grow(page, taken, end - first);
            page[to..to + (end - first)].copy_from_slice(&src.data[first..end]);
            next += taken;
        }
        Ok(())
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
        assert_eq!(p.view().record(0), Record::synthetic(1, 92));
        assert_eq!(p.view().record(2), Record::synthetic(9, 92));
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
        assert_eq!(q.view().record(1).key, 4);
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
    fn record_bytes_round_trip_through_decode() {
        let mut p = Page::new(4096);
        let records = [
            Record::new(3, vec![]),
            Record::synthetic(5, 92),
            Record::new(9, vec![7; 300]),
        ];
        for r in &records {
            assert!(p.append(r));
        }
        for (i, r) in records.iter().enumerate() {
            let bytes = p.view().record_bytes(i);
            assert_eq!(bytes.len(), r.encoded_len());
            assert_eq!(Record::decode(bytes), (r.clone(), r.encoded_len()));
        }
        assert_eq!(p.view().records().collect::<Vec<_>>(), records);
    }

    /// Pages packed one `Page::append` at a time, the parent's way.
    fn pages_of(records: &[Record], size: usize, stamp: u64) -> Vec<Page> {
        let mut pages: Vec<Page> = Vec::new();
        for r in records {
            if !pages.last().is_some_and(|p| p.fits(r)) {
                pages.push(Page::new(size));
                pages.last_mut().unwrap().set_timestamp(stamp);
            }
            assert!(pages.last_mut().unwrap().append(r));
        }
        pages
    }

    fn bytes_of(pages: &[Page]) -> Vec<u8> {
        pages.iter().flat_map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn a_chunk_written_then_read_back_is_the_same_pages() {
        let records: Vec<Record> = (0..100).map(|k| Record::synthetic(k * 3, 92)).collect();
        let mut chunk = PageChunk::new(4096);
        chunk.reset(41);
        for r in &records {
            chunk.push(r).unwrap();
        }
        let pages = pages_of(&records, 4096, 41);
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.as_bytes(), bytes_of(&pages));
        assert_eq!(chunk.record_count(), 100);

        let back = PageChunk::from_bytes(4096, chunk.as_bytes().to_vec());
        assert_eq!(back.len(), chunk.len());
        for (page, want) in back.pages().zip(&pages) {
            assert_eq!(page.timestamp(), 41);
            assert_eq!(
                page.records().collect::<Vec<_>>(),
                want.records().collect::<Vec<_>>()
            );
            assert_eq!(
                (page.min_key(), page.max_key()),
                (want.min_key(), want.max_key())
            );
        }
    }

    #[test]
    fn a_reused_buffer_leaves_no_stale_bytes() {
        let mut chunk = PageChunk::new(512);
        chunk.reset(u64::MAX);
        for k in 0..40 {
            chunk.push(&Record::new(k, vec![0xEE; 100])).unwrap();
        }
        assert!(chunk.len() > 4);
        // Fewer, shorter records into the same allocation: the free gap
        // of every page and its reserved header bytes read zero.
        let records: Vec<Record> = (0..9).map(|k| Record::new(k, vec![1; 60])).collect();
        chunk.reset(7);
        for r in &records {
            chunk
                .push_encoded(&{
                    let mut bytes = Vec::new();
                    r.encode_into(&mut bytes);
                    bytes
                })
                .unwrap();
        }
        assert_eq!(chunk.as_bytes(), bytes_of(&pages_of(&records, 512, 7)));
        assert!(!chunk.as_bytes().contains(&0xEE));
    }

    #[test]
    fn a_run_copy_splits_where_fits_says() {
        // A source page of 39 records; the output page already holds 30
        // of another, so the run straddles the page boundary.
        let src = page_with(&(100..139).collect::<Vec<_>>());
        let head: Vec<Record> = (0..30).map(|k| Record::synthetic(k, 92)).collect();
        let mut want = head.clone();
        want.extend(src.records().skip(2));

        let mut chunk = PageChunk::new(4096);
        chunk.reset(5);
        for r in &head {
            chunk.push(r).unwrap();
        }
        chunk.push_run(src.view(), 2..39).unwrap();
        let pages = pages_of(&want, 4096, 5);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].record_count(), 39, "the first page is full");
        assert_eq!(chunk.as_bytes(), bytes_of(&pages));

        // An empty run, and a run into an empty chunk.
        let mut chunk = PageChunk::new(4096);
        chunk.push_run(src.view(), 5..5).unwrap();
        assert!(chunk.is_empty());
        chunk.push_run(src.view(), 0..39).unwrap();
        assert_eq!(chunk.as_bytes(), src.as_bytes());
    }

    #[test]
    fn a_run_ends_where_two_records_are_not_adjacent() {
        // Hand-made: a page with a hole in its record heap where a
        // record was dropped from the slot directory.
        let (a, hole, b, c) = (
            Record::new(1, vec![1; 20]),
            Record::new(2, vec![2; 30]),
            Record::new(3, vec![3; 10]),
            Record::new(4, vec![4; 25]),
        );
        let mut page = Page::new(256);
        for r in [&a, &hole, &b, &c] {
            assert!(page.append(r));
        }
        let mut bytes = page.into_bytes();
        let offsets: Vec<usize> = (0..4)
            .map(|i| PageRef::new(&bytes).slot_offset(i))
            .collect();
        for (slot, offset) in [(1, offsets[2]), (2, offsets[3]), (3, 0)] {
            set_slot(&mut bytes, slot, offset);
        }
        bytes[8..10].copy_from_slice(&3u16.to_le_bytes());
        let src = PageRef::new(&bytes);
        let kept = [a, b, c];
        assert_eq!(src.records().collect::<Vec<_>>(), kept);

        let mut chunk = PageChunk::new(256);
        chunk.push_run(src, 0..3).unwrap();
        assert_eq!(chunk.as_bytes(), bytes_of(&pages_of(&kept, 256, 0)));
    }

    #[test]
    fn a_record_that_fits_no_page_is_an_error() {
        let mut chunk = PageChunk::new(128);
        let fits = Record::new(1, vec![0; max_record_len(128) - RECORD_HEADER]);
        let too_long = Record::new(2, vec![0; max_record_len(128) - RECORD_HEADER + 1]);
        chunk.push(&fits).unwrap();
        let err = chunk.push(&too_long).unwrap_err();
        assert_eq!(
            err,
            RecordTooLarge {
                encoded_len: too_long.encoded_len(),
                page_size: 128
            }
        );
        assert!(err.to_string().contains("at most 110"), "{err}");
        assert_eq!(chunk.len(), 1, "the failed push opened no page");

        let mut wide = Page::new(256);
        assert!(wide.append(&too_long));
        let err = chunk.push_run(wide.view(), 0..1).unwrap_err();
        assert_eq!(err.encoded_len, too_long.encoded_len());
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
