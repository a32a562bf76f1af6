//! Redo logging and its record set (§3.2, §3.6 "Crash Recovery").
//!
//! MaSM's recovery story is deliberately small: materialized sorted runs
//! are already durable on the (non-volatile) SSD, so "typically, MaSM
//! needs to recover only the in-memory update buffer", plus enough
//! metadata to find the runs again and to redo an interrupted migration.
//! The log therefore carries:
//!
//! * committed update records (to rebuild the in-memory buffer),
//! * run lifecycle events (created at flush/merge, deleted at migration),
//! * migration begin/end markers, and per-chunk page-map splices so the
//!   heap's logical→physical map survives a crash mid-migration (in a
//!   production system this map lives in the catalog; logging the splice
//!   is the equivalent durable channel),
//! * the initial heap load.
//!
//! Data-page contents are **not** logged during migration — redo simply
//! re-runs the migration, and page timestamps make that idempotent.
//!
//! # Record framing and torn tails
//!
//! Every record is framed as `[u32 body_len][u32 crc][u8 tag][body]`,
//! where the CRC-32 covers the tag and body. The CRC turns "the log
//! ends in garbage" from a guess into a verdict: [`Wal::replay`]
//! salvages the longest valid prefix and reports a cleanly *truncated*
//! torn tail when the damage is consistent with a crash mid-append (a
//! record that runs past the end of the log, or a CRC-failing record
//! followed only by zeroes), while a CRC failure in the *middle* of the
//! log — valid data beyond the bad record — cannot be a torn tail and
//! stays a hard error.
//!
//! # One order for the log
//!
//! Appends are serialised: one lock owns the append point, and a frame
//! is written at it and acknowledged before the next frame is encoded.
//! The log therefore never has a hole in front of an acknowledged
//! record, and replay's valid prefix is everything acknowledged.
//!
//! The same lock orders the engine, and it owns the engine's one
//! timestamp counter (§3.2 "Timestamps"). `Wal::order` hands out a
//! hold of it (a `LogOrder`), and `LogOrder::draw` is the only way to
//! draw a timestamp: inside one hold the engine draws an update's
//! timestamp, logs it and only then publishes it to readers, while
//! readers, migrations, commits and heap events draw theirs under a
//! hold of their own. No timestamp is ever drawn above an update that
//! was drawn but not yet published, and nothing a reader sees is
//! unlogged. Timestamps start at 1 (0 is "before everything": freshly
//! loaded pages carry it); a recovered engine resumes the counter past
//! the largest timestamp its log names. The lock order is *log →
//! engine state*; the engine never holds its state lock across the
//! device write.
//!
//! # A failed append fails the log
//!
//! A write that fails may leave a torn frame at the append point, and
//! replay stops there. The first failed append therefore makes the
//! failure **sticky**: every later append is refused with
//! [`MasmError::LogFailed`] naming that offset, before it writes
//! anything. An `Err` from an append means "not durable, and not
//! applied"; `Ok` means "in the prefix replay recovers". The log
//! accepts appends again only as a new [`Wal`] over the replayed
//! prefix — the table reopened through recovery.
//!
//! # The cost of an append
//!
//! One append per update makes this the hottest code of the write path,
//! so it allocates nothing and enters the kernel for nothing: the frame
//! is encoded into a buffer the lock keeps between appends (up to
//! 64 KiB; a bulk load's `HeapLoaded` frame can run to megabytes), and
//! the append is one lock hold around the encode and the device write.

use masm_codec::bytes::{crc32, put_u64s, verify, Reader};
use masm_pagestore::{ChunkCommit, Key};
use masm_storage::{SessionHandle, SimDevice};
use parking_lot::{Mutex, MutexGuard};

use crate::error::{MasmError, MasmResult};
use crate::ts::Timestamp;
use crate::update::UpdateRecord;

/// Framing header bytes: `[u32 body_len][u32 crc][u8 tag]`.
const HEADER: usize = 9;

/// Tag of [`WalRecord::Update`].
const UPDATE_TAG: u8 = 0;

/// Append one complete frame to `out`: header, `tag`, whatever `body`
/// writes, then `body_len` and the CRC of tag and body patched in. The
/// one place a frame is laid out.
fn put_frame(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER - 1]); // body_len and crc, patched below
    out.push(tag);
    body(out);
    let body_len = (out.len() - start - HEADER) as u32;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The frame buffer is kept for the next append only up to this
/// capacity (a bulk load's `HeapLoaded` frame can run to megabytes).
const SCRATCH_KEEP_BYTES: usize = 64 << 10;

/// One redo-log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed well-formed update.
    Update(UpdateRecord),
    /// A sorted run was materialized on the SSD.
    RunCreated {
        /// Run id.
        id: u64,
        /// SSD byte offset.
        base: u64,
        /// Encoded byte length.
        bytes: u64,
        /// Number of update records.
        count: u64,
        /// 1-pass or 2-pass.
        passes: u8,
        /// For a 1-pass run, the timestamp at or below which every
        /// update is in a run logged no later than this record: the
        /// run's newest update, lowered below any update that was still
        /// outside a logged run when it was logged (an older sealed
        /// batch whose flush was still in flight, or a failed flush's
        /// updates back in the buffer). Recovery drops the pending
        /// logged updates at or below it (`ts ≤ max_ts`): with callers
        /// on several threads, Update records for *newer* updates may
        /// be logged before the flushing caller appends its RunCreated,
        /// so "clear everything logged so far" would lose them. For a
        /// 2-pass run, its newest update.
        max_ts: Timestamp,
    },
    /// Runs were deleted (after migration or a 2-pass merge).
    RunsDeleted(Vec<u64>),
    /// Migration started for the given runs.
    MigrationBegin {
        /// Migration timestamp `t`.
        ts: Timestamp,
        /// Ids of the runs being migrated.
        run_ids: Vec<u64>,
    },
    /// Migration finished.
    MigrationEnd {
        /// Migration timestamp `t`.
        ts: Timestamp,
    },
    /// The heap was bulk-loaded contiguously at `base`.
    HeapLoaded {
        /// Heap-event sequence number, drawn from the log order's
        /// timestamp counter (recovery resumes the counter past it).
        seq: u64,
        /// Physical base offset.
        base: u64,
        /// Page size used.
        page_size: u32,
        /// Minimum key per page (defines the page count).
        min_keys: Vec<Key>,
        /// Total records loaded.
        record_count: u64,
    },
    /// A migration chunk committed a page-map splice.
    MapSplice {
        /// Heap-event sequence number (see
        /// [`WalRecord::HeapLoaded::seq`]).
        seq: u64,
        /// The logged splice.
        commit: ChunkCommit,
    },
}

/// One framing step of [`Wal::replay`].
enum Framed<'a> {
    /// Clean end of the log (empty or zero padding to the end).
    End,
    /// The buffer ends inside a record (or inside a header), or a zero
    /// hole is followed by more data: a torn tail.
    Torn,
    /// A whole record extent — `extent` bytes, header and body — is
    /// present but its CRC fails; the caller checks what follows it.
    BadCrc { extent: usize },
    /// A CRC-valid record: its tag, its body, and the bytes it took
    /// (header and body).
    Record {
        tag: u8,
        body: &'a [u8],
        used: usize,
    },
}

/// Frame one record at the front of `buf` without decoding its body.
fn frame(buf: &[u8]) -> Framed<'_> {
    // All-zero remainder (including empty) is clean padding. For real
    // records this check exits at the first nonzero header byte.
    if buf.iter().all(|&b| b == 0) {
        return Framed::End;
    }
    let mut r = Reader::new(buf);
    let (Some(body_len), Some(crc)) = (r.u32(), r.u32()) else {
        return Framed::Torn;
    };
    // The CRC covers the tag and the body.
    let Some(tagged @ &[tag, ref body @ ..]) = r.take(1 + body_len as usize) else {
        return Framed::Torn;
    };
    if body_len == 0 && crc == 0 && tag == 0 {
        // A zero hole *followed by data*. A serialised log never
        // acknowledges a frame behind a hole, so everything from here
        // on was unacknowledged — torn tail.
        return Framed::Torn;
    }
    let used = r.pos();
    match verify(tagged, crc) {
        Some(_) => Framed::Record { tag, body, used },
        None => Framed::BadCrc { extent: used },
    }
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::Update(_) => UPDATE_TAG,
            WalRecord::RunCreated { .. } => 1,
            WalRecord::RunsDeleted(_) => 2,
            WalRecord::MigrationBegin { .. } => 3,
            WalRecord::MigrationEnd { .. } => 4,
            WalRecord::HeapLoaded { .. } => 5,
            WalRecord::MapSplice { .. } => 6,
            // Tag 7 is retired: it framed a sharded deployment's manifest.
            // Never reuse it, so such a log stays refused as corrupt.
        }
    }

    /// Encode as `[u32 body_len][u32 crc][u8 tag][body]` (CRC over tag
    /// and body).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, self.tag(), |out| match self {
            WalRecord::Update(u) => u.encode_into(out),
            WalRecord::RunCreated {
                id,
                base,
                bytes,
                count,
                passes,
                max_ts,
            } => {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&max_ts.to_le_bytes());
                out.push(*passes);
            }
            WalRecord::RunsDeleted(ids) => put_u64s(out, ids),
            WalRecord::MigrationBegin { ts, run_ids } => {
                out.extend_from_slice(&ts.to_le_bytes());
                put_u64s(out, run_ids);
            }
            WalRecord::MigrationEnd { ts } => out.extend_from_slice(&ts.to_le_bytes()),
            WalRecord::HeapLoaded {
                seq,
                base,
                page_size,
                min_keys,
                record_count,
            } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&page_size.to_le_bytes());
                out.extend_from_slice(&record_count.to_le_bytes());
                put_u64s(out, min_keys);
            }
            WalRecord::MapSplice { seq, commit: c } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(c.at as u64).to_le_bytes());
                out.extend_from_slice(&(c.n_old as u64).to_le_bytes());
                out.extend_from_slice(&c.base_phys.to_le_bytes());
                out.extend_from_slice(&(c.n_new as u64).to_le_bytes());
                out.extend_from_slice(&c.record_delta.to_le_bytes());
                put_u64s(out, &c.min_keys);
            }
        });
    }

    /// Decode a CRC-verified record body. The framing CRC has already
    /// vouched for these bytes, so any failure here — a field cut off,
    /// a count the body cannot hold, a byte left over — is real
    /// corruption (or an unknown record version): always a hard error,
    /// named after the record kind.
    fn decode_body(tag: u8, body: &[u8]) -> MasmResult<WalRecord> {
        const KINDS: [&str; 7] = [
            "WAL Update",
            "WAL RunCreated",
            "WAL RunsDeleted",
            "WAL MigrationBegin",
            "WAL MigrationEnd",
            "WAL HeapLoaded",
            "WAL MapSplice",
        ];
        let kind = *KINDS
            .get(tag as usize)
            .ok_or(MasmError::Corrupt("unknown WAL tag"))?;
        let mut r = Reader::new(body);
        match (Self::read_body(tag, &mut r), r.finish()) {
            (Some(rec), Some(())) => Ok(rec),
            _ => Err(MasmError::Corrupt(kind)),
        }
    }

    /// Read the body of a tag-`tag` record, in [`WalRecord::encode_into`]'s
    /// field order.
    fn read_body(tag: u8, r: &mut Reader<'_>) -> Option<WalRecord> {
        Some(match tag {
            UPDATE_TAG => WalRecord::Update(UpdateRecord::read(r)?),
            1 => WalRecord::RunCreated {
                id: r.u64()?,
                base: r.u64()?,
                bytes: r.u64()?,
                count: r.u64()?,
                max_ts: r.u64()?,
                passes: r.u8()?,
            },
            2 => WalRecord::RunsDeleted(r.u64s()?),
            3 => WalRecord::MigrationBegin {
                ts: r.u64()?,
                run_ids: r.u64s()?,
            },
            4 => WalRecord::MigrationEnd { ts: r.u64()? },
            5 => WalRecord::HeapLoaded {
                seq: r.u64()?,
                base: r.u64()?,
                page_size: r.u32()?,
                record_count: r.u64()?,
                min_keys: r.u64s()?,
            },
            6 => WalRecord::MapSplice {
                seq: r.u64()?,
                commit: ChunkCommit {
                    at: r.u64()? as usize,
                    n_old: r.u64()? as usize,
                    base_phys: r.u64()?,
                    n_new: r.u64()? as usize,
                    record_delta: r.i64()?,
                    min_keys: r.u64s()?,
                },
            },
            _ => return None,
        })
    }

    /// Decode one record from the front of `buf`; returns it and the
    /// bytes consumed. `None` on a clean end (all zeros / empty), error
    /// on a torn or corrupt record. For whole-log reading with torn-tail
    /// salvage, use [`Wal::replay`].
    pub fn decode(buf: &[u8]) -> MasmResult<Option<(WalRecord, usize)>> {
        match frame(buf) {
            Framed::End => Ok(None),
            Framed::Torn => Err(MasmError::Corrupt("torn WAL record")),
            Framed::BadCrc { .. } => Err(MasmError::Corrupt("WAL record CRC mismatch")),
            Framed::Record { tag, body, used } => Ok(Some((Self::decode_body(tag, body)?, used))),
        }
    }
}

/// Outcome of reading a whole redo log back ([`Wal::replay`]).
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// The records of the longest valid log prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset where that prefix ends — the append point for a
    /// [`Wal::new`] over the same device.
    pub end_offset: u64,
    /// Bytes discarded beyond `end_offset` because the tail was torn
    /// (0 = the log ended cleanly). They are what a failed or cut write
    /// left behind, and an image may hold whole frames beyond a zero
    /// hole too, so recovery zeroes them before the log appends at
    /// `end_offset` again: an append that ended where one of them starts
    /// would otherwise read it back into the log.
    pub torn_bytes: u64,
}

/// What the log lock guards: the append point, the sticky failure,
/// the frame buffer and the timestamp counter.
#[derive(Debug)]
struct Tail {
    /// Where the next frame goes: the end of the acknowledged log.
    offset: u64,
    /// Offset of the append whose write failed, once one has: the log
    /// is not trustworthy from there on.
    failed_at: Option<u64>,
    /// The frame being appended; kept between appends up to
    /// [`SCRATCH_KEEP_BYTES`].
    frame: Vec<u8>,
    /// The last timestamp drawn (0 before the first draw).
    last_ts: Timestamp,
}

/// An append-only redo log on a simulated device.
///
/// Appends take `&self` and are serialised by one lock; callers on
/// several threads (ingest, flushes and migrations) queue on it, as
/// they would on one log device. See the module docs for the order it
/// gives the engine.
#[derive(Debug)]
pub struct Wal {
    dev: SimDevice,
    tail: Mutex<Tail>,
}

/// A hold of the log lock: the log-order critical section. Appends
/// through it are serialised with every other append, and whatever the
/// holder does between them — drawing a timestamp, publishing an update
/// — is ordered with them too. Taken before the engine's state lock,
/// never while holding it.
pub(crate) struct LogOrder<'a> {
    dev: &'a SimDevice,
    tail: MutexGuard<'a, Tail>,
}

impl LogOrder<'_> {
    /// Draw the next timestamp: above every timestamp drawn before,
    /// and ordered with every append.
    #[inline]
    pub(crate) fn draw(&mut self) -> Timestamp {
        self.tail.last_ts += 1;
        self.tail.last_ts
    }

    /// Let the next draw be above `ts` (recovery: the largest
    /// timestamp the log names). Never moves the counter back.
    pub(crate) fn resume_past(&mut self, ts: Timestamp) {
        self.tail.last_ts = self.tail.last_ts.max(ts);
    }

    /// The last timestamp drawn (0 if none). Tests read it to check
    /// that a refused update drew none.
    #[cfg(test)]
    pub(crate) fn last_drawn(&self) -> Timestamp {
        self.tail.last_ts
    }

    /// Append one record (a sequential device write charged to
    /// `session`).
    pub(crate) fn append(&mut self, session: &SessionHandle, rec: &WalRecord) -> MasmResult<()> {
        self.append_with(session, |out| rec.encode_into(out))
    }

    /// Append `WalRecord::Update(update)`, framed from a borrow: the
    /// ingest path logs an update before it moves into the buffer.
    pub(crate) fn append_update(
        &mut self,
        session: &SessionHandle,
        update: &UpdateRecord,
    ) -> MasmResult<()> {
        self.append_with(session, |out| {
            put_frame(out, UPDATE_TAG, |out| update.encode_into(out))
        })
    }

    /// Encode one frame into the kept buffer and write it at the append
    /// point. Refused with [`MasmError::LogFailed`], nothing written,
    /// once any append has failed.
    fn append_with(
        &mut self,
        session: &SessionHandle,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> MasmResult<()> {
        let tail = &mut *self.tail;
        if let Some(offset) = tail.failed_at {
            return Err(MasmError::LogFailed { offset });
        }
        tail.frame.clear();
        encode(&mut tail.frame);
        let wrote = session.write(self.dev, tail.offset, &tail.frame);
        match wrote {
            Ok(()) => tail.offset += tail.frame.len() as u64,
            Err(_) => tail.failed_at = Some(tail.offset),
        }
        if tail.frame.capacity() > SCRATCH_KEEP_BYTES {
            tail.frame = Vec::new();
        }
        Ok(wrote?)
    }
}

impl Wal {
    /// Open a (fresh or recovered) log on `dev`, appending after
    /// `offset` bytes of existing records.
    pub fn new(dev: SimDevice, offset: u64) -> Self {
        Wal {
            dev,
            tail: Mutex::new(Tail {
                offset,
                failed_at: None,
                frame: Vec::new(),
                last_ts: 0,
            }),
        }
    }

    /// Take the log lock: appends through the hold are serialised with
    /// every other, and so is what the holder does between them.
    pub(crate) fn order(&self) -> LogOrder<'_> {
        LogOrder {
            dev: &self.dev,
            tail: self.tail.lock(),
        }
    }

    /// Append one record (a sequential device write charged to
    /// `session`) under a hold of its own; returns once the record is
    /// written, so an acknowledged record is always in the prefix
    /// replay recovers.
    pub fn append(&self, session: &SessionHandle, rec: &WalRecord) -> MasmResult<()> {
        self.order().append(session, rec)
    }

    /// The end of the acknowledged log. Tests read it to check what an
    /// append wrote.
    #[cfg(test)]
    pub(crate) fn offset(&self) -> u64 {
        self.tail.lock().offset
    }

    /// The underlying device.
    pub(crate) fn device(&self) -> &SimDevice {
        &self.dev
    }

    /// Read the longest valid record prefix from `dev` (crash
    /// recovery). A torn tail — a record cut off by the end of the log,
    /// or a CRC-failing final record followed only by zeroes — is
    /// *salvaged around*: the valid prefix comes back with
    /// [`WalReplay::torn_bytes`] counting what was dropped. A CRC
    /// failure with valid-looking data beyond it is not a torn tail and
    /// fails hard ([`MasmError::Corrupt`]), as does a record whose CRC
    /// passes but whose body is malformed.
    pub fn replay(session: &SessionHandle, dev: &SimDevice) -> MasmResult<WalReplay> {
        let len = dev.len();
        if len == 0 {
            return Ok(WalReplay::default());
        }
        let buf = session.read(dev, 0, len)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        let torn = loop {
            match frame(&buf[pos..]) {
                Framed::End => break false,
                Framed::Torn => break true,
                Framed::BadCrc { extent } => {
                    if buf[pos + extent..].iter().all(|&b| b == 0) {
                        // Final record, partially persisted: torn tail.
                        break true;
                    }
                    return Err(MasmError::Corrupt("WAL record CRC mismatch mid-log"));
                }
                Framed::Record { tag, body, used } => {
                    records.push(WalRecord::decode_body(tag, body)?);
                    pos += used;
                }
            }
        };
        let torn_bytes = if torn { len - pos as u64 } else { 0 };
        Ok(WalReplay {
            records,
            end_offset: pos as u64,
            torn_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{FieldPatch, UpdateOp};
    use masm_storage::{DeviceProfile, SimClock};

    fn sample_records() -> Vec<WalRecord> {
        let patch = |field, value: &[u8]| FieldPatch {
            field,
            value: value.to_vec(),
        };
        vec![
            WalRecord::Update(UpdateRecord::new(3, 7, UpdateOp::Insert(vec![1, 2, 3]))),
            WalRecord::Update(UpdateRecord::new(4, 8, UpdateOp::Delete)),
            WalRecord::Update(UpdateRecord::new(
                5,
                9,
                UpdateOp::Modify(vec![patch(0, &[9, 9, 9, 9]), patch(1, b"")]),
            )),
            WalRecord::Update(UpdateRecord::new(6, 10, UpdateOp::Replace(vec![0xAB; 100]))),
            WalRecord::RunCreated {
                id: 1,
                base: 0,
                bytes: 1234,
                count: 10,
                passes: 1,
                max_ts: 8,
            },
            WalRecord::RunsDeleted(vec![1, 2, 3]),
            WalRecord::MigrationBegin {
                ts: 99,
                run_ids: vec![4, 5],
            },
            WalRecord::MigrationEnd { ts: 99 },
            WalRecord::HeapLoaded {
                seq: 41,
                base: 0,
                page_size: 4096,
                min_keys: vec![0, 100, 200],
                record_count: 300,
            },
            WalRecord::MapSplice {
                seq: 42,
                commit: ChunkCommit {
                    at: 2,
                    n_old: 3,
                    base_phys: 8192,
                    n_new: 4,
                    min_keys: vec![10, 20, 30, 40],
                    record_delta: -7,
                },
            },
        ]
    }

    fn wal_fixture() -> (SimDevice, SessionHandle, Wal) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let wal = Wal::new(dev.clone(), 0);
        (dev, session, wal)
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            let (back, used) = WalRecord::decode(&buf).unwrap().unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn torn_record_is_detected() {
        let rec = WalRecord::MigrationEnd { ts: 7 };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(WalRecord::decode(&buf).is_err());
    }

    #[test]
    fn zero_padding_is_clean_end() {
        assert!(WalRecord::decode(&[0u8; 16]).unwrap().is_none());
        assert!(WalRecord::decode(&[]).unwrap().is_none());
    }

    #[test]
    fn wal_append_and_replay() {
        let (dev, session, wal) = wal_fixture();
        let records = sample_records();
        for r in &records {
            wal.append(&session, r).unwrap();
        }
        let replay = Wal::replay(&session, &dev).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.end_offset, wal.offset());
        assert_eq!(dev.len(), wal.offset());
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn update_framed_from_a_borrow_is_logged_byte_for_byte_as_encode_into() {
        // The ingest path never builds a `WalRecord`: it frames the
        // borrowed update. What lands on the device must be what
        // `encode_into` defines.
        for rec in sample_records() {
            let WalRecord::Update(update) = &rec else {
                continue;
            };
            let (dev, session, wal) = wal_fixture();
            wal.order().append_update(&session, update).unwrap();
            let mut want = Vec::new();
            rec.encode_into(&mut want);
            assert_eq!(session.read(&dev, 0, dev.len()).unwrap(), want, "{rec:?}");
            assert_eq!(wal.offset(), want.len() as u64);
            assert_eq!(Wal::replay(&session, &dev).unwrap().records, vec![rec]);
        }
    }

    #[test]
    fn the_frame_buffer_is_kept_between_appends_up_to_its_cap() {
        let (_, session, wal) = wal_fixture();
        let capacity = || wal.tail.lock().frame.capacity();
        wal.append(&session, &WalRecord::MigrationEnd { ts: 1 })
            .unwrap();
        let kept = capacity();
        assert!(kept > 0, "an ordinary frame's buffer is kept");
        let load = WalRecord::HeapLoaded {
            seq: 2,
            base: 0,
            page_size: 4096,
            min_keys: (0..SCRATCH_KEEP_BYTES as u64 / 8 + 1).collect(),
            record_count: 0,
        };
        wal.append(&session, &load).unwrap();
        assert!(capacity() <= SCRATCH_KEEP_BYTES, "an oversized one is not");
        let replay = Wal::replay(&session, &wal.dev).unwrap();
        assert_eq!(replay.records[1], load);
    }

    #[test]
    fn concurrent_draws_are_unique() {
        let (_, _, wal) = wal_fixture();
        let mut all: Vec<Timestamp> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..1000).map(|_| wal.order().draw()).collect::<Vec<_>>()))
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
        assert_eq!(all.last(), Some(&4000));
    }

    #[test]
    fn replay_salvages_torn_tail_at_every_cut() {
        let (dev, session, wal) = wal_fixture();
        let records = sample_records();
        let mut boundaries = vec![0u64];
        for r in &records {
            wal.append(&session, r).unwrap();
            boundaries.push(wal.offset());
        }
        let end = wal.offset();
        let clock = SimClock::new();
        for cut in 0..=end {
            let snap = dev.snapshot_prefix(clock.clone(), cut).unwrap();
            let replay = Wal::replay(&session, &snap).unwrap();
            // The salvaged prefix is exactly the whole records below the
            // cut; everything mid-record is reported as torn.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), whole, "cut at {cut}");
            assert_eq!(replay.records[..], records[..whole], "cut at {cut}");
            assert_eq!(replay.end_offset, boundaries[whole], "cut at {cut}");
            assert_eq!(replay.torn_bytes, cut - boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn replay_truncates_partially_persisted_final_record() {
        let (dev, session, wal) = wal_fixture();
        wal.append(&session, &WalRecord::MigrationEnd { ts: 1 })
            .unwrap();
        let keep = wal.offset();
        // A torn device write persists only the first 3 bytes of the
        // next record; the rest of its extent stays zero.
        dev.inject_torn_write(3);
        assert!(wal
            .append(&session, &WalRecord::MigrationEnd { ts: 2 })
            .is_err());
        dev.clear_write_fault();
        let replay = Wal::replay(&session, &dev).unwrap();
        assert_eq!(replay.records, vec![WalRecord::MigrationEnd { ts: 1 }]);
        assert_eq!(replay.end_offset, keep);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn a_failed_append_is_sticky_and_reserves_nothing_more() {
        let (dev, session, wal) = wal_fixture();
        let rec = |ts| WalRecord::MigrationEnd { ts };
        wal.append(&session, &rec(1)).unwrap();
        let hole = wal.offset();
        dev.inject_write_fault();
        let first = wal.append(&session, &rec(2)).unwrap_err();
        assert!(matches!(first, MasmError::Storage(_)), "{first}");
        dev.clear_write_fault();
        let reserved = wal.offset();
        for ts in 3..6 {
            let refused = wal.append(&session, &rec(ts)).unwrap_err();
            assert!(
                matches!(refused, MasmError::LogFailed { offset } if offset == hole),
                "{refused}"
            );
        }
        assert_eq!(wal.offset(), reserved, "a refused append reserves nothing");
        assert_eq!(dev.len(), hole, "and writes nothing");
        let replay = Wal::replay(&session, &dev).unwrap();
        assert_eq!(replay.records, vec![rec(1)]);
        // Reopened over the replayed prefix, the log appends again.
        let reopened = Wal::new(dev.clone(), replay.end_offset);
        reopened.append(&session, &rec(6)).unwrap();
        let replay = Wal::replay(&session, &dev).unwrap();
        assert_eq!(replay.records, vec![rec(1), rec(6)]);
    }

    /// A CRC-valid frame whose id count claims `u32::MAX` ids and holds
    /// none is corrupt, for every record kind that carries a list: the
    /// decoder refuses it before reserving room for the ids.
    #[test]
    fn a_hostile_id_count_is_corrupt_not_an_allocation() {
        // Tag and the fixed fields in front of the list.
        for (tag, fixed) in [(2, 0), (3, 8), (5, 28), (6, 48)] {
            let mut frame = Vec::new();
            put_frame(&mut frame, tag, |out| {
                out.resize(out.len() + fixed, 0);
                out.extend_from_slice(&u32::MAX.to_le_bytes());
            });
            let corrupt = |r: MasmResult<_>| matches!(r, Err(MasmError::Corrupt(_)));
            assert!(corrupt(WalRecord::decode(&frame).map(|_| ())), "tag {tag}");
            let (dev, session, _) = wal_fixture();
            dev.write_at(0, 0, &frame).unwrap();
            assert!(
                corrupt(Wal::replay(&session, &dev).map(|_| ())),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn replay_rejects_midlog_corruption() {
        let (dev, session, wal) = wal_fixture();
        for r in sample_records() {
            wal.append(&session, &r).unwrap();
        }
        // Flip a byte in the middle of the log: valid records follow,
        // so this cannot be a torn tail.
        let (mut bytes, _) = dev.read_at(0, 10, 1).unwrap();
        bytes[0] ^= 0xFF;
        dev.write_at(dev.busy_until(), 10, &bytes).unwrap();
        assert!(Wal::replay(&session, &dev).is_err());
    }

    #[test]
    fn concurrent_appends_leave_no_holes() {
        const THREADS: u64 = 8;
        const APPENDS: u64 = 2_000;
        // Mixed sizes (17 to ~320 bytes of body) from eight threads
        // queueing on the log lock.
        let record = |t: u64, i: u64| {
            let op = match i % 4 {
                0 => UpdateOp::Delete,
                1 => UpdateOp::Insert(vec![t as u8; (i % 300) as usize]),
                2 => UpdateOp::Modify(vec![FieldPatch {
                    field: (i % 7) as u16,
                    value: vec![i as u8; (i % 9) as usize],
                }]),
                _ => UpdateOp::Replace(vec![i as u8; 100]),
            };
            WalRecord::Update(UpdateRecord::new(t * APPENDS + i + 1, t * APPENDS + i, op))
        };
        let (dev, session, wal) = wal_fixture();
        let wal = std::sync::Arc::new(wal);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let wal = std::sync::Arc::clone(&wal);
                let session = session.clone();
                s.spawn(move || {
                    for i in 0..APPENDS {
                        wal.append(&session, &record(t, i)).unwrap();
                    }
                });
            }
        });
        // Acknowledged appends form a hole-free prefix covering the log.
        assert_eq!(dev.len(), wal.offset());
        let replay = Wal::replay(&session, &dev).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.end_offset, wal.offset());
        // Exactly the appended records, each once (timestamps are
        // unique, so sorting by them lines the two multisets up).
        let ts = |r: &WalRecord| match r {
            WalRecord::Update(u) => u.ts,
            other => panic!("unexpected record {other:?}"),
        };
        let mut got = replay.records;
        got.sort_by_key(ts);
        let want: Vec<WalRecord> = (0..THREADS)
            .flat_map(|t| (0..APPENDS).map(move |i| record(t, i)))
            .collect();
        assert_eq!(got.len(), want.len());
        assert!(
            got == want,
            "replayed multiset differs from what was appended"
        );
    }

    #[test]
    fn wal_writes_are_sequential() {
        let (dev, session, wal) = wal_fixture();
        for i in 0..100u64 {
            wal.append(
                &session,
                &WalRecord::Update(UpdateRecord::new(i + 1, i, UpdateOp::Delete)),
            )
            .unwrap();
        }
        let stats = dev.stats();
        assert!(stats.random_writes <= 1, "{stats:?}");
    }
}
