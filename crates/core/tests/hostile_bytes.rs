//! Every byte on a device is hostile: one deterministic mutation loop
//! over every structure recovery and the read path parse.
//!
//! The corpus is built by the real writers — a redo log with one frame
//! of each tag, one run with a bloom filter under each codec choice,
//! each codec's stream of one flat block, and one bloom encoding. Each
//! is mutated three ways: every byte flipped, a cut at every length,
//! and 1–8 bytes appended. Each mutation is read twice:
//!
//! * **raw** — the CRCs are left as they were written, so the result is
//!   a typed error or exactly the original decode (for the log: a
//!   prefix of its records, or `Corrupt`);
//! * **resealed** — the CRC is computed anew over the mutated bytes, so
//!   the parsers behind the checksum see them: a typed error or `Ok`,
//!   never a panic.

use std::sync::Arc;

use masm_blockrun::block::{decode_block, encode_block};
use masm_blockrun::{
    read_meta, write_run, BlockRunConfig, BlockRunError, BlockRunScan, BloomFilter, CodecChoice,
    Entry, FlatBlock,
};
use masm_codec::bytes::{crc32, open, seal, verify};
use masm_codec::{codec_for, IDENTITY, LZ};
use masm_core::update::{FieldPatch, UpdateOp, UpdateRecord};
use masm_core::wal::{Wal, WalRecord};
use masm_core::MasmError;
use masm_pagestore::ChunkCommit;
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

/// Bytes of a run footer (its body and CRC); it ends the run.
const FOOTER_LEN: usize = 96;
/// Bytes of one zone map in the index block, and its CRC's offset.
const ZONE_MAP_LEN: usize = 57;
const ZONE_CRC_AT: usize = 48;

/// The byte a mutation flipped and the mask it flipped it with; `None`
/// for a cut or an extension.
type Flip = Option<(usize, u8)>;

/// Every mutation of `bytes`: each byte flipped under each of `masks`,
/// each proper prefix, and `bytes` with 1–8 bytes of 0x00 or 0xA5
/// appended.
fn mutations(bytes: &[u8], masks: &[u8]) -> Vec<(Flip, Vec<u8>)> {
    let mut out = Vec::new();
    for at in 0..bytes.len() {
        for &mask in masks {
            let mut m = bytes.to_vec();
            m[at] ^= mask;
            out.push((Some((at, mask)), m));
        }
    }
    for cut in 0..bytes.len() {
        out.push((None, bytes[..cut].to_vec()));
    }
    for fill in [0x00, 0xA5] {
        for extra in 1..=8 {
            let mut m = bytes.to_vec();
            m.resize(bytes.len() + extra, fill);
            out.push((None, m));
        }
    }
    out
}

fn device(image: &[u8]) -> (SimDevice, SessionHandle) {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    if !image.is_empty() {
        dev.write_at(0, 0, image).unwrap();
    }
    (dev, SessionHandle::fresh(clock))
}

// ---------------------------------------------------------------- log

/// One record of each tag, 0 to 6.
fn one_record_per_tag() -> Vec<WalRecord> {
    vec![
        WalRecord::Update(UpdateRecord::new(
            5,
            9,
            UpdateOp::Modify(vec![FieldPatch {
                field: 1,
                value: vec![7; 4],
            }]),
        )),
        WalRecord::RunCreated {
            id: 1,
            base: 4096,
            bytes: 1234,
            count: 10,
            passes: 1,
            max_ts: 8,
        },
        WalRecord::RunsDeleted(vec![1, 2]),
        WalRecord::MigrationBegin {
            ts: 99,
            run_ids: vec![3],
        },
        WalRecord::MigrationEnd { ts: 99 },
        WalRecord::HeapLoaded {
            seq: 41,
            base: 0,
            page_size: 4096,
            min_keys: vec![0, 100],
            record_count: 200,
        },
        WalRecord::MapSplice {
            seq: 42,
            commit: ChunkCommit {
                at: 1,
                n_old: 1,
                base_phys: 8192,
                n_new: 2,
                min_keys: vec![10, 20],
                record_delta: -3,
            },
        },
    ]
}

/// The log's records, or the error that refused it.
fn replay(image: &[u8]) -> Result<Vec<WalRecord>, MasmError> {
    let (dev, session) = device(image);
    Wal::replay(&session, &dev).map(|r| r.records)
}

/// `[body_len][crc][tag][body]` around `tagged` (a tag and a body),
/// the CRC over `tagged`.
fn frame(tagged: &[u8]) -> Vec<u8> {
    let mut sealed = tagged.to_vec();
    seal(&mut sealed, 0);
    let (tagged, crc) = sealed.split_at(sealed.len() - 4);
    [&(tagged.len() as u32 - 1).to_le_bytes(), crc, tagged].concat()
}

#[test]
fn the_redo_log_refuses_or_keeps_a_prefix() {
    let records = one_record_per_tag();
    let (dev, session) = device(&[]);
    let wal = Wal::new(dev.clone(), 0);
    let mut ends = vec![0usize];
    for rec in &records {
        wal.append(&session, rec).unwrap();
        ends.push(dev.len() as usize);
    }
    let (log, _) = dev.read_at(0, 0, dev.len()).unwrap();
    assert_eq!(replay(&log).unwrap(), records);

    // Raw, the whole log: a prefix of the records, or `Corrupt`.
    for (_, m) in mutations(&log, &[0xFF]) {
        match replay(&m) {
            Ok(got) => assert!(records.starts_with(&got), "not a prefix: {got:?}"),
            Err(e) => assert!(matches!(e, MasmError::Corrupt(_)), "{e}"),
        }
    }

    for (rec, span) in records.iter().zip(ends.windows(2)) {
        let framed = &log[span[0]..span[1]];
        // Raw, one frame: no flip gets past the CRC, a cut is torn (or
        // nothing at all), and what follows the frame is not read.
        for (flip, m) in mutations(framed, &[0x01, 0xFF]) {
            match WalRecord::decode(&m) {
                Ok(Some((got, used))) => {
                    assert!(flip.is_none() && m.len() > framed.len(), "{flip:?}");
                    assert_eq!((&got, used), (rec, framed.len()));
                }
                Ok(None) => assert!(m.is_empty()),
                Err(e) => assert!(matches!(e, MasmError::Corrupt(_)), "{e}"),
            }
        }
        // Resealed: the tag and body mutated, the frame made anew. Every
        // body is read to its last byte, so a cut one or one with a byte
        // to spare is corrupt, whatever its tag.
        for (flip, tagged) in mutations(&framed[8..], &[0x01, 0xFF]) {
            if tagged.is_empty() {
                continue; // a frame always has a tag
            }
            let m = frame(&tagged);
            for read in [WalRecord::decode(&m).map(|_| ()), replay(&m).map(|_| ())] {
                match read {
                    Ok(()) => assert!(flip.is_some(), "{rec:?} read as {} bytes", m.len()),
                    Err(e) => assert!(matches!(e, MasmError::Corrupt(_)), "{e}"),
                }
            }
        }
    }
}

// --------------------------------------------------------------- runs

/// A run's metadata and every entry a full scan yields, or the typed
/// error that stopped it; read from a device holding `image`, the
/// run's length taken to be `total`.
fn read_run(image: &[u8], total: u64) -> Result<String, BlockRunError> {
    let (dev, session) = device(image);
    let meta = Arc::new(read_meta(&session, &dev, 0, total)?);
    let mut scan = BlockRunScan::new(dev, session, Arc::clone(&meta), None, 1, 0, u64::MAX);
    let entries: Vec<Entry> = scan.by_ref().collect();
    match scan.stop() {
        Some(e) => Err(e),
        None => Ok(format!("{meta:?} {entries:?}")),
    }
}

/// A run image cut into its sealed sections (bodies, without their
/// CRCs), and put back together with every CRC computed anew.
#[derive(Clone)]
struct Sections {
    data: Vec<u8>,
    index: Vec<u8>,
    bloom: Vec<u8>,
    footer: Vec<u8>,
}

impl Sections {
    fn of(image: &[u8], data_bytes: usize, zones: usize) -> Sections {
        let index_end = data_bytes + 4 + zones * ZONE_MAP_LEN + 4;
        let footer_at = image.len() - FOOTER_LEN;
        Sections {
            data: image[..data_bytes].to_vec(),
            index: image[data_bytes..index_end - 4].to_vec(),
            bloom: image[index_end..footer_at - 4].to_vec(),
            footer: image[footer_at..image.len() - 4].to_vec(),
        }
    }

    /// The image, every section sealed; unless the footer is what was
    /// mutated, its region geometry is rewritten to match the sections.
    fn sealed(&self, footer_mutated: bool) -> Vec<u8> {
        let mut out = self.data.clone();
        let index_off = out.len();
        out.extend_from_slice(&self.index);
        seal(&mut out, index_off);
        let bloom_off = out.len();
        out.extend_from_slice(&self.bloom);
        seal(&mut out, bloom_off);
        let mut footer = self.footer.clone();
        if !footer_mutated {
            let geometry = [
                index_off,
                bloom_off - index_off,
                bloom_off,
                out.len() - bloom_off,
            ];
            for (i, v) in geometry.into_iter().enumerate() {
                footer[24 + 8 * i..32 + 8 * i].copy_from_slice(&(v as u64).to_le_bytes());
            }
        }
        let footer_off = out.len();
        out.extend_from_slice(&footer);
        seal(&mut out, footer_off);
        out
    }
}

#[test]
fn a_run_under_every_codec_is_a_typed_error_or_itself() {
    let entries: Vec<Entry> = (0..24u64)
        .map(|i| Entry::new(i * 5, 100 - i, vec![i as u8; (i % 3 * 4) as usize]))
        .collect();
    for codec in CodecChoice::ALL {
        let cfg = BlockRunConfig {
            block_bytes: 128,
            bloom_bits_per_key: 10,
            codec,
        };
        let (dev, session) = device(&[]);
        let meta = write_run(&session, &dev, 0, &cfg, &entries).unwrap();
        assert!(meta.bloom.is_some() && meta.zones.len() > 2, "{codec:?}");
        let (image, _) = dev.read_at(0, 0, meta.total_bytes).unwrap();
        let total = image.len() as u64;
        let original = read_run(&image, total).unwrap();

        // Raw: every byte of a run is under a CRC, so a mutation is an
        // error unless it only appended bytes the claimed length leaves
        // out — and then the run reads as written.
        for (_, m) in mutations(&image, &[0xFF]) {
            for claimed in [total, m.len() as u64] {
                if let Ok(got) = read_run(&m, claimed) {
                    assert!(m.len() > image.len() && claimed == total, "{codec:?}");
                    assert_eq!(got, original, "{codec:?}, {claimed} bytes claimed");
                }
            }
        }

        // Resealed: a flipped data byte under a recomputed zone CRC, and
        // every mutation of the index, bloom and footer bodies.
        let sections = Sections::of(&image, meta.data_bytes as usize, meta.zones.len());
        for (i, zone) in meta.zones.iter().enumerate() {
            let (lo, hi) = (
                zone.offset as usize,
                (zone.offset + zone.len as u64) as usize,
            );
            for at in lo..hi {
                let mut s = sections.clone();
                s.data[at] ^= 0xFF;
                let crc_at = 4 + i * ZONE_MAP_LEN + ZONE_CRC_AT;
                s.index[crc_at..crc_at + 4].copy_from_slice(&crc32(&s.data[lo..hi]).to_le_bytes());
                let _ = read_run(&s.sealed(false), total);
            }
        }
        for which in 0..3 {
            let body = [&sections.index, &sections.bloom, &sections.footer][which];
            for (_, m) in mutations(body, &[0xFF]) {
                let mut s = sections.clone();
                *[&mut s.index, &mut s.bloom, &mut s.footer][which] = m;
                let image = s.sealed(which == 2);
                let _ = read_run(&image, image.len() as u64);
            }
        }
    }
}

// ------------------------------------------------------------ streams

/// A codec stream decoded and parsed the way a cold block read does
/// it, with the reference decoder held to the same verdict.
fn decode_stream(id: u8, stream: &[u8], raw_len: usize) -> Option<Vec<Entry>> {
    let flat = codec_for(id).unwrap().decode(stream, raw_len).ok()?;
    assert_eq!(flat.len(), raw_len, "a codec answers for the raw length");
    let parsed = FlatBlock::parse(flat.clone()).map(|b| b.iter().map(|e| e.to_entry()).collect());
    assert_eq!(parsed, decode_block(&flat), "parse and the reference agree");
    parsed
}

#[test]
fn every_codec_stream_is_refused_or_decoded_without_a_panic() {
    let entries: Vec<Entry> = (0..12u64)
        .map(|i| Entry::new(i * 3, i + 1, vec![0x5A; (i % 4 * 3) as usize]))
        .collect();
    let flat = encode_block(&entries);
    for id in IDENTITY..=LZ {
        let stream = codec_for(id).unwrap().encode(&flat).unwrap();
        let crc = crc32(&stream);
        assert_eq!(
            decode_stream(id, &stream, flat.len()),
            Some(entries.clone())
        );
        for (_, m) in mutations(&stream, &[0x01, 0xFF]) {
            // Raw: the zone's CRC, as written, is checked first.
            if verify(&m, crc).is_some() {
                assert_eq!(decode_stream(id, &m, flat.len()), Some(entries.clone()));
            }
            // Resealed: the decoder and the parser see the bytes.
            decode_stream(id, &m, flat.len());
        }
    }
    // Resealed, and not a stream at all: SplitMix64 garbage of up to
    // 511 bytes, at raw lengths up to 1023.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..256 {
        let garbage: Vec<u8> = (0..next() % 512).map(|_| next() as u8).collect();
        let raw_len = (next() % 1024) as usize;
        for id in IDENTITY..=LZ {
            decode_stream(id, &garbage, raw_len);
        }
    }
}

// -------------------------------------------------------------- bloom

#[test]
fn a_bloom_filter_is_refused_or_still_holds_its_keys() {
    let keys: Vec<u64> = (0..60).map(|i| i * 7919 % 100_000).collect();
    let filter = BloomFilter::build(keys.iter().copied(), 10);
    let body = filter.encode();
    let header = body.len() - filter.bit_bytes();
    let mut sealed = body.clone();
    seal(&mut sealed, 0);

    // Raw: the region's CRC, as written, refuses the mutation or vouches
    // for the very same filter.
    for (_, m) in mutations(&sealed, &[0x01, 0x10, 0x80, 0xFF]) {
        if let Some(b) = open(&m) {
            assert_eq!(BloomFilter::decode(b).as_ref(), Some(&filter));
        }
    }

    // Resealed: `decode` sees the mutated body.
    for (flip, m) in mutations(&body, &[0x01, 0x10, 0x80, 0xFF]) {
        let decoded = BloomFilter::decode(&m);
        let Some((at, mask)) = flip else {
            assert!(decoded.is_none(), "a cut or an extension is refused");
            continue;
        };
        let only_sets_bits = at >= header && body[at] & mask == 0;
        match decoded {
            Some(d) => {
                for &k in &keys {
                    let found = d.contains(k);
                    assert_eq!(d.contains_hashed(BloomFilter::hashes_of(k)), found);
                    assert!(found || !only_sets_bits, "false negative on {k}");
                }
            }
            None => assert!(at < header, "a flip in the bit array was refused"),
        }
    }
}
