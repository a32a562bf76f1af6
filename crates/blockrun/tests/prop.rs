//! Property-based tests for the block-run format: codec round-trips,
//! zone-map pruning correctness, and bloom-filter false-positive rate.

use std::sync::Arc;

use proptest::prelude::*;

use masm_blockrun::block::{decode_block, encode_block};
use masm_blockrun::{
    read_block, read_meta, write_run, BlockCache, BlockCacheConfig, BlockRunConfig, BlockRunScan,
    BloomFilter, CachePolicy, CachedBlock, CodecChoice, Entry, FlatBlock, StoredBlock,
};
use masm_codec::{codec_for, Codec, Delta, Identity, Lz};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn device() -> (SimDevice, SessionHandle) {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    (dev, SessionHandle::fresh(clock))
}

fn raw_entries() -> impl Strategy<Value = Vec<(u64, u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u64..5000,
            1u64..1000,
            proptest::collection::vec(any::<u8>(), 0..24),
        ),
        1..250,
    )
}

fn to_sorted_entries(raw: Vec<(u64, u64, Vec<u8>)>) -> Vec<Entry> {
    let mut entries: Vec<Entry> = raw
        .into_iter()
        .map(|(k, ts, v)| Entry::new(k, ts, v))
        .collect();
    entries.sort_by_key(|e| (e.key, e.ts));
    entries
}

/// Entries shaped to stress the flat block: empty values, a 64 KiB
/// value now and then, and runs of one key with rising timestamps.
fn shaped_entries() -> impl Strategy<Value = Vec<Entry>> {
    let value = prop_oneof![
        3 => Just(Vec::new()),
        6 => proptest::collection::vec(any::<u8>(), 1..40),
        1 => any::<u8>().prop_map(|b| vec![b; 64 << 10]),
    ];
    proptest::collection::vec((0u64..40, 1usize..6, value), 0..24).prop_map(|groups| {
        let mut entries = Vec::new();
        for (key, versions, value) in groups {
            entries.extend((0..versions).map(|_| Entry::new(key, 0, value.clone())));
        }
        entries.sort_by_key(|e| e.key);
        for (ts, e) in entries.iter_mut().enumerate() {
            e.ts = ts as u64 + 1;
        }
        entries
    })
}

/// The two decoders on one flat block — [`FlatBlock::parse`], which the
/// read path keeps, and [`decode_block`], the reference: both refuse
/// it, or both accept it and hold the same entries.
fn decoders_agree(flat: &[u8]) -> Result<Option<Vec<Entry>>, TestCaseError> {
    let reference = decode_block(flat);
    let parsed = FlatBlock::parse(flat.to_vec());
    let lent = parsed
        .as_ref()
        .map(|b| b.iter().map(|e| e.to_entry()).collect::<Vec<_>>());
    prop_assert_eq!(&lent, &reference, "parse and decode_block disagree");
    if let (Some(block), Some(entries)) = (&parsed, &reference) {
        prop_assert_eq!(block.len(), entries.len());
        prop_assert_eq!(
            block.weight(),
            entries.iter().map(Entry::weight).sum::<usize>(),
            "the weight the cache charges is the owned entries' weight"
        );
        for (i, e) in entries.iter().enumerate() {
            prop_assert_eq!(block.key(i), e.key);
        }
    }
    Ok(reference)
}

fn small_cfg() -> BlockRunConfig {
    BlockRunConfig {
        block_bytes: 128,
        bloom_bits_per_key: 10,
        codec: CodecChoice::Delta,
    }
}

proptest! {
    /// Arbitrary records → block → records is the identity.
    #[test]
    fn block_codec_roundtrip(raw in raw_entries()) {
        let entries = to_sorted_entries(raw);
        let encoded = encode_block(&entries);
        prop_assert_eq!(decode_block(&encoded).unwrap(), entries);
    }

    /// `decode ∘ encode == id` for **every** codec over random entry
    /// batches — the compression stage never changes what a block says.
    #[test]
    fn every_codec_roundtrips_random_entry_batches(raw in raw_entries()) {
        let entries = to_sorted_entries(raw);
        let flat = encode_block(&entries);
        for codec in [&Identity as &dyn Codec, &Delta, &Lz] {
            let enc = codec.encode(&flat).unwrap();
            prop_assert!(
                enc.len() <= codec.max_compressed_len(flat.len()),
                "{}: {} > bound {}",
                codec.name(), enc.len(), codec.max_compressed_len(flat.len())
            );
            let back = codec.decode(&enc, flat.len()).unwrap();
            prop_assert_eq!(&back, &flat, "{} broke the bytes", codec.name());
            prop_assert_eq!(decode_block(&back).unwrap(), entries.clone());
        }
    }

    /// The flat block against the reference decoder, on what the writer
    /// produces: it lends exactly the entries that were encoded, at the
    /// weight they had as owned entries.
    #[test]
    fn flat_block_lends_exactly_what_was_encoded(entries in shaped_entries()) {
        let flat = encode_block(&entries);
        prop_assert_eq!(decoders_agree(&flat)?, Some(entries.clone()));
        let block = FlatBlock::parse(flat).unwrap();
        for key in 0..41 {
            prop_assert_eq!(
                block.partition_point(|k| k < key),
                entries.partition_point(|e| e.key < key)
            );
        }
    }

    /// …and on what the writer would never produce: every truncation
    /// and a mutation of every byte of a flat block is refused by both
    /// decoders or accepted by both with equal entries, never a panic.
    #[test]
    fn flat_block_and_reference_decoder_agree_on_damaged_blocks(
        raw in raw_entries(),
        flip in 1u8..=255,
    ) {
        let mut entries = to_sorted_entries(raw);
        entries.truncate(40);
        let mut flat = encode_block(&entries);
        for cut in 0..flat.len() {
            prop_assert_eq!(decoders_agree(&flat[..cut])?, None, "cut at {}", cut);
        }
        for at in 0..flat.len() {
            flat[at] ^= flip;
            decoders_agree(&flat)?;
            flat[at] ^= flip;
        }
    }

    /// Whatever codec stored a block, the read path's block is the
    /// reference decoding of that codec's output.
    #[test]
    fn read_block_is_the_reference_decoding_under_every_codec(
        raw in raw_entries(),
        codec_idx in 0..CodecChoice::ALL.len(),
    ) {
        let entries = to_sorted_entries(raw);
        let (dev, s) = device();
        let cfg = BlockRunConfig { codec: CodecChoice::ALL[codec_idx], ..small_cfg() };
        let meta = write_run(&s, &dev, 0, &cfg, &entries).unwrap();
        for (idx, z) in meta.zones.iter().enumerate() {
            let (stored, _) = dev.read_at(0, z.offset, z.len as u64).unwrap();
            let flat = codec_for(z.codec_id).unwrap().decode(&stored, z.raw_len as usize).unwrap();
            let block = read_block(&s, &dev, &meta, idx, None).unwrap();
            let lent: Vec<Entry> = block.iter().map(|e| e.to_entry()).collect();
            prop_assert_eq!(Some(lent), decode_block(&flat), "block {}", idx);
        }
    }

    /// Whole runs round-trip through the device under every codec
    /// choice, and the zone maps agree on codec ids and raw sizes.
    #[test]
    fn run_roundtrip_under_every_codec(raw in raw_entries(), codec_idx in 0..CodecChoice::ALL.len()) {
        let choice = CodecChoice::ALL[codec_idx];
        let entries = to_sorted_entries(raw);
        let (dev, s) = device();
        let cfg = BlockRunConfig { codec: choice, ..small_cfg() };
        let meta = write_run(&s, &dev, 0, &cfg, &entries).unwrap();
        for z in &meta.zones {
            prop_assert!(codec_for(z.codec_id).is_some());
            prop_assert!(z.raw_len >= 4, "raw length recorded");
        }
        let reopened = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
        prop_assert_eq!(&reopened.zones, &meta.zones);
        prop_assert_eq!(reopened.default_codec, choice);
        let got: Vec<Entry> =
            BlockRunScan::new(dev, s, Arc::new(reopened), None, 1, 0, u64::MAX).collect();
        prop_assert_eq!(got, entries);
    }

    /// Arbitrary records → whole run on a device → scan is the
    /// identity, including metadata recovered purely from the footer.
    #[test]
    fn run_roundtrip_through_device(raw in raw_entries()) {
        let entries = to_sorted_entries(raw);
        let (dev, s) = device();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries).unwrap();
        let reopened = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
        prop_assert_eq!(&reopened.zones, &meta.zones);
        let got: Vec<Entry> =
            BlockRunScan::new(dev, s, Arc::new(reopened), None, 1, 0, u64::MAX).collect();
        prop_assert_eq!(got, entries);
    }

    /// Zone-map pruning never skips a block containing an in-range key:
    /// a pruned scan over any `[a, b]` returns exactly the model's
    /// entries, in order.
    #[test]
    fn zone_map_pruning_is_exact(
        raw in raw_entries(),
        a in 0u64..5200,
        b in 0u64..5200,
    ) {
        let (begin, end) = (a.min(b), a.max(b));
        let entries = to_sorted_entries(raw);
        let (dev, s) = device();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries).unwrap());

        // Every entry's key maps into the overlap range computed for it.
        let mut cursor = 0usize;
        for (idx, zone) in meta.zones.iter().enumerate() {
            for e in &entries[cursor..cursor + zone.count as usize] {
                let range = meta.blocks_overlapping(e.key, e.key);
                prop_assert!(
                    range.contains(&idx),
                    "block {} holding key {} pruned by {:?}",
                    idx, e.key, range
                );
            }
            cursor += zone.count as usize;
        }

        let got: Vec<(u64, u64)> = BlockRunScan::new(dev, s, meta, None, 1, begin, end)
            .map(|e| (e.key, e.ts))
            .collect();
        let want: Vec<(u64, u64)> = entries
            .iter()
            .filter(|e| (begin..=end).contains(&e.key))
            .map(|e| (e.key, e.ts))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// A cached scan returns the same result as an uncached one and a
    /// warm re-scan reads zero device bytes.
    #[test]
    fn cache_is_transparent(raw in raw_entries()) {
        let entries = to_sorted_entries(raw);
        let (dev, s) = device();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries).unwrap());
        let cache = Arc::new(BlockCache::new(1 << 22));
        let cold: Vec<Entry> = BlockRunScan::new(
            dev.clone(), s.clone(), Arc::clone(&meta), Some(Arc::clone(&cache)), 1, 0, u64::MAX,
        ).collect();
        prop_assert_eq!(&cold, &entries);
        let mut warm_scan = BlockRunScan::new(
            dev, s, meta, Some(cache), 1, 0, u64::MAX,
        );
        let warm: Vec<Entry> = warm_scan.by_ref().collect();
        prop_assert_eq!(&warm, &entries);
        prop_assert_eq!(warm_scan.bytes_read(), 0);
    }

    /// Two-tier cache bookkeeping stays consistent under arbitrary
    /// insert/lookup traffic, for both policies and any victim-tier
    /// budget: the tier-1 byte split accounts every resident byte,
    /// capacities hold, and every lookup lands in exactly one of
    /// hit / tier-2 hit / miss.
    #[test]
    fn cache_invariants_under_random_traffic(
        ops in proptest::collection::vec((0u32..48, any::<bool>()), 1..250),
        lru in any::<bool>(),
        tier2_bytes in 0usize..6000,
    ) {
        let capacity = 2048usize;
        let cache = BlockCache::with_config(BlockCacheConfig {
            shards: 2,
            policy: if lru { CachePolicy::Lru } else { CachePolicy::Slru },
            tier2_bytes,
            ..BlockCacheConfig::new(capacity)
        });
        let mut lookups = 0u64;
        for (idx, is_insert) in ops {
            if is_insert {
                let entries: Vec<Entry> =
                    (0..4).map(|i| Entry::new(idx as u64 + i, 1, vec![idx as u8; 16])).collect();
                let flat = encode_block(&entries);
                let block: CachedBlock = Arc::new(FlatBlock::parse(flat.clone()).unwrap());
                cache.insert((1, idx), block, StoredBlock {
                    raw_len: flat.len() as u32,
                    bytes: Arc::new(flat),
                    codec_id: masm_codec::IDENTITY,
                });
            } else {
                lookups += 1;
                if let Some(block) = cache.get((1, idx)) {
                    prop_assert!(block.iter().all(|e| e.value == [idx as u8; 16]));
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.data_bytes, s.probation_bytes + s.protected_bytes);
            prop_assert!(s.data_bytes as usize <= capacity, "tier-1 budget holds");
            prop_assert!(
                s.tier2_bytes as usize <= tier2_bytes,
                "tier-2 budget charges stored size: {} > {}", s.tier2_bytes, tier2_bytes
            );
            prop_assert_eq!(s.hits + s.tier2_hits + s.misses, lookups);
        }
    }

    /// The measured false-positive rate stays within 2× the configured
    /// target (the satellite acceptance bound), with no false negatives.
    #[test]
    fn bloom_fpr_within_twice_target(
        keys in proptest::collection::btree_set(0u64..100_000, 50..400),
        bits_per_key in 8u32..=14,
    ) {
        let filter = BloomFilter::build(keys.iter().copied(), bits_per_key);
        for &k in &keys {
            prop_assert!(filter.contains(k), "false negative on {}", k);
        }
        let probes = 5000u64;
        let fps = (0..probes)
            .map(|i| 200_000 + i * 7)
            .filter(|&k| filter.contains(k))
            .count();
        let rate = fps as f64 / probes as f64;
        let target = BloomFilter::expected_fpr(bits_per_key);
        prop_assert!(
            rate <= target * 2.0,
            "fp rate {:.5} exceeds 2x target {:.5} at {} bits/key",
            rate, target, bits_per_key
        );
    }
}
