//! The §4.1 synthetic workload.
//!
//! "We generate a 100GB table with 100-byte sized records … The table is
//! initially populated with even-numbered primary keys so that
//! odd-numbered keys can be used to generate insertions. We generate
//! updates randomly uniformly distributed across the entire table, with
//! update types (insertion, deletion, or field modification) selected
//! randomly." Sizes here are a scale knob; normalized results are
//! scale-free (see "Scaling" in `masm-bench`'s crate docs).

use masm_core::update::{FieldPatch, UpdateOp};
use masm_pagestore::{Key, Record, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Generator description of the synthetic base table.
#[derive(Debug, Clone)]
pub struct SyntheticTable {
    /// Number of records.
    pub records: u64,
    /// The fixed-width schema (payload layout).
    pub schema: Schema,
}

impl SyntheticTable {
    /// A table of `records` 100-byte records (8 B key + 92 B payload).
    pub fn new(records: u64) -> Self {
        SyntheticTable {
            records,
            schema: Schema::synthetic_100b(),
        }
    }

    /// A table sized to approximately `bytes` of record data.
    pub fn with_bytes(bytes: u64) -> Self {
        Self::new(bytes / 100)
    }

    /// Record `i` (key `2i`, so odd keys stay free for inserts).
    pub fn record(&self, i: u64) -> Record {
        let mut payload = self.schema.empty_payload();
        self.schema
            .set_u32(&mut payload, 0, (i % u32::MAX as u64) as u32);
        Record::new(i * 2, payload)
    }

    /// All records in key order (bulk-load input).
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.records).map(|i| self.record(i))
    }

    /// Largest populated key.
    pub fn max_key(&self) -> Key {
        (self.records - 1) * 2
    }
}

/// Fractions of each update kind (must sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct UpdateMix {
    /// Fraction of insertions.
    pub insert: f64,
    /// Fraction of deletions.
    pub delete: f64,
    /// Fraction of field modifications.
    pub modify: f64,
}

impl Default for UpdateMix {
    fn default() -> Self {
        UpdateMix {
            insert: 1.0 / 3.0,
            delete: 1.0 / 3.0,
            modify: 1.0 / 3.0,
        }
    }
}

/// Key distribution for the update stream.
#[derive(Debug, Clone)]
enum KeyDist {
    Uniform,
    Zipf(Zipf),
}

/// A deterministic (seeded) stream of well-formed updates over a
/// [`SyntheticTable`].
pub struct UpdateStreamGen {
    table: SyntheticTable,
    mix: UpdateMix,
    dist: KeyDist,
    rng: StdRng,
}

impl UpdateStreamGen {
    /// Uniformly distributed updates (the paper's default).
    pub fn uniform(table: SyntheticTable, mix: UpdateMix, seed: u64) -> Self {
        UpdateStreamGen {
            table,
            mix,
            dist: KeyDist::Uniform,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Zipf-skewed updates (for the §3.5 skew handling experiments).
    pub fn zipf(table: SyntheticTable, mix: UpdateMix, theta: f64, seed: u64) -> Self {
        let n = table.records;
        UpdateStreamGen {
            table,
            mix,
            dist: KeyDist::Zipf(Zipf::new(n, theta)),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick_slot(&mut self) -> u64 {
        match &self.dist {
            KeyDist::Uniform => self.rng.gen_range(0..self.table.records),
            KeyDist::Zipf(z) => z.sample(&mut self.rng) - 1,
        }
    }

    /// Generate the next `(key, op)` pair.
    pub fn next_update(&mut self) -> (Key, UpdateOp) {
        let slot = self.pick_slot();
        let r: f64 = self.rng.gen();
        let schema = &self.table.schema;
        if r < self.mix.insert {
            // Odd key adjacent to the chosen slot.
            let key = slot * 2 + 1;
            let mut payload = schema.empty_payload();
            schema.set_u32(&mut payload, 0, self.rng.gen());
            (key, UpdateOp::Insert(payload))
        } else if r < self.mix.insert + self.mix.delete {
            (slot * 2, UpdateOp::Delete)
        } else {
            let patch = FieldPatch {
                field: 0,
                value: self.rng.gen::<u32>().to_le_bytes().to_vec(),
            };
            (slot * 2, UpdateOp::Modify(vec![patch]))
        }
    }
}

impl Iterator for UpdateStreamGen {
    type Item = (Key, UpdateOp);

    fn next(&mut self) -> Option<(Key, UpdateOp)> {
        Some(self.next_update())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only insertions (the "write-once read-many" DW special case).
    const INSERTS: UpdateMix = UpdateMix {
        insert: 1.0,
        delete: 0.0,
        modify: 0.0,
    };

    #[test]
    fn table_records_are_even_keyed_and_sized() {
        let t = SyntheticTable::new(100);
        let recs: Vec<Record> = t.records().collect();
        assert_eq!(recs.len(), 100);
        assert!(recs.iter().all(|r| r.key % 2 == 0));
        assert!(recs.iter().all(|r| r.payload.len() + 8 == 100));
        assert_eq!(t.max_key(), 198);
    }

    #[test]
    fn with_bytes_scales() {
        let t = SyntheticTable::with_bytes(10_000);
        assert_eq!(t.records, 100);
    }

    #[test]
    fn uniform_stream_respects_mix() {
        let t = SyntheticTable::new(1000);
        let gen = UpdateStreamGen::uniform(t, UpdateMix::default(), 1);
        let mut counts = [0u64; 3];
        for (key, op) in gen.take(30_000) {
            match op {
                UpdateOp::Insert(_) => {
                    counts[0] += 1;
                    assert_eq!(key % 2, 1, "inserts use odd keys");
                }
                UpdateOp::Delete => {
                    counts[1] += 1;
                    assert_eq!(key % 2, 0);
                }
                UpdateOp::Modify(_) => {
                    counts[2] += 1;
                    assert_eq!(key % 2, 0);
                }
                UpdateOp::Replace(_) => panic!("generator never emits replace"),
            }
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "mix unbalanced: {counts:?}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let t = SyntheticTable::new(100);
        let a: Vec<Key> = UpdateStreamGen::uniform(t.clone(), UpdateMix::default(), 9)
            .take(50)
            .map(|(k, _)| k)
            .collect();
        let b: Vec<Key> = UpdateStreamGen::uniform(t, UpdateMix::default(), 9)
            .take(50)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_stream_hits_hot_keys_more() {
        let t = SyntheticTable::new(10_000);
        let gen = UpdateStreamGen::zipf(t, INSERTS, 0.99, 3);
        let mut hot = 0u64;
        let mut total = 0u64;
        for (key, _) in gen.take(20_000) {
            total += 1;
            if key < 200 {
                hot += 1;
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.2,
            "hot fraction {}",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn inserts_only_mix() {
        let t = SyntheticTable::new(100);
        let gen = UpdateStreamGen::uniform(t, INSERTS, 5);
        assert!(gen
            .take(100)
            .all(|(_, op)| matches!(op, UpdateOp::Insert(_))));
    }
}
