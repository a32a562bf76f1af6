//! The reference model the engine's answers are checked against.
//!
//! The synthetic table keeps record `i` under key `2i`; inserts go to
//! key `2i + 1`. So the whole table state is two dense arrays indexed by
//! slot `i`, and the only attribute the workload ever changes is the
//! `u32` in field 0. Replaying the generated updates here is a few
//! nanoseconds each, outside every timed region.

use masm_core::update::UpdateOp;
use masm_pagestore::{Key, Record, Schema};

/// What a scan returned, reduced to three numbers that any missing,
/// duplicated, stale or misplaced record changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Records seen.
    pub count: u64,
    /// XOR of their keys.
    pub key_xor: u64,
    /// Wrapping sum of a mix of each record's key and field 0.
    pub field_hash: u64,
}

impl Digest {
    /// Fold one record in.
    #[inline]
    pub fn add(&mut self, key: Key, field0: u32) {
        self.count += 1;
        self.key_xor ^= key;
        let mixed =
            (key ^ ((field0 as u64) << 32 | field0 as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.field_hash = self.field_hash.wrapping_add(mixed ^ (mixed >> 29));
    }

    /// Fold in a record as the engine returned it. A payload too short
    /// to hold field 0 is folded as `u32::MAX`, so the compare with the
    /// model fails instead of the benchmark panicking.
    #[inline]
    pub fn add_record(&mut self, r: &Record) {
        let field0 = r.payload.get(0..4).map_or(u32::MAX, |b| {
            u32::from_le_bytes(b.try_into().expect("4 bytes"))
        });
        self.add(r.key, field0);
    }
}

/// One generated update, reduced to what the model needs. The engine
/// consumes the full [`UpdateOp`]; this survives it.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// Target key.
    pub key: Key,
    /// `None` deletes; `Some(v)` inserts (odd key) or sets field 0 of an
    /// existing record (even key).
    pub field0: Option<u32>,
}

impl Applied {
    /// Reduce a generated `(key, op)` pair.
    pub fn of(key: Key, op: &UpdateOp, schema: &Schema) -> Applied {
        let field0 = match op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => Some(schema.get_u32(p, 0)),
            UpdateOp::Delete => None,
            UpdateOp::Modify(patches) => {
                let v = &patches[0].value;
                Some(u32::from_le_bytes(v[..4].try_into().expect("u32 patch")))
            }
        };
        Applied { key, field0 }
    }
}

/// Dense slot-indexed table state.
pub struct Model {
    /// Field 0 of the record under key `2i`, if it still exists.
    even: Vec<Option<u32>>,
    /// Field 0 of the record under key `2i + 1`, if one was inserted.
    odd: Vec<Option<u32>>,
}

impl Model {
    /// The freshly loaded table: `slots` records, field 0 = slot number.
    pub fn loaded(slots: u64) -> Model {
        Model {
            even: (0..slots)
                .map(|i| Some((i % u32::MAX as u64) as u32))
                .collect(),
            odd: vec![None; slots as usize],
        }
    }

    /// Apply updates in commit order.
    pub fn apply(&mut self, updates: &[Applied]) {
        for u in updates {
            let slot = (u.key / 2) as usize;
            if u.key % 2 == 1 {
                // Odd keys only ever receive inserts.
                self.odd[slot] = u.field0;
            } else if let Some(cur) = self.even[slot].as_mut() {
                match u.field0 {
                    Some(v) => *cur = v,
                    None => self.even[slot] = None,
                }
            }
            // else: delete or modify of a key already deleted — no-op.
        }
    }

    /// Field 0 of the record under `key`, if it exists.
    pub fn get(&self, key: Key) -> Option<u32> {
        let side = if key % 2 == 1 { &self.odd } else { &self.even };
        side.get((key / 2) as usize).copied().flatten()
    }

    /// Digest of every record with `begin <= key <= end`.
    pub fn digest(&self, begin: Key, end: Key) -> Digest {
        let mut d = Digest::default();
        let last = ((end / 2) as usize).min(self.even.len().saturating_sub(1));
        for slot in (begin / 2) as usize..=last {
            for (key, v) in [
                (slot as u64 * 2, self.even[slot]),
                (slot as u64 * 2 + 1, self.odd[slot]),
            ] {
                if let (true, Some(v)) = (key >= begin && key <= end, v) {
                    d.add(key, v);
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_follows_engine_semantics() {
        let mut m = Model::loaded(4);
        assert_eq!(m.digest(0, u64::MAX).count, 4);
        m.apply(&[
            Applied {
                key: 2,
                field0: None,
            }, // delete
            Applied {
                key: 2,
                field0: Some(9),
            }, // modify of deleted: no-op
            Applied {
                key: 4,
                field0: Some(7),
            }, // modify
            Applied {
                key: 5,
                field0: Some(1),
            }, // insert
            Applied {
                key: 5,
                field0: Some(2),
            }, // insert over insert
        ]);
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(4), Some(7));
        assert_eq!(m.get(5), Some(2));
        assert_eq!(m.get(0), Some(0));
        let all = m.digest(0, u64::MAX);
        assert_eq!(all.count, 4);
        let mut by_hand = Digest::default();
        for (k, v) in [(0, 0), (4, 7), (5, 2), (6, 3)] {
            by_hand.add(k, v);
        }
        assert_eq!(all, by_hand);
        // Inclusive bounds on both parities.
        assert_eq!(m.digest(5, 6).count, 2);
        assert_eq!(m.digest(1, 3).count, 0);
    }
}
