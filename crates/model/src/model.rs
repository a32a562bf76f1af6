//! The reference model.

use std::collections::BTreeMap;

use masm_core::ts::Timestamp;
use masm_core::update::UpdateOp;
use masm_pagestore::{Key, Record};

use crate::schema;

/// Every update applied to a table, by key and timestamp, over the rows
/// it was loaded with: an MVCC map. Its update semantics are written
/// out here, not borrowed from the engine.
#[derive(Debug, Clone, Default)]
pub struct Model {
    base: BTreeMap<Key, Vec<u8>>,
    history: BTreeMap<Key, Vec<(Timestamp, UpdateOp)>>,
}

impl Model {
    /// The model of a table loaded with `rows`.
    pub(crate) fn new(rows: impl IntoIterator<Item = Record>) -> Model {
        Model {
            base: rows.into_iter().map(|r| (r.key, r.payload)).collect(),
            history: BTreeMap::new(),
        }
    }

    /// Record that `op` was applied to `key` at `ts`. Updates may be
    /// recorded in any order; each key keeps its own in timestamp order.
    pub fn apply(&mut self, ts: Timestamp, key: Key, op: UpdateOp) {
        let versions = self.history.entry(key).or_default();
        let at = versions.partition_point(|(t, _)| *t <= ts);
        versions.insert(at, (ts, op));
    }

    /// The updates applied to `key`, oldest first.
    pub fn history(&self, key: Key) -> &[(Timestamp, UpdateOp)] {
        self.history.get(&key).map_or(&[], Vec::as_slice)
    }

    /// What a scan of `[begin, end]` at `as_of` must return: per key, the
    /// loaded row with every update up to `as_of` applied in timestamp
    /// order.
    pub fn scan(&self, begin: Key, end: Key, as_of: Timestamp) -> Vec<Record> {
        self.scan_with(begin, end, as_of, &[])
    }

    /// [`Model::scan`] under a transaction's private writes, which apply
    /// after everything visible, in their own order (§3.6).
    pub fn scan_with(
        &self,
        begin: Key,
        end: Key,
        as_of: Timestamp,
        private: &[(Key, UpdateOp)],
    ) -> Vec<Record> {
        self.keys(begin, end, private.iter().map(|(k, _)| *k))
            .into_iter()
            .filter_map(|key| {
                let visible = self.history(key).iter().take_while(|(ts, _)| *ts <= as_of);
                let own = private.iter().filter(|(k, _)| *k == key);
                let ops = visible.map(|(_, op)| op).chain(own.map(|(_, op)| op));
                self.state(key, ops).map(|p| Record::new(key, p))
            })
            .collect()
    }

    /// What a lookup of `key` after every recorded update must return.
    pub fn get(&self, key: Key) -> Option<Record> {
        self.scan(key, key, Timestamp::MAX).pop()
    }

    /// Every state of `[begin, end]` a serial prefix of the updates
    /// leaves: before the first, and after each timestamp. A crash of a
    /// table fed one update at a time must recover to one of them.
    pub fn serial_prefixes(&self, begin: Key, end: Key) -> Vec<Vec<Record>> {
        let mut stamps: Vec<Timestamp> =
            self.history.values().flatten().map(|(ts, _)| *ts).collect();
        stamps.push(0);
        stamps.sort_unstable();
        stamps.dedup();
        stamps
            .into_iter()
            .map(|ts| self.scan(begin, end, ts))
            .collect()
    }

    /// Whether `rows` — what a recovered table holds in `[begin, end]` —
    /// kept every update in `acked` (key and timestamp of each
    /// acknowledged update): key by key, a row is the state after some
    /// prefix of the key's history that reaches its newest acknowledged
    /// update. Newer updates, durable but not yet acknowledged at the
    /// crash, may be there too; an older state, a lost row and a value
    /// nobody wrote may not.
    pub fn check_recovered(
        &self,
        begin: Key,
        end: Key,
        rows: &[Record],
        acked: impl IntoIterator<Item = (Key, Timestamp)>,
    ) -> Result<(), String> {
        let mut floor: BTreeMap<Key, Timestamp> = BTreeMap::new();
        for (key, ts) in acked {
            let f = floor.entry(key).or_insert(ts);
            *f = (*f).max(ts);
        }
        let got: BTreeMap<Key, &Vec<u8>> = rows.iter().map(|r| (r.key, &r.payload)).collect();
        for key in self.keys(begin, end, got.keys().copied()) {
            let history = self.history(key);
            let from = floor
                .get(&key)
                .map_or(0, |ts| history.partition_point(|(t, _)| t < ts) + 1);
            let have = got.get(&key).map(|p| p.to_vec());
            let kept = (from..=history.len())
                .any(|n| self.state(key, history[..n].iter().map(|(_, op)| op)) == have);
            if !kept {
                let measure = |p: Option<Vec<u8>>| p.map(|p| schema().get_u32(&p, 0));
                return Err(format!(
                    "key {key} recovered as {:?}, acknowledged through ts {:?} ({} of {} updates)",
                    measure(have),
                    floor.get(&key),
                    from,
                    history.len()
                ));
            }
        }
        Ok(())
    }

    /// The keys of `[begin, end]` that were loaded, updated or are among
    /// `more`, in order.
    fn keys(&self, begin: Key, end: Key, more: impl Iterator<Item = Key>) -> Vec<Key> {
        let loaded = self.base.range(begin..=end).map(|(k, _)| *k);
        let updated = self.history.range(begin..=end).map(|(k, _)| *k);
        let more = more.filter(|k| (begin..=end).contains(k));
        let mut keys: Vec<Key> = loaded.chain(updated).chain(more).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// `key`'s loaded row with `ops` applied in order.
    fn state<'a>(&self, key: Key, ops: impl Iterator<Item = &'a UpdateOp>) -> Option<Vec<u8>> {
        let s = schema();
        ops.fold(self.base.get(&key).cloned(), |row, op| match op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => Some(p.clone()),
            UpdateOp::Delete => None,
            UpdateOp::Modify(patches) => row.map(|mut p| {
                for patch in patches {
                    s.set(&mut p, patch.field as usize, &patch.value);
                }
                p
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{payload, rows, value};
    use masm_core::update::FieldPatch;

    fn measures(records: &[Record]) -> Vec<(Key, u32)> {
        records.iter().map(|r| (r.key, value(r))).collect()
    }

    /// Rows 0, 2, 4 (measures 0, 1, 2); key 2 replaced at ts 10 and
    /// deleted at 30, key 1 inserted at 20, key 4 modified at 40.
    fn example() -> Model {
        let mut m = Model::new(rows(3));
        let modify = UpdateOp::Modify(vec![FieldPatch {
            field: 0,
            value: 9u32.to_le_bytes().to_vec(),
        }]);
        // Out of order on purpose: the model sorts by timestamp.
        m.apply(30, 2, UpdateOp::Delete);
        m.apply(10, 2, UpdateOp::Replace(payload(7)));
        m.apply(20, 1, UpdateOp::Insert(payload(5)));
        m.apply(40, 4, modify.clone());
        m.apply(50, 3, modify);
        m
    }

    #[test]
    fn a_scan_sees_exactly_the_updates_up_to_its_timestamp() {
        let m = example();
        assert_eq!(measures(&m.scan(0, 9, 0)), [(0, 0), (2, 1), (4, 2)]);
        assert_eq!(measures(&m.scan(0, 9, 10)), [(0, 0), (2, 7), (4, 2)]);
        assert_eq!(
            measures(&m.scan(0, 9, 29)),
            [(0, 0), (1, 5), (2, 7), (4, 2)]
        );
        // A modify of an absent key changes nothing.
        assert_eq!(measures(&m.scan(0, 9, 50)), [(0, 0), (1, 5), (4, 9)]);
        assert_eq!(measures(&m.scan(1, 2, 20)), [(1, 5), (2, 7)]);
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(4).map(|r| value(&r)), Some(9));
    }

    #[test]
    fn private_writes_apply_after_everything_visible() {
        let m = example();
        let private = [(2, UpdateOp::Insert(payload(3))), (6, UpdateOp::Delete)];
        assert_eq!(
            measures(&m.scan_with(0, 9, 10, &private)),
            [(0, 0), (2, 3), (4, 2)]
        );
        assert_eq!(measures(&m.scan_with(3, 9, 10, &private)), [(4, 2)]);
    }

    #[test]
    fn serial_prefixes_are_the_state_after_each_update() {
        let got: Vec<Vec<(Key, u32)>> = example()
            .serial_prefixes(1, 2)
            .iter()
            .map(|s| measures(s))
            .collect();
        let want: [&[(Key, u32)]; 6] = [
            &[(2, 1)],
            &[(2, 7)],
            &[(1, 5), (2, 7)],
            &[(1, 5)],
            &[(1, 5)],
            &[(1, 5)],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn a_recovery_keeps_what_was_acknowledged_and_nothing_invented() {
        let m = example();
        let check = |rows: &[(Key, u32)], acked: &[(Key, Timestamp)]| {
            let rows: Vec<Record> = rows
                .iter()
                .map(|&(k, v)| Record::new(k, payload(v)))
                .collect();
            m.check_recovered(1, 2, &rows, acked.iter().copied())
        };
        // Nothing acknowledged: any prefix will do.
        assert!(check(&[(2, 1)], &[]).is_ok());
        assert!(check(&[(1, 5)], &[]).is_ok());
        // Key 2's replace was acknowledged: its old row is a lost update;
        // the delete after it may or may not have made it.
        assert!(check(&[(2, 1)], &[(2, 10)]).is_err());
        assert!(check(&[(2, 7)], &[(2, 10)]).is_ok());
        assert!(check(&[], &[(2, 10)]).is_ok());
        assert!(check(&[(2, 7)], &[(2, 10), (2, 30)]).is_err());
        // The insert of key 1 was acknowledged and is missing.
        assert!(check(&[], &[(1, 20)]).is_err());
        // A value nobody wrote.
        assert!(check(&[(2, 8)], &[]).is_err());
    }
}
