//! Well-formed update records and their merge semantics (§2.1, §3.2).
//!
//! An update record is `(timestamp, key, type, content)` where type is
//! one of insert / delete / modify / **replace** — replace "represents a
//! deletion merged with a later insertion with the same key". Well-formed
//! updates never read existing DW data, which is what keeps them off the
//! disk's critical path.

use masm_codec::bytes::Reader;
use masm_pagestore::{Key, Record, Schema};

use crate::error::{MasmError, MasmResult};
use crate::ts::Timestamp;

/// A single-field patch inside a `modify` update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldPatch {
    /// Schema field index.
    pub field: u16,
    /// New raw value (must match the field width of the schema).
    pub value: Vec<u8>,
}

/// The operation part of an update record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a new record with this payload.
    Insert(Vec<u8>),
    /// Delete the record with this key.
    Delete,
    /// Modify the given fields of the record.
    Modify(Vec<FieldPatch>),
    /// A deletion merged with a later insertion (§3.2).
    Replace(Vec<u8>),
}

impl UpdateOp {
    fn type_tag(&self) -> u8 {
        match self {
            UpdateOp::Insert(_) => 0,
            UpdateOp::Delete => 1,
            UpdateOp::Modify(_) => 2,
            UpdateOp::Replace(_) => 3,
        }
    }

    /// Check, before anything is buffered or logged, that the encoding
    /// can represent this operation (a `u16` payload length, a `u8`
    /// patch count — a longer one would be truncated on its way to the
    /// log and the run, and read back as corruption) and that `schema`
    /// can apply it (a payload has the schema's width, each patch names
    /// an existing field and carries that field's width; [`Schema::set`]
    /// panics otherwise). `key` only labels the error.
    pub(crate) fn validate(&self, key: Key, schema: &Schema) -> MasmResult<()> {
        let reason = match self {
            UpdateOp::Delete => None,
            UpdateOp::Insert(p) | UpdateOp::Replace(p) if p.len() > u16::MAX as usize => {
                Some("payload longer than 65,535 bytes")
            }
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => (p.len() != schema.payload_width())
                .then_some("payload does not have the schema's width"),
            UpdateOp::Modify(patches) if patches.len() > u8::MAX as usize => {
                Some("more than 255 field patches")
            }
            UpdateOp::Modify(patches) => {
                patches
                    .iter()
                    .find_map(|p| match schema.fields().get(p.field as usize) {
                        None => Some("patch names a field the schema does not have"),
                        Some(f) if f.ty.width() != p.value.len() => {
                            Some("patch value does not have its field's width")
                        }
                        Some(_) => None,
                    })
            }
        };
        reason.map_or(Ok(()), |reason| {
            Err(MasmError::InvalidUpdate { key, reason })
        })
    }
}

/// A timestamped, keyed update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Commit timestamp of the update.
    pub ts: Timestamp,
    /// Primary key / RID it applies to.
    pub key: Key,
    /// What to do.
    pub op: UpdateOp,
}

impl UpdateRecord {
    /// Construct an update record.
    pub fn new(ts: Timestamp, key: Key, op: UpdateOp) -> Self {
        UpdateRecord { ts, key, op }
    }

    /// Encoded size in bytes (for buffer and SSD-page accounting).
    pub fn encoded_len(&self) -> usize {
        8 + 8 + self.value_len()
    }

    /// Size of the operation part alone: what
    /// [`UpdateRecord::encode_value_into`] appends.
    pub(crate) fn value_len(&self) -> usize {
        1 + match &self.op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => 2 + p.len(),
            UpdateOp::Delete => 0,
            UpdateOp::Modify(patches) => {
                1 + patches.iter().map(|p| 4 + p.value.len()).sum::<usize>()
            }
        }
    }

    /// Append the full `(ts, key, op)` encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ts.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        self.encode_value_into(out);
    }

    /// Append only the operation part (tag + content) to `out` — the
    /// *value* of a block-run entry, whose key and timestamp are stored
    /// by the block format itself. The lengths fit their fields: the
    /// engine refuses at the door any update they would not
    /// (`MasmError::InvalidUpdate`).
    pub(crate) fn encode_value_into(&self, out: &mut Vec<u8>) {
        out.push(self.op.type_tag());
        match &self.op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => {
                out.extend_from_slice(&(p.len() as u16).to_le_bytes());
                out.extend_from_slice(p);
            }
            UpdateOp::Delete => {}
            UpdateOp::Modify(patches) => {
                debug_assert!(patches.len() <= u8::MAX as usize);
                out.push(patches.len() as u8);
                for p in patches {
                    out.extend_from_slice(&p.field.to_le_bytes());
                    out.extend_from_slice(&(p.value.len() as u16).to_le_bytes());
                    out.extend_from_slice(&p.value);
                }
            }
        }
    }

    /// The operation part (tag + content) as owned bytes.
    pub fn encode_value(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.value_len());
        self.encode_value_into(&mut out);
        out
    }

    /// Read one full `(ts, key, op)` record ([`UpdateRecord::encode_into`]).
    pub(crate) fn read(r: &mut Reader<'_>) -> Option<UpdateRecord> {
        let (ts, key) = (r.u64()?, r.u64()?);
        Some(UpdateRecord::new(ts, key, OpRef::read(r)?.to_op()))
    }

    /// Decode one record from the front of `buf`; returns it and the
    /// bytes consumed, or `None` if `buf` is truncated.
    pub fn decode(buf: &[u8]) -> Option<(UpdateRecord, usize)> {
        let mut r = Reader::new(buf);
        Some((Self::read(&mut r)?, r.pos()))
    }

    /// Reassemble a record from block-run parts: the `(key, ts)` the
    /// block format stored plus the opaque value written by
    /// [`UpdateRecord::encode_value`]. Rejects what [`OpRef::parse`]
    /// rejects, trailing bytes included.
    pub(crate) fn decode_value(key: Key, ts: Timestamp, value: &[u8]) -> Option<UpdateRecord> {
        Some(UpdateRecord::new(ts, key, OpRef::parse(value)?.to_op()))
    }

    /// Apply this update to an optional existing record, producing the
    /// record the query should see (or `None` for a deletion).
    ///
    /// This is the per-record core of `Merge_data_updates`' outer join.
    /// It consumes the update: an insert's payload becomes the record's.
    /// Panics where a `modify` names a field the record does not hold
    /// at the patch's width.
    pub fn apply_to(self, base: Option<Record>, schema: &Schema) -> Option<Record> {
        self.try_apply_to(base, schema)
            .expect("a modify fits the record it patches")
    }

    /// [`UpdateRecord::apply_to`], or `None` where a `modify` names a
    /// field the record does not hold at the patch's width — for
    /// updates read off a device, which nothing checked at the door.
    pub(crate) fn try_apply_to(
        self,
        base: Option<Record>,
        schema: &Schema,
    ) -> Option<Option<Record>> {
        Some(match self.op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => Some(Record::new(self.key, p)),
            UpdateOp::Delete => None,
            UpdateOp::Modify(patches) => match base {
                Some(mut r) => {
                    let fits = patches
                        .iter()
                        .all(|p| schema.try_set(&mut r.payload, p.field as usize, &p.value));
                    return fits.then_some(Some(r));
                }
                None => None,
            },
        })
    }

    /// Merge a later update into this one (same key, `self.ts <
    /// later.ts`). Produces the single update equivalent to applying both
    /// in order; the result carries the later timestamp (§3.2
    /// `Merge_updates`, §3.5 "Handling Skews"). Panics where a `modify`
    /// folded into a payload names a field that payload does not hold
    /// at the patch's width.
    pub fn merge_with_later(&self, later: &UpdateRecord, schema: &Schema) -> UpdateRecord {
        self.fold(later, schema)
            .expect("a modify folded into a payload fits the schema")
    }

    /// [`UpdateRecord::merge_with_later`], or `None` where a `modify`
    /// folded into an insert's or a replace's payload names a field
    /// that payload does not hold at the patch's width — for updates
    /// read off a device, which nothing checked at the door.
    pub(crate) fn fold(&self, later: &UpdateRecord, schema: &Schema) -> Option<UpdateRecord> {
        debug_assert_eq!(self.key, later.key);
        debug_assert!(self.ts <= later.ts);
        let patched = |p: &Vec<u8>, patches: &[FieldPatch]| {
            let mut payload = p.clone();
            patches
                .iter()
                .all(|patch| schema.try_set(&mut payload, patch.field as usize, &patch.value))
                .then_some(payload)
        };
        let op = match (&self.op, &later.op) {
            // Later delete wins over anything.
            (_, UpdateOp::Delete) => UpdateOp::Delete,
            // A deletion followed by an insertion becomes a replace.
            (UpdateOp::Delete, UpdateOp::Insert(p)) => UpdateOp::Replace(p.clone()),
            // Insert/replace over anything else supersedes it entirely.
            (_, UpdateOp::Insert(p)) => UpdateOp::Replace(p.clone()),
            (_, UpdateOp::Replace(p)) => UpdateOp::Replace(p.clone()),
            // Modify after a full-payload op folds into the payload.
            (UpdateOp::Insert(p), UpdateOp::Modify(patches)) => {
                UpdateOp::Insert(patched(p, patches)?)
            }
            (UpdateOp::Replace(p), UpdateOp::Modify(patches)) => {
                UpdateOp::Replace(patched(p, patches)?)
            }
            // Modify of a deleted key is a no-op; the delete stands.
            (UpdateOp::Delete, UpdateOp::Modify(_)) => UpdateOp::Delete,
            // Modify ∘ modify: union of patches, later wins per field.
            (UpdateOp::Modify(m1), UpdateOp::Modify(m2)) => {
                let mut merged: Vec<FieldPatch> = m1.clone();
                for p2 in m2 {
                    if let Some(existing) = merged.iter_mut().find(|p| p.field == p2.field) {
                        existing.value = p2.value.clone();
                    } else {
                        merged.push(p2.clone());
                    }
                }
                merged.sort_by_key(|p| p.field);
                UpdateOp::Modify(merged)
            }
        };
        Some(UpdateRecord {
            ts: later.ts,
            key: self.key,
            op,
        })
    }
}

/// An operation read in place from its encoding (tag + content, what
/// [`UpdateRecord::encode_value_into`] writes): the one parser of
/// update encodings. [`UpdateRecord::decode_value`] and the WAL's
/// record reader take an owned [`UpdateOp`] from it; a migration
/// applies it to page bytes as it is.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpRef<'a> {
    /// Insert a record with this payload.
    Insert(&'a [u8]),
    /// Delete the record.
    Delete,
    /// Patch these fields of the record.
    Modify(Patches<'a>),
    /// Replace the record with this payload.
    Replace(&'a [u8]),
}

/// The field patches of a `modify`, in place: `(field, value)` pairs,
/// already read once by [`OpRef::read`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Patches<'a> {
    count: u8,
    bytes: &'a [u8],
}

impl<'a> Iterator for Patches<'a> {
    type Item = (u16, &'a [u8]);

    fn next(&mut self) -> Option<(u16, &'a [u8])> {
        let mut r = Reader::new(self.bytes);
        let (field, value) = (r.u16()?, payload(&mut r)?);
        self.bytes = &self.bytes[r.pos()..];
        Some((field, value))
    }
}

/// A `u16` length, then that many bytes.
fn payload<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u16()?;
    r.take(len as usize)
}

impl<'a> OpRef<'a> {
    /// Read an operation from the front of `r`.
    pub(crate) fn read(r: &mut Reader<'a>) -> Option<OpRef<'a>> {
        Some(match r.u8()? {
            0 => OpRef::Insert(payload(r)?),
            1 => OpRef::Delete,
            2 => {
                let count = r.u8()?;
                let mut patches = r.clone();
                for _ in 0..count {
                    r.u16()?;
                    payload(r)?;
                }
                let bytes = patches.take(patches.remaining() - r.remaining())?;
                OpRef::Modify(Patches { count, bytes })
            }
            3 => OpRef::Replace(payload(r)?),
            _ => return None,
        })
    }

    /// The operation a run entry's value holds, and nothing after it.
    pub(crate) fn parse(value: &'a [u8]) -> Option<OpRef<'a>> {
        let mut r = Reader::new(value);
        let op = Self::read(&mut r)?;
        r.finish()?;
        Some(op)
    }

    /// The operation, owned.
    pub(crate) fn to_op(self) -> UpdateOp {
        match self {
            OpRef::Insert(p) => UpdateOp::Insert(p.to_vec()),
            OpRef::Delete => UpdateOp::Delete,
            OpRef::Modify(patches) => {
                let mut owned = Vec::with_capacity(patches.count as usize);
                owned.extend(patches.map(|(field, value)| FieldPatch {
                    field,
                    value: value.to_vec(),
                }));
                UpdateOp::Modify(owned)
            }
            OpRef::Replace(p) => UpdateOp::Replace(p.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_pagestore::{Field, FieldType};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", FieldType::U32),
            Field::new("b", FieldType::Bytes(4)),
        ])
    }

    fn payload(a: u32, b: &[u8; 4]) -> Vec<u8> {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, a);
        s.set(&mut p, 1, b);
        p
    }

    #[test]
    fn encode_decode_all_variants() {
        let cases = vec![
            UpdateRecord::new(1, 10, UpdateOp::Insert(payload(5, b"abcd"))),
            UpdateRecord::new(2, 11, UpdateOp::Delete),
            UpdateRecord::new(
                3,
                12,
                UpdateOp::Modify(vec![
                    FieldPatch {
                        field: 0,
                        value: 7u32.to_le_bytes().to_vec(),
                    },
                    FieldPatch {
                        field: 1,
                        value: b"wxyz".to_vec(),
                    },
                ]),
            ),
            UpdateRecord::new(4, 13, UpdateOp::Replace(payload(9, b"zzzz"))),
        ];
        let mut buf = Vec::new();
        for c in &cases {
            let before = buf.len();
            c.encode_into(&mut buf);
            assert_eq!(buf.len() - before, c.encoded_len());
        }
        let mut pos = 0;
        for c in &cases {
            let (got, used) = UpdateRecord::decode(&buf[pos..]).unwrap();
            assert_eq!(&got, c);
            pos += used;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_codec_roundtrip() {
        let cases = vec![
            UpdateRecord::new(1, 10, UpdateOp::Insert(payload(5, b"abcd"))),
            UpdateRecord::new(2, 11, UpdateOp::Delete),
            UpdateRecord::new(
                3,
                12,
                UpdateOp::Modify(vec![FieldPatch {
                    field: 1,
                    value: b"wxyz".to_vec(),
                }]),
            ),
            UpdateRecord::new(4, 13, UpdateOp::Replace(payload(9, b"zzzz"))),
        ];
        for c in &cases {
            let value = c.encode_value();
            assert_eq!(value.len(), c.encoded_len() - 16);
            let back = UpdateRecord::decode_value(c.key, c.ts, &value).unwrap();
            assert_eq!(&back, c);
        }
        // Trailing bytes are rejected.
        let mut value = cases[1].encode_value();
        value.push(0);
        assert!(UpdateRecord::decode_value(11, 2, &value).is_none());
    }

    #[test]
    fn decode_truncated_returns_none() {
        let r = UpdateRecord::new(1, 2, UpdateOp::Insert(vec![1, 2, 3]));
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        for cut in [0, 5, 16, 18, buf.len() - 1] {
            assert!(UpdateRecord::decode(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decode_bad_tag_returns_none() {
        let mut buf = vec![0u8; 17];
        buf[16] = 9;
        assert!(UpdateRecord::decode(&buf).is_none());
    }

    #[test]
    fn apply_insert_delete_modify() {
        let s = schema();
        let ins = UpdateRecord::new(1, 5, UpdateOp::Insert(payload(1, b"aaaa")));
        let got = ins.apply_to(None, &s).unwrap();
        assert_eq!(got.key, 5);
        assert_eq!(s.get_u32(&got.payload, 0), 1);

        let del = UpdateRecord::new(2, 5, UpdateOp::Delete);
        assert!(del.apply_to(Some(got.clone()), &s).is_none());

        let modify = UpdateRecord::new(
            3,
            5,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: 42u32.to_le_bytes().to_vec(),
            }]),
        );
        let patched = modify.clone().apply_to(Some(got), &s).unwrap();
        assert_eq!(s.get_u32(&patched.payload, 0), 42);
        assert_eq!(s.get(&patched.payload, 1), b"aaaa");
        // Modify with no base record is a no-op.
        assert!(modify.apply_to(None, &s).is_none());
    }

    #[test]
    fn merge_delete_then_insert_is_replace() {
        let s = schema();
        let del = UpdateRecord::new(1, 9, UpdateOp::Delete);
        let ins = UpdateRecord::new(2, 9, UpdateOp::Insert(payload(3, b"bbbb")));
        let merged = del.merge_with_later(&ins, &s);
        assert_eq!(merged.ts, 2);
        assert!(matches!(merged.op, UpdateOp::Replace(_)));
    }

    #[test]
    fn merge_modify_chains_compose() {
        let s = schema();
        let m1 = UpdateRecord::new(
            1,
            9,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: 1u32.to_le_bytes().to_vec(),
            }]),
        );
        let m2 = UpdateRecord::new(
            2,
            9,
            UpdateOp::Modify(vec![
                FieldPatch {
                    field: 0,
                    value: 2u32.to_le_bytes().to_vec(),
                },
                FieldPatch {
                    field: 1,
                    value: b"qqqq".to_vec(),
                },
            ]),
        );
        let merged = m1.merge_with_later(&m2, &s);
        let base = Record::new(9, payload(0, b"0000"));
        let direct = m2
            .apply_to(m1.apply_to(Some(base.clone()), &s), &s)
            .unwrap();
        let via_merge = merged.apply_to(Some(base), &s).unwrap();
        assert_eq!(direct, via_merge);
    }

    #[test]
    fn merge_insert_then_modify_folds_payload() {
        let s = schema();
        let ins = UpdateRecord::new(1, 9, UpdateOp::Insert(payload(1, b"aaaa")));
        let m = UpdateRecord::new(
            2,
            9,
            UpdateOp::Modify(vec![FieldPatch {
                field: 1,
                value: b"zzzz".to_vec(),
            }]),
        );
        let merged = ins.merge_with_later(&m, &s);
        match &merged.op {
            UpdateOp::Insert(p) => {
                assert_eq!(s.get(p, 1), b"zzzz");
                assert_eq!(s.get_u32(p, 0), 1);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn merge_anything_then_delete_is_delete() {
        let s = schema();
        for earlier in [
            UpdateOp::Insert(payload(1, b"aaaa")),
            UpdateOp::Delete,
            UpdateOp::Modify(vec![]),
            UpdateOp::Replace(payload(2, b"bbbb")),
        ] {
            let e = UpdateRecord::new(1, 9, earlier);
            let d = UpdateRecord::new(2, 9, UpdateOp::Delete);
            assert_eq!(e.merge_with_later(&d, &s).op, UpdateOp::Delete);
        }
    }

    #[test]
    fn merge_equivalence_property_sampled() {
        // For every pair of op kinds, merging then applying must equal
        // applying in sequence, starting from an existing base record.
        let s = schema();
        let ops = vec![
            UpdateOp::Insert(payload(10, b"iiii")),
            UpdateOp::Delete,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: 77u32.to_le_bytes().to_vec(),
            }]),
            UpdateOp::Replace(payload(20, b"rrrr")),
        ];
        for o1 in &ops {
            for o2 in &ops {
                let u1 = UpdateRecord::new(1, 9, o1.clone());
                let u2 = UpdateRecord::new(2, 9, o2.clone());
                let merged = u1.merge_with_later(&u2, &s);
                for base in [Some(Record::new(9, payload(0, b"base"))), None] {
                    let direct = u2
                        .clone()
                        .apply_to(u1.clone().apply_to(base.clone(), &s), &s);
                    let via = merged.clone().apply_to(base, &s);
                    assert_eq!(direct, via, "ops {o1:?} then {o2:?}");
                }
            }
        }
    }
}
