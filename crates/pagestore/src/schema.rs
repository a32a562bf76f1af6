//! Fixed-width payload schemas.
//!
//! Well-formed `modify` updates change "the field(s) of a record to
//! specified new value(s) given its key" (§2.1). To apply such an update we
//! need byte offsets of fields inside the payload; a [`Schema`] provides
//! them for fixed-width rows (the common DW case and the paper's setup).

/// Type of a fixed-width field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 double.
    F64,
    /// Raw bytes of the given width.
    Bytes(u16),
}

impl FieldType {
    /// Width of the field in bytes.
    pub fn width(&self) -> usize {
        match self {
            FieldType::U32 => 4,
            FieldType::U64 | FieldType::F64 => 8,
            FieldType::Bytes(n) => *n as usize,
        }
    }
}

/// One field of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (for reports and examples).
    pub name: String,
    /// Field type.
    pub ty: FieldType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// A fixed-width payload layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    offsets: Vec<usize>,
    width: usize,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut off = 0usize;
        for f in &fields {
            offsets.push(off);
            off += f.ty.width();
        }
        Schema {
            fields,
            offsets,
            width: off,
        }
    }

    /// The paper's synthetic table: 100-byte records with an 8-byte key,
    /// one u32 "measure" field, and filler.
    pub fn synthetic_100b() -> Self {
        Schema::new(vec![
            Field::new("measure", FieldType::U32),
            Field::new("filler", FieldType::Bytes(88)),
        ])
    }

    /// Total payload width in bytes.
    pub fn payload_width(&self) -> usize {
        self.width
    }

    /// All fields, in payload order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Byte range of field `i` within the payload.
    pub(crate) fn field_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.offsets[i];
        start..start + self.fields[i].ty.width()
    }

    /// Read field `i` of `payload` as raw bytes.
    pub fn get<'a>(&self, payload: &'a [u8], i: usize) -> &'a [u8] {
        &payload[self.field_range(i)]
    }

    /// Overwrite field `i` of `payload` with `value` (must match width).
    pub fn set(&self, payload: &mut [u8], i: usize, value: &[u8]) {
        assert!(
            self.try_set(payload, i, value),
            "field {i} width mismatch: {} bytes into a {}-byte payload",
            value.len(),
            payload.len()
        );
    }

    /// Overwrite field `i` of `payload` with `value` when the schema
    /// has that field, `value` has its width and `payload` holds it;
    /// `false`, and nothing written, otherwise — where [`Schema::set`]
    /// panics. For patches read off a device.
    pub fn try_set(&self, payload: &mut [u8], i: usize, value: &[u8]) -> bool {
        let Some(field) = self.fields.get(i) else {
            return false;
        };
        let start = self.offsets[i];
        match payload.get_mut(start..start + field.ty.width()) {
            Some(dst) if dst.len() == value.len() => {
                dst.copy_from_slice(value);
                true
            }
            _ => false,
        }
    }

    /// Read field `i` as u32 (must be a U32 field).
    pub fn get_u32(&self, payload: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(self.get(payload, i).try_into().expect("u32 field"))
    }

    /// Write field `i` as u32.
    pub fn set_u32(&self, payload: &mut [u8], i: usize, v: u32) {
        self.set(payload, i, &v.to_le_bytes());
    }

    /// A zeroed payload of the right width.
    pub fn empty_payload(&self) -> Vec<u8> {
        vec![0u8; self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", FieldType::U32),
            Field::new("b", FieldType::U64),
            Field::new("c", FieldType::Bytes(3)),
        ])
    }

    #[test]
    fn widths_and_offsets() {
        let s = schema();
        assert_eq!(s.payload_width(), 15);
        assert_eq!(s.field_range(0), 0..4);
        assert_eq!(s.field_range(1), 4..12);
        assert_eq!(s.field_range(2), 12..15);
    }

    #[test]
    fn set_get_typed() {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, 0xDEAD_BEEF);
        s.set(&mut p, 1, &0x1122_3344_5566_7788u64.to_le_bytes());
        s.set(&mut p, 2, b"xyz");
        assert_eq!(s.get_u32(&p, 0), 0xDEAD_BEEF);
        assert_eq!(s.get(&p, 1), 0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(s.get(&p, 2), b"xyz");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn set_wrong_width_panics() {
        let s = schema();
        let mut p = s.empty_payload();
        s.set(&mut p, 2, b"toolong");
    }

    #[test]
    fn synthetic_schema_matches_paper_record_size() {
        let s = Schema::synthetic_100b();
        // 8-byte key + payload = 100 bytes logical record.
        assert_eq!(s.payload_width() + 8, 100);
    }
}
