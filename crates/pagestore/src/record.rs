//! Records: a primary key plus an opaque payload.
//!
//! The paper's synthetic workload uses "100-byte sized records and 4-byte
//! primary keys" (§4.1). We widen keys to `u64` (RIDs in column stores are
//! positions and can exceed 2^32) and keep payloads as raw bytes whose
//! interpretation belongs to [`crate::schema::Schema`].

/// Primary key (row stores) or RID (column stores). §2.1 uses "key" for
/// both, and so do we.
pub type Key = u64;

/// A table record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Primary key / RID.
    pub key: Key,
    /// Payload bytes (all non-key attributes).
    pub payload: Vec<u8>,
}

/// Encoded size of the fixed record header: key (8) + payload length (2).
pub const RECORD_HEADER: usize = 10;

impl Record {
    /// Create a record.
    pub fn new(key: Key, payload: Vec<u8>) -> Self {
        Record { key, payload }
    }

    /// Create a record with a payload of `len` copies of a key-derived
    /// byte — handy for tests that want content checks.
    pub fn synthetic(key: Key, len: usize) -> Self {
        Record {
            key,
            payload: vec![(key % 251) as u8; len],
        }
    }

    /// Bytes needed to encode this record.
    pub(crate) fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.payload.len()
    }

    /// Append the encoding of this record to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Encode into a slice; `buf` must be exactly `encoded_len` bytes.
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        encode_parts(self.key, &self.payload, buf);
    }

    /// Decode a record from the beginning of `buf`; returns it and the
    /// number of bytes consumed.
    pub(crate) fn decode(buf: &[u8]) -> (Record, usize) {
        let key = Key::from_le_bytes(buf[..8].try_into().expect("record header"));
        let len = u16::from_le_bytes(buf[8..10].try_into().expect("record header")) as usize;
        let payload = buf[10..10 + len].to_vec();
        (Record { key, payload }, RECORD_HEADER + len)
    }
}

/// Encode the record of `key` with `payload` into `buf`, which must be
/// exactly [`RECORD_HEADER`] + `payload.len()` bytes.
pub(crate) fn encode_parts(key: Key, payload: &[u8], buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), RECORD_HEADER + payload.len());
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..10].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    buf[10..].copy_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let r = Record::new(42, vec![1, 2, 3, 4, 5]);
        let mut buf = vec![0u8; r.encoded_len()];
        r.encode(&mut buf);
        let (back, used) = Record::decode(&buf);
        assert_eq!(back, r);
        assert_eq!(used, r.encoded_len());
    }

    #[test]
    fn encode_into_appends() {
        let a = Record::new(1, vec![9]);
        let b = Record::new(2, vec![8, 7]);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let (ra, na) = Record::decode(&buf);
        let (rb, _) = Record::decode(&buf[na..]);
        assert_eq!(ra, a);
        assert_eq!(rb, b);
    }

    #[test]
    fn empty_payload() {
        let r = Record::new(7, vec![]);
        let mut buf = vec![0u8; r.encoded_len()];
        r.encode(&mut buf);
        let (back, used) = Record::decode(&buf);
        assert_eq!(back, r);
        assert_eq!(used, RECORD_HEADER);
    }

    #[test]
    fn synthetic_payload_is_deterministic() {
        let a = Record::synthetic(100, 92);
        let b = Record::synthetic(100, 92);
        assert_eq!(a, b);
        assert_eq!(a.payload.len(), 92);
        // Paper-sized record: 8B key + 92B payload = 100B logical record.
        assert_eq!(a.encoded_len(), 102);
    }
}
