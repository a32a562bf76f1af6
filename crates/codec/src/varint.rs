//! LEB128 varints — the integer encoding shared by the [`crate::delta`]
//! codec and the block-run metadata regions (bloom filter headers).
//! Extracted from `masm-blockrun::block` when the delta encoding became
//! a codec.

/// Append `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode a LEB128 varint from the front of `buf`; returns the value and
/// bytes consumed.
pub fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        let low = (b & 0x7F) as u64;
        if shift == 63 && low > 1 {
            return None; // overflow past 64 bits
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (300, 2),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), len, "len of {v}");
            let (back, used) = get_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
        assert!(get_varint(&[0x80]).is_none(), "truncated varint");
        assert!(
            get_varint(&[0xFF; 11]).is_none(),
            "varint longer than 64 bits"
        );
    }
}
