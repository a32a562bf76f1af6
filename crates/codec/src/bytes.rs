//! The one door for durable bytes. Everything recovery and the read
//! path trust off a device — WAL frames, run footers, index and bloom
//! blocks, zone CRCs, codec streams — is a body and the CRC-32 of it: a
//! *sealed section*. [`seal`] writes one and [`open`] checks one;
//! [`verify`] checks a CRC kept apart from its body (a WAL frame's
//! header, a block's zone map). What the CRC vouched for is then read
//! with a [`Reader`], which answers `None`, never a panic, when a
//! CRC-valid body lies about a count or a length.
//!
//! The CRC-32 (IEEE 802.3, reflected 0xEDB88320) is on every byte of
//! the write path and of every cold read. On x86-64 with PCLMULQDQ and
//! SSE4.1 (detected at run time) its kernel is the same polynomial,
//! folded with carry-less multiplies: 64 bytes per step while four
//! 128-bit lanes fold ahead, then 16 bytes per step into one lane, then
//! a Barrett reduction to 32 bits (Gopal et al., "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
//! Everywhere else, and for inputs shorter than 64 bytes and the
//! tail of a folded one, it is *slicing-by-8*: eight table lookups fold
//! eight input bytes per step. Both give the same CRC for every input,
//! so nothing already written changes. They are local code because the
//! build environment cannot fetch a checksum crate.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Inputs from this many bytes on are folded with carry-less
/// multiplies where the CPU has them; shorter ones (most WAL frames)
/// go through the tables. Four 16-byte lanes are the least the fold
/// starts from, and at 64 bytes it already takes 13 ns to the tables'
/// 35 (0.05 against 0.75 ns a byte at 4 KiB; one core of a 2-vCPU
/// Xeon VM).
const FOLD_MIN: usize = 64;

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold::crc32_fold` needs PCLMULQDQ and SSE4.1, and the
        // CPU was just found to have both.
        let (crc, tail) = unsafe { fold::crc32_fold(0xFFFF_FFFF, data) };
        return !crc32_slicing(crc, tail);
    }
    !crc32_slicing(0xFFFF_FFFF, data)
}

/// The CRC register `crc` advanced over `data`, eight bytes a step.
fn crc32_slicing(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The folding kernel. Bit-reflected throughout: the lowest bit of the
/// first byte is the highest power of x. The constants are x^n mod P
/// (reflected, 33 bits) for the fold distances 4·128+64 and 4·128
/// (`K1`, `K2`), 128+64 and 128 (`K3`, `K4`) and 64 (`K5`), then P
/// itself and ⌊x^64 / P⌋ for the Barrett step.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The CRC register `crc` advanced over the whole 16-byte blocks of
    /// `data` (at least four), and the bytes after them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        // Four lanes, the register folded into the first.
        let mut lanes = [
            load(first[0]),
            load(first[1]),
            load(first[2]),
            load(first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by4 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in quads.by_ref() {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(*block), by4);
            }
        }
        // The four lanes into one, then one block a step.
        let by1 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_into(x, lane, by1);
        }
        for block in quads.remainder() {
            x = fold_into(x, load(*block), by1);
        }
        // 128 bits to 64, then Barrett's reduction to 32.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        (_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32, tail)
    }

    /// `acc` carried 128 bits (or, for `keys` = `by4`, 512) further
    /// along the message and added to `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Sixteen bytes as one little-endian 128-bit lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: [u8; 16]) -> __m128i {
        let lane = u128::from_le_bytes(block);
        _mm_set_epi64x((lane >> 64) as i64, lane as i64)
    }
}

/// Seal `out[start..]`: append its CRC-32, making it a section that
/// [`open`] reads back.
pub fn seal(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The body of a sealed section — `region` without its trailing CRC-32
/// — if that CRC holds; `None` if it does not, or if `region` is too
/// short to carry one.
pub fn open(region: &[u8]) -> Option<&[u8]> {
    let (body, crc) = region.split_last_chunk::<4>()?;
    verify(body, u32::from_le_bytes(*crc))
}

/// `body`, if `crc` is its CRC-32: the check of a CRC stored apart from
/// the bytes it covers.
pub fn verify(body: &[u8], crc: u32) -> Option<&[u8]> {
    (crc32(body) == crc).then_some(body)
}

/// Append `v` as a LEB128 varint ([`Reader::varint`] reads it back).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a `u32` count, then `vals` as little-endian `u64`s
/// ([`Reader::u64s`] reads them back).
pub fn put_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A cursor over bytes that came off a device. Every read is
/// bounds-checked and returns `None` — never a panic — when the bytes
/// run out or cannot be what they claim; integers are little-endian.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    /// Length of the whole input, so [`Reader::pos`] is a subtraction.
    len: usize,
}

#[deny(clippy::indexing_slicing, clippy::panic)]
#[deny(clippy::unwrap_used, clippy::expect_used)]
impl<'a> Reader<'a> {
    /// A reader at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// A LEB128 varint ([`put_varint`]); `None` if it is cut off or
    /// runs past 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = (b & 0x7F) as u64;
            if shift == 63 && low > 1 {
                return None; // bits past the 64th
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// `n` little-endian `u64`s. The bytes are taken first: a count the
    /// input cannot hold is `None` before anything is reserved for it.
    pub fn words(&mut self, n: usize) -> Option<Vec<u64>> {
        let words = self.take(n.checked_mul(8)?)?.as_chunks::<8>().0.iter();
        Some(words.map(|w| u64::from_le_bytes(*w)).collect())
    }

    /// A `u32` count, then that many `u64`s ([`Reader::words`]).
    pub fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.u32()?;
        self.words(n as usize)
    }

    /// `Some` if every byte has been read: a structure that ends before
    /// its bytes do is as corrupt as one that runs past them.
    #[inline]
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop: the reference every slice length
    /// and alignment of the kernel is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = make_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// `len` SplitMix64 bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_offset() {
        // Every length 0..=4,200 — below and at the folding threshold,
        // one to four folding lanes, every block remainder and tail, a
        // whole 4 KiB run block and past it — at every start offset
        // 0..8, every alignment of the loads; then 8 KiB and 64 KiB.
        let buf = noise(64 * 1024 + 8);
        for start in 0..8 {
            for len in 0..=4_200 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
            for len in [8 * 1024, 64 * 1024] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    /// The tables alone, as a CPU without carry-less multiplies runs
    /// every input, against the same reference.
    #[test]
    fn the_slicing_fallback_matches_the_bytewise_reference() {
        let buf = noise(1_032);
        for start in 0..8 {
            for len in 0..=1_024 {
                let s = &buf[start..start + len];
                assert_eq!(
                    !crc32_slicing(0xFFFF_FFFF, s),
                    crc32_bytewise(s),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 1024];
        let base = crc32(&data);
        for byte in [0usize, 500, 1023] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn a_sealed_section_opens_to_its_body_only() {
        let mut out = b"headbody".to_vec();
        seal(&mut out, 4);
        assert_eq!(open(&out[4..]), Some(&b"body"[..]));
        assert_eq!(open(&out), None, "the CRC covers only the sealed part");
        for i in 4..out.len() {
            let mut flipped = out.clone();
            flipped[i] ^= 0x10;
            assert_eq!(open(&flipped[4..]), None, "byte {i}");
        }
        assert_eq!(open(&[0; 3]), None, "shorter than a CRC");
    }

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
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Some(v));
            assert_eq!(r.finish(), Some(()));
        }
        assert!(Reader::new(&[0x80]).varint().is_none(), "truncated varint");
        assert!(
            Reader::new(&[0xFF; 11]).varint().is_none(),
            "varint longer than 64 bits"
        );
        let mut past_64 = [0xFF; 10];
        past_64[9] = 2;
        assert!(Reader::new(&past_64).varint().is_none(), "bit 64 set");
    }

    #[test]
    fn every_read_is_bounded_and_little_endian() {
        let mut buf = vec![7, 2, 1, 6, 5, 4, 3];
        for v in [u64::MAX, (-5i64) as u64] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        put_u64s(&mut buf, &[9]);
        buf.push(b'x');
        let mut r = Reader::new(&buf);
        assert_eq!(
            (r.u8(), r.u16(), r.u32()),
            (Some(7), Some(0x0102), Some(0x0304_0506))
        );
        assert_eq!(
            (r.u64(), r.i64(), r.u64s()),
            (Some(u64::MAX), Some(-5), Some(vec![9]))
        );
        assert_eq!((r.pos(), r.remaining()), (buf.len() - 1, 1));
        assert!(r.clone().finish().is_none(), "a byte left");
        assert_eq!(r.u32(), None, "a failed read consumes nothing");
        assert_eq!(r.take(1), Some(&b"x"[..]));
        assert_eq!((r.u8(), r.finish()), (None, Some(())));
        // Counts the bytes cannot hold reserve nothing.
        assert_eq!(Reader::new(&u32::MAX.to_le_bytes()).u64s(), None);
        assert_eq!(Reader::new(&[0; 64]).words(usize::MAX / 4), None);
    }
}
