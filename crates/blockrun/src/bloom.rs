//! Per-run bloom filter for point lookups.
//!
//! A range scan prunes blocks with zone maps, but a *point* lookup over
//! many runs mostly hits runs that do not contain the key at all. A
//! small bloom filter per run (10 bits/key ≈ 0.8% false positives at
//! k = 7) lets those runs answer "definitely absent" from memory,
//! skipping the SSD read entirely — the same role bloom filters play in
//! SST-based LSM stores.
//!
//! Double hashing: `g_i(x) = h1(x) + i·h2(x)` over two independent
//! 64-bit mixes of the key (Kirsch–Mitzenmacher), which matches the
//! false-positive behaviour of k independent hashes.

use masm_codec::bytes::{put_varint, Reader};

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The two 64-bit mixes of a key that every filter derives its probe
/// positions from. They do not depend on the filter, so a point lookup
/// over many runs computes them once ([`BloomFilter::hashes_of`]) and
/// probes each run's filter with [`BloomFilter::contains_hashed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHashes {
    h1: u64,
    h2: u64,
}

/// The `k` bit positions of a key in a filter of `n_bits` bits:
/// `(h1 + i·h2) mod n_bits` for `i < k`, the reduction a mask because
/// `n_bits` is a power of two.
#[inline]
fn probes(h: KeyHashes, k: u32, n_bits: u64) -> impl Iterator<Item = u64> {
    let mask = n_bits - 1;
    let mut g = h.h1;
    (0..k).map(move |_| {
        let bit = g & mask;
        g = g.wrapping_add(h.h2);
        bit
    })
}

/// An immutable bloom filter over a run's key set. `n_bits` is always
/// a power of two ≥ 64 ([`BloomFilter::build`] makes it one and
/// [`BloomFilter::decode`] accepts nothing else), so reducing a hash to
/// a bit position is a mask, and any two filters fold into one another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
}

/// Largest probe count a filter carries (`optimal_k`'s ceiling).
const MAX_K: u32 = 30;

impl BloomFilter {
    /// Number of hash probes for a given bits-per-key budget
    /// (`k_opt = bits_per_key · ln 2`).
    pub(crate) fn optimal_k(bits_per_key: u32) -> u32 {
        ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, MAX_K)
    }

    /// Theoretical false-positive rate for a bits-per-key budget.
    pub fn expected_fpr(bits_per_key: u32) -> f64 {
        let k = Self::optimal_k(bits_per_key) as f64;
        (1.0 - (-k / bits_per_key as f64).exp()).powf(k)
    }

    /// Build a filter over `keys` with `bits_per_key` bits per key.
    ///
    /// The bit count rounds up to a power of two so that filters of
    /// different sizes stay *foldable* into one another
    /// ([`BloomFilter::union`]) — compaction unions input filters of
    /// unequal runs without re-reading any key.
    pub fn build(keys: impl IntoIterator<Item = u64>, bits_per_key: u32) -> Self {
        let keys: Vec<u64> = keys.into_iter().collect();
        let n_bits = (keys.len() as u64 * bits_per_key as u64)
            .max(64)
            .next_power_of_two();
        let mut filter = BloomFilter {
            bits: vec![0u64; (n_bits / 64) as usize],
            n_bits,
            k: Self::optimal_k(bits_per_key),
        };
        for key in keys {
            for bit in probes(Self::hashes_of(key), filter.k, n_bits) {
                filter.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        filter
    }

    /// Hash `key` for [`BloomFilter::contains_hashed`].
    #[inline]
    pub fn hashes_of(key: u64) -> KeyHashes {
        KeyHashes {
            h1: mix64(key ^ 0x9E37_79B9_7F4A_7C15),
            h2: mix64(key.wrapping_add(0x6A09_E667_F3BC_C909)) | 1,
        }
    }

    /// Whether `key` may be present (false ⇒ definitely absent).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.contains_hashed(Self::hashes_of(key))
    }

    /// [`BloomFilter::contains`] for a key hashed once up front.
    #[inline]
    pub fn contains_hashed(&self, hashes: KeyHashes) -> bool {
        probes(hashes, self.k, self.n_bits)
            .all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Size of the bit array in bytes.
    pub fn bit_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Fraction of bits set (1.0 ⇒ saturated, every probe answers
    /// "maybe").
    pub fn fill_ratio(&self) -> f64 {
        let ones: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        ones as f64 / self.n_bits as f64
    }

    /// Shrink to `n_bits` by OR-folding the upper halves onto the lower
    /// ones. Because probe positions are `h mod n_bits` and both sizes
    /// are powers of two, `h mod n/2 == (h mod n) mod n/2` — so every
    /// key the original accepts, the folded filter accepts too (no
    /// false negatives; the false-positive rate rises with the tighter
    /// packing). `None` when `n_bits` is not a power of two ≥ 64 or
    /// exceeds the current size.
    pub(crate) fn fold_to(&self, n_bits: u64) -> Option<BloomFilter> {
        if !n_bits.is_power_of_two() || n_bits > self.n_bits || n_bits < 64 {
            return None;
        }
        let mut bits = self.bits.clone();
        let mut cur = bits.len();
        while (cur as u64) * 64 > n_bits {
            cur /= 2;
            for i in 0..cur {
                bits[i] |= bits[i + cur];
            }
        }
        bits.truncate(cur);
        Some(BloomFilter {
            bits,
            n_bits,
            k: self.k,
        })
    }

    /// Union: a filter accepting every key either input accepts, used
    /// by compaction to rebuild an output run's filter from its inputs'
    /// without re-reading any key (the output's key set is a subset of
    /// the inputs' union). Mismatched sizes fold down to the smaller
    /// one first; `None` when the probe counts differ.
    pub fn union(&self, other: &BloomFilter) -> Option<BloomFilter> {
        if self.k != other.k {
            return None;
        }
        let target = self.n_bits.min(other.n_bits);
        let a = self.fold_to(target)?;
        let b = other.fold_to(target)?;
        Some(BloomFilter {
            bits: a.bits.iter().zip(&b.bits).map(|(x, y)| x | y).collect(),
            n_bits: target,
            k: a.k,
        })
    }

    /// Serialize (without checksum; the enclosing region adds one).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.bits.len() * 8);
        put_varint(&mut out, self.k as u64);
        put_varint(&mut out, self.n_bits);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize a filter produced by [`BloomFilter::encode`]. The
    /// bytes come off a device: anything [`BloomFilter::build`] cannot
    /// have produced — a bit count that is not a power of two ≥ 64, a
    /// probe count outside `1..=30`, a bit array of another length — is
    /// refused, so the mask reduction holds for every filter there is.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let (k, n_bits) = (r.varint()?, r.varint()?);
        if !n_bits.is_power_of_two() || n_bits < 64 || k == 0 || k > MAX_K as u64 {
            return None;
        }
        let bits = r.words((n_bits / 64) as usize)?;
        r.finish()?;
        Some(BloomFilter {
            bits,
            n_bits,
            k: k as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<u64> = (0..5000).map(|i| i * 7 + 1).collect();
        let f = BloomFilter::build(keys.iter().copied(), 10);
        for k in keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_near_theory() {
        let keys: Vec<u64> = (0..10_000).collect();
        let f = BloomFilter::build(keys, 10);
        let probes = 100_000u64;
        let fps = (0..probes)
            .map(|i| 1_000_000 + i * 3)
            .filter(|&k| f.contains(k))
            .count();
        let rate = fps as f64 / probes as f64;
        let expect = BloomFilter::expected_fpr(10);
        assert!(
            rate <= expect * 2.0,
            "fp rate {rate:.5} vs expected {expect:.5}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = BloomFilter::build(0..1000, 12);
        let back = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn decode_rejects_malformed() {
        let f = BloomFilter::build(0..10, 8);
        let enc = f.encode();
        assert!(BloomFilter::decode(&enc[..enc.len() - 1]).is_none());
        assert!(BloomFilter::decode(&[]).is_none());
    }

    #[test]
    fn decode_accepts_only_what_build_can_produce() {
        let encoded = |k: u64, n_bits: u64, words: usize| {
            let mut out = Vec::new();
            put_varint(&mut out, k);
            put_varint(&mut out, n_bits);
            out.resize(out.len() + words * 8, 0xFF);
            out
        };
        for (k, n_bits) in [(1, 64), (7, 1024), (30, 128)] {
            let f = BloomFilter::decode(&encoded(k, n_bits, n_bits as usize / 64)).unwrap();
            assert!(f.contains(12_345), "an all-ones filter accepts anything");
        }
        // Multiples of 64 that are not powers of two, sizes below one
        // word, and probe counts `optimal_k` never returns.
        for (k, n_bits) in [
            (7, 192),
            (7, 640),
            (7, 0),
            (7, 32),
            (0, 64),
            (31, 64),
            (64, 64),
        ] {
            let words = (n_bits as usize).div_ceil(64);
            assert!(
                BloomFilter::decode(&encoded(k, n_bits, words)).is_none(),
                "k = {k}, n_bits = {n_bits}"
            );
        }
        // A bit count the buffer cannot hold must not be allocated for.
        assert!(BloomFilter::decode(&encoded(7, 1 << 62, 1)).is_none());
    }

    /// The filter as it was before the mask: `% n_bits` per probe.
    fn reference_build(keys: &[u64], bits_per_key: u32) -> (Vec<u64>, u64, u32) {
        let n_bits = (keys.len() as u64 * bits_per_key as u64)
            .max(64)
            .next_power_of_two();
        let k = BloomFilter::optimal_k(bits_per_key);
        let mut bits = vec![0u64; (n_bits / 64) as usize];
        for &key in keys {
            for bit in reference_probes(key, k, n_bits) {
                bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        (bits, n_bits, k)
    }

    fn reference_probes(key: u64, k: u32, n_bits: u64) -> impl Iterator<Item = u64> {
        let h1 = mix64(key ^ 0x9E37_79B9_7F4A_7C15);
        let h2 = mix64(key.wrapping_add(0x6A09_E667_F3BC_C909)) | 1;
        (0..k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % n_bits)
    }

    #[test]
    fn mask_reduction_sets_and_tests_the_bits_modulo_did() {
        // One key count per size `build` produces from 1 to 10^5 keys
        // at 10 bits per key: 64 bits, then every power of two to 2^20.
        let counts = [
            1usize, 6, 12, 25, 51, 102, 204, 409, 819, 1638, 3276, 6553, 13_107,
        ]
        .into_iter()
        .chain([26_214, 52_428, 100_000]);
        let mut sizes = Vec::new();
        for n in counts {
            let keys: Vec<u64> = (0..n as u64).map(|i| mix64(i) >> 8).collect();
            let filter = BloomFilter::build(keys.iter().copied(), 10);
            let (bits, n_bits, k) = reference_build(&keys, 10);
            assert_eq!((filter.n_bits, filter.k), (n_bits, k));
            assert!(filter.bits == bits, "{n} keys: a bit moved");
            sizes.push(n_bits);
            for probe in (0..10_000u64).map(|i| mix64(i ^ 0xABCD) >> 8) {
                let want = reference_probes(probe, k, n_bits)
                    .all(|bit| bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0);
                assert_eq!(filter.contains(probe), want, "{n} keys, probe {probe}");
                assert_eq!(filter.contains_hashed(BloomFilter::hashes_of(probe)), want);
            }
        }
        let every_size: Vec<u64> = (6..=20).map(|shift| 1u64 << shift).collect();
        sizes.dedup();
        assert_eq!(sizes, every_size);
    }

    #[test]
    fn union_accepts_both_key_sets() {
        // Same key count ⇒ same geometry ⇒ plain bitwise union.
        let a = BloomFilter::build(0..1000, 10);
        let b = BloomFilter::build(5000..6000, 10);
        let u = a.union(&b).expect("same geometry");
        for k in (0..1000).chain(5000..6000) {
            assert!(u.contains(k), "no false negatives for {k}");
        }
        // Different sizes fold to the smaller geometry and still union.
        let c = BloomFilter::build(9000..9010, 10);
        assert!(c.n_bits < a.n_bits);
        let u = a.union(&c).expect("folds to the smaller size");
        for k in (0..1000).chain(9000..9010) {
            assert!(u.contains(k), "no false negatives for {k}");
        }
        // Mismatched probe counts cannot union.
        let d = BloomFilter::build(0..1000, 4);
        assert!(a.union(&d).is_none());
    }

    #[test]
    fn fold_preserves_membership() {
        let keys: Vec<u64> = (0..4000).map(|i| i * 11 + 3).collect();
        let f = BloomFilter::build(keys.iter().copied(), 10);
        let folded = f.fold_to(f.n_bits / 4).expect("power-of-two fold");
        for &k in &keys {
            assert!(folded.contains(k), "no false negatives for {k}");
        }
        assert!(folded.fill_ratio() > f.fill_ratio());
        assert!(f.fold_to(f.n_bits * 2).is_none(), "cannot grow");
        assert!(f.fold_to(32).is_none(), "below the 64-bit floor");
    }

    #[test]
    fn empty_key_set_is_all_absent() {
        let f = BloomFilter::build(std::iter::empty(), 10);
        let hits = (0..1000u64).filter(|&k| f.contains(k)).count();
        assert_eq!(hits, 0);
    }
}
