//! # masm-codec — pluggable per-block compression codecs
//!
//! MaSM caches updates on the SSD precisely because flash capacity is
//! scarce relative to the warehouse; compressing the cached runs
//! multiplies the effective update cache and cuts merge-read bandwidth.
//! This crate provides the codec stage the block-run format
//! (`masm-blockrun`) applies to every data block before it reaches the
//! device:
//!
//! * [`Identity`] — store the raw bytes unchanged (id 0).
//! * [`Delta`] — the delta+varint entry encoding the block format used
//!   before this stage existed, extracted into a byte codec: it parses
//!   the *flat* block layout (see below) and re-encodes keys as varint
//!   deltas against the previous key (id 1).
//! * [`Lz`] — an LZ-style byte codec (greedy hash-chain match finder,
//!   LZ4-like token stream), dependency-free and deterministic (id 2).
//! * [`CodecChoice::Adaptive`] — not a codec but a *selector*:
//!   [`encode_with`] trial-encodes the block with every codec and keeps
//!   the smallest output, recording the winning codec id per block.
//!
//! The **flat block layout** all codecs operate on is the uncompressed
//! representation of one data block:
//!
//! ```text
//! ┌────────────┬───────────────────────────────────────────────┐
//! │ count: u32 │ entry × count                                 │
//! ├────────────┴───────────────────────────────────────────────┤
//! │ entry := key: u64 LE │ ts: u64 LE │ len: u32 LE │ value…   │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Codec ids are part of the on-disk format: once written they must
//! never be reassigned. [`codec_for`] resolves an id back to its codec;
//! an unknown id is a typed error at the call site, never a panic —
//! forward compatibility for runs written by newer builds.
//!
//! [`bytes`] is the door every durable byte goes through: the CRC-32,
//! sealed sections, varints, and the bounds-checked [`bytes::Reader`]
//! the decoders here, the run format and the redo log parse with.

pub mod bytes;
pub mod delta;
pub mod lz;

use std::fmt;

pub use delta::Delta;
pub use lz::Lz;

/// Codec id of [`Identity`] (raw bytes stored unchanged).
pub const IDENTITY: u8 = 0;
/// Codec id of [`Delta`] (delta+varint re-encoding of the flat layout).
pub const DELTA: u8 = 1;
/// Codec id of [`Lz`] (LZ-style byte compression).
pub const LZ: u8 = 2;
/// Footer marker for adaptive selection. Never appears as a per-block
/// codec id — each block records the codec that actually won.
pub(crate) const ADAPTIVE: u8 = 3;

/// Errors from encoding or decoding a block through a codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input bytes violate the codec's format.
    Malformed(&'static str),
    /// Decoding produced a different byte count than the recorded raw
    /// length — truncation or corruption that slipped past the caller.
    LengthMismatch {
        /// Raw length recorded in the block's metadata.
        expected: usize,
        /// Length the decoder actually produced.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(what) => write!(f, "malformed codec input: {what}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded length {got} != recorded raw length {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias.
pub type CodecResult<T> = Result<T, CodecError>;

/// One per-block compression codec.
///
/// `decode ∘ encode` must be the identity on every input `encode`
/// accepts. Codecs are stateless and shared (`&'static dyn Codec` via
/// [`codec_for`]).
pub trait Codec: Send + Sync {
    /// Stable on-disk id of this codec.
    fn id(&self) -> u8;
    /// Human-readable name (benchmark labels).
    fn name(&self) -> &'static str;
    /// Compress `raw` (a flat block). Fails only when the codec needs
    /// structure the input lacks (e.g. [`Delta`] on a non-flat block).
    fn encode(&self, raw: &[u8]) -> CodecResult<Vec<u8>>;
    /// Decompress `encoded`, validating the output against `raw_len`
    /// (the raw length recorded in the block's zone-map entry).
    fn decode(&self, encoded: &[u8], raw_len: usize) -> CodecResult<Vec<u8>>;
    /// Worst-case encoded size for a `raw_len`-byte input — the bound a
    /// caller can use to pre-size output buffers.
    fn max_compressed_len(&self, raw_len: usize) -> usize;
}

/// The identity codec: bytes pass through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Codec for Identity {
    fn id(&self) -> u8 {
        IDENTITY
    }

    fn name(&self) -> &'static str {
        "identity"
    }

    fn encode(&self, raw: &[u8]) -> CodecResult<Vec<u8>> {
        Ok(raw.to_vec())
    }

    fn decode(&self, encoded: &[u8], raw_len: usize) -> CodecResult<Vec<u8>> {
        if encoded.len() != raw_len {
            return Err(CodecError::LengthMismatch {
                expected: raw_len,
                got: encoded.len(),
            });
        }
        Ok(encoded.to_vec())
    }

    fn max_compressed_len(&self, raw_len: usize) -> usize {
        raw_len
    }
}

/// Resolve an on-disk codec id. `None` for unknown ids — callers turn
/// that into their own typed error (the block-run reader's
/// `UnknownCodec`), never a panic.
pub fn codec_for(id: u8) -> Option<&'static dyn Codec> {
    match id {
        IDENTITY => Some(&Identity),
        DELTA => Some(&Delta),
        LZ => Some(&Lz),
        _ => None,
    }
}

/// The codec policy a run writer is configured with. Fixed choices
/// always use that codec; [`CodecChoice::Adaptive`] trial-encodes each
/// block and keeps the smallest output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecChoice {
    /// No compression beyond the flat layout.
    Identity,
    /// Delta+varint entry encoding (the pre-codec block format).
    #[default]
    Delta,
    /// LZ-style byte compression.
    Lz,
    /// Per-block winner of an identity/delta/lz trial encode.
    Adaptive,
}

impl CodecChoice {
    /// Every choice, in id order (benchmark sweeps).
    pub const ALL: [CodecChoice; 4] = [
        CodecChoice::Identity,
        CodecChoice::Delta,
        CodecChoice::Lz,
        CodecChoice::Adaptive,
    ];

    /// Stable on-disk encoding (run footers record the writer's choice).
    pub fn as_id(self) -> u8 {
        match self {
            CodecChoice::Identity => IDENTITY,
            CodecChoice::Delta => DELTA,
            CodecChoice::Lz => LZ,
            CodecChoice::Adaptive => ADAPTIVE,
        }
    }

    /// Inverse of [`CodecChoice::as_id`]; `None` for unknown ids.
    pub fn from_id(id: u8) -> Option<CodecChoice> {
        match id {
            IDENTITY => Some(CodecChoice::Identity),
            DELTA => Some(CodecChoice::Delta),
            LZ => Some(CodecChoice::Lz),
            ADAPTIVE => Some(CodecChoice::Adaptive),
            _ => None,
        }
    }

    /// Benchmark/report label.
    pub fn name(self) -> &'static str {
        match self {
            CodecChoice::Identity => "identity",
            CodecChoice::Delta => "delta",
            CodecChoice::Lz => "lz",
            CodecChoice::Adaptive => "adaptive",
        }
    }
}

/// Encode one flat block under `choice`; returns the id of the codec
/// actually used and its output.
///
/// Fixed choices use their codec unconditionally (so a benchmark row
/// labelled `lz` really measures LZ, even when it loses). A fixed codec
/// that *fails* on the input (e.g. [`Delta`] handed bytes that are not
/// a flat block) falls back to identity — safe, because the block
/// records the id that was actually stored. `Adaptive` keeps the
/// smallest of the three outputs, prefering the cheaper-to-decode codec
/// on ties.
pub fn encode_with(choice: CodecChoice, raw: &[u8]) -> (u8, Vec<u8>) {
    match choice {
        CodecChoice::Identity => (IDENTITY, raw.to_vec()),
        CodecChoice::Delta => match Delta.encode(raw) {
            Ok(enc) => (DELTA, enc),
            Err(_) => (IDENTITY, raw.to_vec()),
        },
        CodecChoice::Lz => match Lz.encode(raw) {
            Ok(enc) => (LZ, enc),
            Err(_) => (IDENTITY, raw.to_vec()),
        },
        CodecChoice::Adaptive => best_trial(raw, true).unwrap_or_else(|| (IDENTITY, raw.to_vec())),
    }
}

/// The best-of trial encode shared by [`encode_with`]'s `Adaptive` arm
/// and the sample blocks of [`AdaptiveSelector`]: try delta (and LZ
/// unless `try_lz` is false), keeping the smallest output strictly
/// below the identity baseline. `None` means identity wins — the
/// identity copy is only materialized if no codec beats it.
fn best_trial(raw: &[u8], try_lz: bool) -> Option<(u8, Vec<u8>)> {
    let mut best: Option<(u8, Vec<u8>)> = None;
    for codec in [&Delta as &dyn Codec, &Lz as &dyn Codec] {
        if codec.id() == LZ && !try_lz {
            continue;
        }
        if let Ok(enc) = codec.encode(raw) {
            let best_len = best.as_ref().map_or(raw.len(), |(_, b)| b.len());
            if enc.len() < best_len {
                best = Some((codec.id(), enc));
            }
        }
    }
    best
}

/// Shannon entropy of the byte distribution, in bits per byte, from a
/// strided sample of at most ~1 KB — the cheap probe the sample-based
/// selector uses to skip LZ trials on incompressible payloads. 0.0 for
/// empty input; 8.0 is incompressible noise.
pub(crate) fn entropy_bits_per_byte(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let stride = (bytes.len() / 1024).max(1);
    let mut hist = [0u32; 256];
    let mut n = 0u64;
    let mut i = 0;
    while i < bytes.len() {
        hist[bytes[i] as usize] += 1;
        n += 1;
        i += stride;
    }
    let n = n as f64;
    let mut h = 0.0;
    for c in hist {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

/// Byte-entropy threshold above which the selector's probe classifies a
/// block as incompressible and skips the LZ trial. LZ needs repeats; a
/// near-uniform byte histogram (≥ 7.2 of the possible 8 bits) means the
/// trial would almost surely lose to the delta candidate or identity.
pub(crate) const LZ_ENTROPY_SKIP_BITS: f64 = 7.2;

/// How often the sample-based selector re-runs a full trial encode
/// under [`CodecChoice::Adaptive`]: once per this many blocks (the
/// first block of every window decides for the rest).
pub const DEFAULT_SAMPLE_EVERY: usize = 16;

/// Writer-side CPU accounting of an [`AdaptiveSelector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// Codec encodes actually executed (trials on sample blocks plus
    /// the one targeted encode per reuse block).
    pub trial_encodes: u64,
    /// Encodes avoided relative to the trial-everything-per-block
    /// baseline (two trials — delta and LZ — per block).
    pub trials_saved: u64,
    /// LZ trials skipped because the entropy probe classified the block
    /// as incompressible (a subset of `trials_saved`).
    pub lz_skipped: u64,
}

/// Sample-based per-run codec selection: decide from the first block of
/// every [`DEFAULT_SAMPLE_EVERY`]-block window, reuse the winner for
/// the rest.
///
/// The naive [`CodecChoice::Adaptive`] policy ([`encode_with`])
/// trial-encodes *every* codec on *every* block — 3× the encode CPU of
/// a fixed choice. Run payloads are homogeneous in practice, so this
/// selector trial-encodes only the first block of each window (with a
/// byte-entropy probe that skips the LZ trial outright on
/// incompressible payloads) and re-encodes
/// the following blocks with the cached winner alone. Correctness
/// guard: a reuse block whose winner output fails or comes out at least
/// as large as the raw bytes falls back to identity, so the per-block
/// "never loses to identity" invariant survives sampling.
///
/// Fixed (non-adaptive) choices pass straight through to
/// [`encode_with`] and record no statistics.
#[derive(Debug)]
pub struct AdaptiveSelector {
    choice: CodecChoice,
    seen: usize,
    winner: u8,
    stats: SelectorStats,
}

impl AdaptiveSelector {
    /// A selector for `choice`.
    pub fn new(choice: CodecChoice) -> Self {
        AdaptiveSelector {
            choice,
            seen: 0,
            winner: IDENTITY,
            stats: SelectorStats::default(),
        }
    }

    /// Writer-side CPU accounting so far.
    pub fn stats(&self) -> SelectorStats {
        self.stats
    }

    /// Encode one flat block; returns the id of the codec actually used
    /// and its output, exactly like [`encode_with`].
    pub fn encode_block(&mut self, raw: &[u8]) -> (u8, Vec<u8>) {
        if self.choice != CodecChoice::Adaptive {
            return encode_with(self.choice, raw);
        }
        let sample = self.seen.is_multiple_of(DEFAULT_SAMPLE_EVERY);
        self.seen += 1;
        if sample {
            // Full selection, minus LZ when the probe says noise.
            let try_lz = entropy_bits_per_byte(raw) < LZ_ENTROPY_SKIP_BITS;
            if try_lz {
                self.stats.trial_encodes += 2;
            } else {
                self.stats.trial_encodes += 1;
                self.stats.lz_skipped += 1;
                self.stats.trials_saved += 1;
            }
            let (id, out) = best_trial(raw, try_lz).unwrap_or_else(|| (IDENTITY, raw.to_vec()));
            self.winner = id;
            (id, out)
        } else if self.winner == IDENTITY {
            // Cached winner is "don't bother": zero encodes this block.
            self.stats.trials_saved += 2;
            (IDENTITY, raw.to_vec())
        } else {
            // One targeted encode with the cached winner instead of two
            // trials; identity fallback keeps the never-grows guarantee.
            self.stats.trial_encodes += 1;
            self.stats.trials_saved += 1;
            let codec = codec_for(self.winner).expect("winner is a known codec");
            match codec.encode(raw) {
                Ok(enc) if enc.len() < raw.len() => (self.winner, enc),
                _ => (IDENTITY, raw.to_vec()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_resolvable() {
        assert_eq!(codec_for(IDENTITY).unwrap().id(), IDENTITY);
        assert_eq!(codec_for(DELTA).unwrap().id(), DELTA);
        assert_eq!(codec_for(LZ).unwrap().id(), LZ);
        assert!(codec_for(ADAPTIVE).is_none(), "adaptive is not a codec");
        assert!(codec_for(0xAA).is_none());
        for c in CodecChoice::ALL {
            assert_eq!(CodecChoice::from_id(c.as_id()), Some(c));
        }
        assert_eq!(CodecChoice::from_id(200), None);
    }

    #[test]
    fn identity_roundtrip_and_length_check() {
        let raw = b"hello block".to_vec();
        let enc = Identity.encode(&raw).unwrap();
        assert_eq!(enc, raw);
        assert_eq!(Identity.decode(&enc, raw.len()).unwrap(), raw);
        assert!(matches!(
            Identity.decode(&enc, raw.len() + 1),
            Err(CodecError::LengthMismatch { .. })
        ));
        assert_eq!(Identity.max_compressed_len(100), 100);
    }

    #[test]
    fn adaptive_picks_smallest() {
        // A highly repetitive byte string: LZ must beat identity, and
        // the winner round-trips under its recorded id.
        let raw: Vec<u8> = b"abcdefgh".repeat(100);
        let (id, enc) = encode_with(CodecChoice::Adaptive, &raw);
        assert!(enc.len() < raw.len(), "{} >= {}", enc.len(), raw.len());
        let codec = codec_for(id).unwrap();
        assert_eq!(codec.decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn adaptive_never_loses_to_identity() {
        // Incompressible pseudo-random bytes: adaptive must fall back
        // to identity rather than store a grown output.
        let mut x = 0x9E3779B97F4A7C15u64;
        let raw: Vec<u8> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let (id, enc) = encode_with(CodecChoice::Adaptive, &raw);
        assert!(enc.len() <= raw.len());
        let codec = codec_for(id).unwrap();
        assert_eq!(codec.decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn fixed_choice_falls_back_to_identity_on_malformed_input() {
        // Bytes that are not a flat block: Delta cannot parse them, so
        // the stored block must be identity-coded (and say so).
        let raw = vec![0xFFu8; 3];
        let (id, enc) = encode_with(CodecChoice::Delta, &raw);
        assert_eq!(id, IDENTITY);
        assert_eq!(enc, raw);
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn entropy_probe_separates_noise_from_structure() {
        assert_eq!(entropy_bits_per_byte(&[]), 0.0);
        assert!(entropy_bits_per_byte(&[7u8; 4096]) < 0.1, "constant bytes");
        let structured: Vec<u8> = b"abcd".repeat(512);
        assert!(entropy_bits_per_byte(&structured) < 3.0);
        assert!(
            entropy_bits_per_byte(&noise(4096)) > LZ_ENTROPY_SKIP_BITS,
            "xorshift noise reads as incompressible"
        );
    }

    #[test]
    fn sampled_selector_reuses_winner_and_saves_trials() {
        let raw: Vec<u8> = b"abcdefgh".repeat(100);
        let mut sel = AdaptiveSelector::new(CodecChoice::Adaptive);
        for i in 0..2 * DEFAULT_SAMPLE_EVERY {
            let (id, enc) = sel.encode_block(&raw);
            assert!(enc.len() < raw.len(), "block {i} compressed");
            let back = codec_for(id).unwrap().decode(&enc, raw.len()).unwrap();
            assert_eq!(back, raw, "block {i} round-trips under recorded id");
        }
        let s = sel.stats();
        // Two sample blocks ran (up to) two trials; the thirty reuse
        // blocks ran one targeted encode each.
        assert!(s.trial_encodes <= 2 * 2 + 30);
        assert_eq!(
            s.trial_encodes + s.trials_saved,
            2 * 32,
            "every block accounts for the 2-trial baseline"
        );
        assert!(
            s.trials_saved >= 30,
            "sampling saved at least one per reuse"
        );
    }

    #[test]
    fn sampled_selector_skips_lz_on_noise_and_never_grows() {
        let raw = noise(2048);
        let mut sel = AdaptiveSelector::new(CodecChoice::Adaptive);
        for _ in 0..2 * DEFAULT_SAMPLE_EVERY {
            let (id, enc) = sel.encode_block(&raw);
            assert!(enc.len() <= raw.len(), "never grows");
            let back = codec_for(id).unwrap().decode(&enc, raw.len()).unwrap();
            assert_eq!(back, raw);
        }
        let s = sel.stats();
        assert!(s.lz_skipped >= 2, "probe skipped LZ on both sample blocks");
        assert!(s.trials_saved >= s.lz_skipped);
    }

    #[test]
    fn fixed_choice_selector_matches_encode_with_and_counts_nothing() {
        let raw: Vec<u8> = b"abcdefgh".repeat(64);
        for choice in [CodecChoice::Identity, CodecChoice::Delta, CodecChoice::Lz] {
            let mut sel = AdaptiveSelector::new(choice);
            let (id, enc) = sel.encode_block(&raw);
            assert_eq!((id, enc), encode_with(choice, &raw));
            assert_eq!(sel.stats(), SelectorStats::default());
        }
    }

    #[test]
    fn codec_error_display() {
        assert!(CodecError::Malformed("x").to_string().contains("x"));
        assert!(CodecError::LengthMismatch {
            expected: 3,
            got: 4
        }
        .to_string()
        .contains("3"));
    }
}
