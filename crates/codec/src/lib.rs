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

/// The codec a run writer is configured with: every block of the run is
/// encoded with it (or stored raw where it fails, see [`encode_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecChoice {
    /// No compression beyond the flat layout.
    Identity,
    /// Delta+varint entry encoding (the pre-codec block format).
    #[default]
    Delta,
    /// LZ-style byte compression.
    Lz,
}

impl CodecChoice {
    /// Every choice, in id order (benchmark sweeps).
    pub const ALL: [CodecChoice; 3] = [CodecChoice::Identity, CodecChoice::Delta, CodecChoice::Lz];

    /// Stable on-disk encoding (run footers record the writer's choice).
    pub fn as_id(self) -> u8 {
        match self {
            CodecChoice::Identity => IDENTITY,
            CodecChoice::Delta => DELTA,
            CodecChoice::Lz => LZ,
        }
    }

    /// Inverse of [`CodecChoice::as_id`]; `None` for unknown ids.
    pub fn from_id(id: u8) -> Option<CodecChoice> {
        match id {
            IDENTITY => Some(CodecChoice::Identity),
            DELTA => Some(CodecChoice::Delta),
            LZ => Some(CodecChoice::Lz),
            _ => None,
        }
    }

    /// Benchmark/report label.
    pub fn name(self) -> &'static str {
        match self {
            CodecChoice::Identity => "identity",
            CodecChoice::Delta => "delta",
            CodecChoice::Lz => "lz",
        }
    }
}

/// Encode one flat block under `choice`; returns the id of the codec
/// actually used and its output.
///
/// The chosen codec is used unconditionally (so a benchmark row labelled
/// `lz` really measures LZ, even when it loses). A codec that *fails* on
/// the input (e.g. [`Delta`] handed bytes that are not a flat block)
/// falls back to identity — safe, because the block records the id that
/// was actually stored.
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
        assert!(codec_for(3).is_none(), "3 names no codec");
        assert!(codec_for(0xAA).is_none());
        for c in CodecChoice::ALL {
            assert_eq!(CodecChoice::from_id(c.as_id()), Some(c));
        }
        assert_eq!(CodecChoice::from_id(3), None);
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
    fn fixed_choice_falls_back_to_identity_on_malformed_input() {
        // Bytes that are not a flat block: Delta cannot parse them, so
        // the stored block must be identity-coded (and say so).
        let raw = vec![0xFFu8; 3];
        let (id, enc) = encode_with(CodecChoice::Delta, &raw);
        assert_eq!(id, IDENTITY);
        assert_eq!(enc, raw);
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
