//! The shard manifest: the durable description of a sharded deployment.
//!
//! A [`crate::ShardedEngine`] is N per-range engines over N WAL devices;
//! after a crash, recovery must know *how many* logs to replay, *which*
//! key range each one covers, and that the configuration it is being
//! recovered under produces the same on-flash layout that was written.
//! The [`ShardManifest`] carries exactly that — shard count, split keys,
//! and a fingerprint of the layout-shaping configuration — and is
//! appended (CRC-protected, once per shard, each
//! copy naming its own shard id) to every shard's redo log at
//! [`crate::ShardedEngine::new`]. Logging a copy into *every* WAL means
//! recovery needs no side-channel file: any one log identifies the
//! deployment, and cross-checking all N copies catches mixed-up or
//! truncated device sets before any run bytes are trusted.

use masm_blockrun::crc32;
use masm_pagestore::Key;

use crate::error::{MasmError, MasmResult};

/// Magic prefix of an encoded manifest (`"MSMF"`).
const MANIFEST_MAGIC: u32 = 0x4D53_4D46;
/// Encoding version.
const MANIFEST_VERSION: u16 = 1;

/// Durable identity of one shard within a sharded deployment.
///
/// Written to each shard's WAL at construction and validated by
/// [`crate::ShardedEngine::recover`]: every copy must agree on the
/// shard count, split keys, and config fingerprint, and each copy must
/// carry the shard id of the WAL it lives in (so swapping two shards'
/// devices is detected instead of silently mis-routing their runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total number of shards in the deployment.
    pub shards: u32,
    /// Which shard's WAL this copy lives in (`0..shards`).
    pub shard_id: u32,
    /// Router split points: lower bounds of shards `1..` (empty for a
    /// single shard) — the topology itself, which recovery takes its
    /// router from.
    pub split_keys: Vec<Key>,
    /// [`crate::config::MasmConfig::fingerprint`] of the top-level
    /// configuration the deployment was built with.
    pub config_fingerprint: u64,
}

impl ShardManifest {
    /// Encode as `[magic][version][shards][shard_id][0u64][fp]
    /// [n_splits][splits…][crc32 of all prior bytes]`. The eight zero
    /// bytes once held an SSD region offset; they keep the layout that
    /// logs already on a device were written in.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(38 + 8 * self.split_keys.len());
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.shard_id.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.split_keys.len() as u32).to_le_bytes());
        for k in &self.split_keys {
            out.extend_from_slice(&k.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and CRC-check an encoded manifest.
    pub fn decode(buf: &[u8]) -> MasmResult<ShardManifest> {
        let corrupt = |_| MasmError::Corrupt("manifest truncated");
        let take4 = |pos: usize| -> MasmResult<u32> {
            Ok(u32::from_le_bytes(
                buf.get(pos..pos + 4)
                    .ok_or(MasmError::Corrupt("manifest truncated"))?
                    .try_into()
                    .map_err(corrupt)?,
            ))
        };
        let take8 = |pos: usize| -> MasmResult<u64> {
            Ok(u64::from_le_bytes(
                buf.get(pos..pos + 8)
                    .ok_or(MasmError::Corrupt("manifest truncated"))?
                    .try_into()
                    .map_err(corrupt)?,
            ))
        };
        if buf.len() < 38 {
            return Err(MasmError::Corrupt("manifest truncated"));
        }
        let body_len = buf.len() - 4;
        let stored_crc = take4(body_len)?;
        if crc32(&buf[..body_len]) != stored_crc {
            return Err(MasmError::Corrupt("manifest CRC mismatch"));
        }
        if take4(0)? != MANIFEST_MAGIC {
            return Err(MasmError::Corrupt("manifest magic mismatch"));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().map_err(corrupt)?);
        if version != MANIFEST_VERSION {
            return Err(MasmError::Corrupt("manifest version unsupported"));
        }
        let shards = take4(6)?;
        let shard_id = take4(10)?;
        if take8(14)? != 0 {
            return Err(MasmError::Corrupt("manifest SSD region offset is not zero"));
        }
        let config_fingerprint = take8(22)?;
        let n_splits = take4(30)? as usize;
        if body_len != 34 + 8 * n_splits {
            return Err(MasmError::Corrupt("manifest length mismatch"));
        }
        let mut split_keys = Vec::with_capacity(n_splits);
        for i in 0..n_splits {
            split_keys.push(take8(34 + 8 * i)?);
        }
        Ok(ShardManifest {
            shards,
            shard_id,
            split_keys,
            config_fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            shards: 4,
            shard_id: 2,
            split_keys: vec![100, 5000, 70_000],
            config_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        assert_eq!(ShardManifest::decode(&m.encode()).unwrap(), m);
        let empty = ShardManifest {
            shards: 1,
            shard_id: 0,
            split_keys: vec![],
            config_fingerprint: 7,
        };
        assert_eq!(ShardManifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        bytes[20] ^= 0x40;
        assert!(ShardManifest::decode(&bytes).is_err());
        let short = &sample().encode()[..10];
        assert!(ShardManifest::decode(short).is_err());
        // Truncating from the tail breaks the CRC framing too.
        let enc = sample().encode();
        assert!(ShardManifest::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn a_non_zero_region_offset_is_refused() {
        let mut bytes = sample().encode();
        bytes[14] = 1;
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ShardManifest::decode(&bytes),
            Err(MasmError::Corrupt(_))
        ));
    }
}
