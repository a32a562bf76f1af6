//! Multi-tenant key generation: composite `(tenant_id, local_key)` keys
//! packed into one `u64`, with zipfian tenant skew.
//!
//! A SaaS-style warehouse interleaves many tenants' updates in one
//! table, with keyspace locality *per tenant*: tenant `t`'s rows live in
//! the contiguous block `[t << TENANT_SHIFT, (t+1) << TENANT_SHIFT)`.
//! That layout is exactly what key-range sharding exploits — a sampled
//! [`masm_core::ShardRouter`] learns split points between tenant blocks
//! and hot tenants spread across shards in proportion to their sample
//! mass — and exactly what stresses it: a zipfian tenant distribution
//! concentrates load, which the `shard_imbalance` gauge quantifies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use masm_pagestore::Key;

use crate::zipf::Zipf;

/// Bits reserved for the per-tenant local key: tenant id occupies the
/// high `64 - TENANT_SHIFT` bits, so tenants sort contiguously.
pub const TENANT_SHIFT: u32 = 40;

/// Pack a `(tenant, local)` pair into one routable key. `local` must
/// fit in [`TENANT_SHIFT`] bits.
#[must_use]
pub fn compose_key(tenant: u64, local: u64) -> Key {
    debug_assert!(
        local < (1u64 << TENANT_SHIFT),
        "local key overflows tenant block"
    );
    (tenant << TENANT_SHIFT) | local
}

/// Split a composite key back into `(tenant, local)`.
#[must_use]
pub fn split_key(key: Key) -> (u64, u64) {
    (key >> TENANT_SHIFT, key & ((1u64 << TENANT_SHIFT) - 1))
}

/// An endless stream of composite keys: tenants drawn Zipf(θ) (tenant 0
/// hottest), local keys uniform within each tenant's space.
#[derive(Debug, Clone)]
pub struct MultiTenantKeyGen {
    tenants: Zipf,
    keys_per_tenant: u64,
    rng: StdRng,
}

impl MultiTenantKeyGen {
    /// `tenants` tenants with `keys_per_tenant` local keys each, tenant
    /// popularity Zipf(`theta`), deterministic under `seed`.
    #[must_use]
    pub fn new(tenants: u64, keys_per_tenant: u64, theta: f64, seed: u64) -> Self {
        assert!(tenants > 0 && keys_per_tenant > 0);
        assert!(
            keys_per_tenant <= (1u64 << TENANT_SHIFT),
            "keys_per_tenant overflows the tenant block"
        );
        MultiTenantKeyGen {
            tenants: Zipf::new(tenants, theta),
            keys_per_tenant,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw the next composite key.
    pub fn next_key(&mut self) -> Key {
        let tenant = self.tenants.sample(&mut self.rng) - 1;
        let local = self.rng.gen_range(0..self.keys_per_tenant);
        compose_key(tenant, local)
    }
}

impl Iterator for MultiTenantKeyGen {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        Some(self.next_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_split_roundtrip() {
        for (t, l) in [(0, 0), (1, 1), (63, (1 << TENANT_SHIFT) - 1), (1 << 20, 42)] {
            assert_eq!(split_key(compose_key(t, l)), (t, l));
        }
        // Tenant blocks are contiguous and ordered.
        assert!(compose_key(2, (1 << TENANT_SHIFT) - 1) < compose_key(3, 0));
    }

    #[test]
    fn generator_is_deterministic_and_skewed() {
        let a: Vec<Key> = MultiTenantKeyGen::new(64, 1 << 16, 0.8, 7)
            .take(5000)
            .collect();
        let b: Vec<Key> = MultiTenantKeyGen::new(64, 1 << 16, 0.8, 7)
            .take(5000)
            .collect();
        assert_eq!(a, b);
        // Zipf(0.8): the head tenants dominate (Gray's sampler makes
        // ranks 1 and 2 near-equiprobable, so compare head vs tail).
        let mut counts = vec![0usize; 64];
        for &k in &a {
            counts[split_key(k).0 as usize] += 1;
        }
        assert!(counts[0] > a.len() / 10, "{counts:?}");
        let head: usize = counts[..4].iter().sum();
        let tail: usize = counts[32..].iter().sum();
        // Per-tenant mass: the 4 head tenants each carry ≥ 8× what a
        // tail tenant does.
        assert!(
            head * 32 > 8 * 4 * tail,
            "head {head} vs tail {tail}: {counts:?}"
        );
        // Every key stays inside its tenant's local space.
        assert!(a.iter().all(|&k| split_key(k).1 < (1 << 16)));
    }
}
