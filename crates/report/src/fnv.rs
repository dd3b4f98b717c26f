//! FNV-1a (64-bit): the one hash behind dependency fingerprints, the disk
//! cache's digests and code fingerprint, and the resident cache's shard
//! index. `cc-engine`'s build script includes this file by path to hash
//! the source tree, so it names no `crate::` item.

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
#[inline]
#[must_use]
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
