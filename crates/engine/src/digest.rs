//! A tiny, dependency-free content digest (FNV-1a, 64-bit) used to compare
//! two engines' canonical state across a crash/replay boundary. Not
//! cryptographic — it guards against *accidental* divergence (a torn
//! journal, a non-deterministic replay), which is the WAL threat model
//! here; byte-identity proper is asserted structurally by the tests.
//! `hsched-net` digests the journal prefix a resuming follower offers with
//! the same function — one definition for both.

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a_64_extend(OFFSET, bytes)
}

/// Continues a 64-bit FNV-1a digest over the next chunk of a byte string
/// read piecewise: start from `fnv1a_64(b"")` and fold each chunk in.
pub fn fnv1a_64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv1a_64(b"state A"), fnv1a_64(b"state B"));
        assert_eq!(
            fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"),
            fnv1a_64(b"foobar")
        );
    }
}
