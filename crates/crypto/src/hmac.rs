//! HMAC-SHA-256 (RFC 2104), built on the local [`crate::sha256`] module.
//!
//! Used by the [`crate::hashsig`] signature scheme and by deterministic
//! nonce derivation in [`crate::schnorr`]. Validated against RFC 4231 test
//! vectors.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte SHA-256 block are hashed first, per RFC 2104.
///
/// # Examples
///
/// ```
/// let tag = banyan_crypto::hmac::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash with the outer-pad key block already absorbed; takes
    /// the inner digest at finalization.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::new())
    }

    /// Keys a MAC whose every hash starts from a copy of `fresh` (an empty
    /// hasher), so the whole construction runs on that hasher's kernel.
    fn keyed(key: &[u8], fresh: Sha256) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            key_block[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = fresh.clone();
        inner.update(&ipad);
        let mut outer = fresh;
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Constant-time equality check for fixed-size tags.
///
/// Avoids early-exit timing leaks when comparing MACs or signatures.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test cases 1, 2, 3, 6 (covering short keys, long keys),
    /// on the dispatched kernel and on the portable one.
    #[test]
    fn rfc4231_vectors() {
        let cases: &[(&[u8], &[u8], &str)] = &[
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // Case 6: key larger than block size
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, expect) in cases {
            assert_eq!(hex(&hmac_sha256(key, msg)), *expect);
            for fresh in [Sha256::new, Sha256::portable] {
                let mut mac = HmacSha256::keyed(key, fresh());
                mac.update(msg);
                assert_eq!(hex(&mac.finalize()), *expect);
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"round-key";
        let msg = b"the quick brown fox jumps over the lazy dog";
        let mut mac = HmacSha256::new(key);
        mac.update(&msg[..10]);
        mac.update(&msg[10..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
