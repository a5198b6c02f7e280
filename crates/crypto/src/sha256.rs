//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The Banyan paper assumes collision-resistant hash functions for block
//! identities and vote payloads (§3). This module provides the primitive
//! without pulling an external dependency; it is validated against the
//! official NIST test vectors in the unit tests below.
//!
//! Both a one-shot convenience function ([`sha256`]) and an incremental
//! hasher ([`Sha256`]) are provided. The incremental form is used by the
//! wire codec to hash blocks without materializing a contiguous buffer.
//!
//! The compression function has two kernels — the x86-64 SHA extensions
//! where the CPU has them, portable scalar rounds everywhere else — chosen
//! by run-time detection in the private `kernel` module. Nothing selects a
//! kernel by hand: [`kernel_name`] reports the choice, and
//! [`Sha256::portable`] exists so tests and `crypto_microbench` can hold
//! the hardware kernel against the portable one.

mod kernel;

use kernel::Kernel;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 block size in bytes (also the HMAC block size).
pub const BLOCK_LEN: usize = 64;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use banyan_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (drives the length suffix in padding).
    len: u64,
    /// Partially filled block.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest kernel this CPU supports.
    pub fn new() -> Self {
        Self::on(Kernel::detect())
    }

    /// A fresh hasher pinned to the portable kernel, whatever the CPU
    /// offers. Digests are identical to [`Sha256::new`]'s; this is the
    /// reference side of kernel comparisons (tests, `crypto_microbench`),
    /// not a switch.
    pub fn portable() -> Self {
        Self::on(Kernel::PORTABLE)
    }

    fn on(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            kernel,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        self.len = self.len.wrapping_add(data.len() as u64);

        // Fill a partial block first, if any.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            self.compress_buf();
        }

        // Every whole block in one kernel call, straight from the input.
        let (blocks, tail) = input.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            self.kernel.compress_blocks(&mut self.state, blocks);
        }

        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);

        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.buf[self.buf_len] = 0x80;
        let mut i = self.buf_len + 1;
        if i > BLOCK_LEN - 8 {
            for b in self.buf[i..].iter_mut() {
                *b = 0;
            }
            self.compress_buf();
            i = 0;
        }
        for b in self.buf[i..BLOCK_LEN - 8].iter_mut() {
            *b = 0;
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_buf();

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses the (full) staging block.
    fn compress_buf(&mut self) {
        self.kernel
            .compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
        self.buf_len = 0;
    }
}

/// Name of the compression kernel [`Sha256::new`] selected on this CPU:
/// `"sha-ni"` or `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = banyan_crypto::sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices, without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every vector below runs once per entry: the kernel the CPU selected
    /// and the portable one (the same kernel twice on a host without a
    /// hardware kernel), so the portable path keeps its full-hash coverage
    /// on machines that never dispatch to it.
    const KERNELS: [(&str, Fresh); 2] =
        [("dispatched", Sha256::new), ("portable", Sha256::portable)];
    type Fresh = fn() -> Sha256;

    fn digest(fresh: Fresh, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = fresh();
        h.update(data);
        h.finalize()
    }

    /// NIST FIPS 180-4 / de-facto standard test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(hex(&sha256(input)), *expect, "input: {input:?}");
            for (kernel, fresh) in KERNELS {
                assert_eq!(hex(&digest(fresh, input)), *expect, "{kernel}: {input:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        for (kernel, fresh) in KERNELS {
            let mut h = fresh();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for (kernel, fresh) in KERNELS {
            for split in 0..=data.len() {
                let mut h = fresh();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), whole, "{kernel}: split at {split}");
            }
        }
    }

    #[test]
    fn concat_matches_single_buffer() {
        let a = b"hello ".as_slice();
        let b = b"banyan ".as_slice();
        let c = b"world".as_slice();
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&joined));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries all
        // differ, hash deterministically, and agree across kernels.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d = sha256(&data);
            for (kernel, fresh) in KERNELS {
                assert_eq!(digest(fresh, &data), d, "{kernel}: length {len}");
            }
            assert!(seen.insert(d), "collision at length {len}");
        }
    }
}
