//! The SHA-256 compression kernels and the one place that picks between
//! them.
//!
//! Two kernels compute the same function — FIPS 180-4 §6.2.2 over a run
//! of whole 64-byte blocks:
//!
//! * **portable** — the scalar rounds. The only path on every CPU without
//!   the x86-64 SHA extensions, and the oracle the tests compare the
//!   other kernel against.
//! * **sha-ni** — the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//!   `sha256msg2`), compiled on x86-64 only and entered only after
//!   `is_x86_feature_detected!` has seen every feature it uses.
//!
//! This module holds all of the workspace's `unsafe` but one FFI call
//! (the TCP replica loop's `ppoll` wrapper in `banyan-transport`). A
//! [`Kernel`] can
//! only be obtained through [`Kernel::detect`] or [`Kernel::PORTABLE`]
//! (its field is private), so holding the hardware variant is proof that
//! detection succeeded — which is what the dispatching call relies on.

use super::BLOCK_LEN;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A compression kernel this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Kernel(Imp);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Imp {
    Portable,
    /// Constructed by [`Kernel::detect`] alone, after detection.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The scalar rounds: runnable everywhere.
    pub(super) const PORTABLE: Kernel = Kernel(Imp::Portable);

    /// The fastest kernel this CPU supports — the workspace's one
    /// dispatch point. The standard library caches the CPUID probe, so a
    /// call costs a few relaxed loads; an aarch64 (`sha2`) kernel would be
    /// selected here.
    pub(super) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel(Imp::ShaNi);
        }
        Kernel::PORTABLE
    }

    pub(super) fn name(self) -> &'static str {
        match self.0 {
            Imp::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Imp::ShaNi => "sha-ni",
        }
    }

    /// Folds `blocks`, in order, into `state`.
    pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        match self.0 {
            Imp::Portable => compress_blocks_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Imp::ShaNi => {
                // SAFETY: `Imp::ShaNi` is constructed only in `detect`, after
                // `is_x86_feature_detected!` reported `sha`, `sse2`, `ssse3`
                // and `sse4.1` — every feature `compress_blocks_shani` enables.
                unsafe { compress_blocks_shani(state, blocks) }
            }
        }
    }
}

fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-extensions kernel. Four rounds per `sha256rnds2` pair; the
/// message schedule runs four words at a time through
/// `sha256msg1`/`sha256msg2`. The instructions want the state as the
/// register pair (ABEF, CDGH), so the words are permuted once on the way
/// in and once on the way out, not per block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    use core::arch::x86_64::*;

    let (abcd, efgh) = state.split_at_mut(4);
    // SAFETY: each half of the 8-word state is 16 readable bytes;
    // `_mm_loadu_si128` has no alignment requirement.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(abcd.as_ptr().cast()),
            _mm_loadu_si128(efgh.as_ptr().cast()),
        )
    };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh_v = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh_v);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh_v, cdab);

    // Big-endian message words out of little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The schedule's sliding window: `w[i % 4]` holds words
        // `4i..4i + 4` while group `i` runs.
        let mut w = [_mm_setzero_si128(); 4];
        for i in 0..16 {
            w[i % 4] = if i < 4 {
                let quarter: &[u8; 16] = &block.as_chunks::<16>().0[i];
                // SAFETY: `quarter` is 16 readable bytes; `_mm_loadu_si128`
                // has no alignment requirement.
                let le = unsafe { _mm_loadu_si128(quarter.as_ptr().cast()) };
                _mm_shuffle_epi8(le, byte_swap)
            } else {
                let (w4, w3, w2, w1) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8::<4>(w1, w2));
                _mm_sha256msg2_epu32(partial, w1)
            };
            let k = _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            );
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: each half of the 8-word state is 16 writable bytes;
    // `_mm_storeu_si128` has no alignment requirement.
    unsafe {
        _mm_storeu_si128(abcd.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(efgh.as_mut_ptr().cast(), hgfe);
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn detection_follows_the_cpu() {
        let sha = is_x86_feature_detected!("sha");
        assert_eq!(Kernel::detect() != Kernel::PORTABLE, sha);
        assert_eq!(
            Kernel::detect().name(),
            if sha { "sha-ni" } else { "portable" }
        );
        assert_eq!(Kernel::PORTABLE.name(), "portable");
    }

    /// The hardware kernel against the portable oracle: arbitrary starting
    /// states, 0..=20 blocks, and the input starting at every byte offset
    /// 0..16 of a larger buffer, so the 16-byte loads run at every
    /// misalignment.
    #[test]
    fn hardware_kernel_matches_portable() {
        let hardware = Kernel::detect();
        if hardware == Kernel::PORTABLE {
            eprintln!("skipped: no hardware SHA-256 kernel on this CPU");
            return;
        }
        const MAX_BLOCKS: usize = 20;
        // A fixed pseudo-random stream (Knuth's 64-bit LCG, high half).
        let mut x = 17u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 32) as u32
        };
        let buf: Vec<u8> = (0..MAX_BLOCKS * BLOCK_LEN + 16)
            .map(|_| next() as u8)
            .collect();
        for offset in 0..16 {
            for n in 0..=MAX_BLOCKS {
                let (blocks, _) = buf[offset..offset + n * BLOCK_LEN].as_chunks::<BLOCK_LEN>();
                let start: [u32; 8] = std::array::from_fn(|_| next());
                let (mut fast, mut oracle) = (start, start);
                hardware.compress_blocks(&mut fast, blocks);
                Kernel::PORTABLE.compress_blocks(&mut oracle, blocks);
                assert_eq!(fast, oracle, "{n} blocks at byte offset {offset}");
            }
        }
    }
}
