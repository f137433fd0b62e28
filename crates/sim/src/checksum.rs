//! Shared checksums for framed transports.
//!
//! The reliable-RMI layer (`osss-vta`) and the native network decode
//! server (`jpeg2000::net`) both frame their payloads with the same
//! CRC-32 trailer; this module is the single implementation both link
//! against, so the simulated transport and the real wire protocol are
//! checked by literally the same code — the refinement story the paper
//! tells for communication, applied to the checksum itself.
//!
//! ## Algorithm
//!
//! [`crc32`] takes one of two routes to the same value.
//!
//! **Carry-less folding** (Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). On
//! x86-64, when the CPU reports both PCLMULQDQ and SSE4.1 at run time
//! and the input is at least 64 bytes, the first 64 bytes load into
//! four 128-bit lanes and each further 64 bytes fold into them: a
//! lane's two 64-bit halves are carry-less multiplied by constants
//! `x^n mod P(x)` that carry them 512 bits ahead, and the products are
//! XORed into the next 16 bytes of the lane. The four lanes then fold
//! into one, which folds 16 bytes per step; a 128 → 64-bit fold and a
//! Barrett reduction leave the 32-bit CRC register, and a tail of
//! under 16 bytes goes through the bytewise table loop below. All
//! constants are bit-reflected, since this CRC is.
//!
//! **Slicing-by-16** (Kounavis & Berry, "A Systematic Approach to
//! Building High Performance Software-based CRC Generators", ISCC
//! 2005) covers every other input and host, aarch64 included, and is
//! the oracle the fold is tested against. A bytewise table CRC
//! advances one byte per lookup, and each lookup depends on the one
//! before it; slicing folds sixteen bytes per step with sixteen
//! *independent* lookups, one per byte position, XORed together, so
//! the CPU overlaps them.
//!
//! The tables are `TABLES[k][i]`, sixteen tables of 256 `u32` entries
//! (16 KiB, built at compile time by a `const fn`). `TABLES[0]` is the
//! classic bytewise table — the CRC of byte `i` alone — and each later
//! table advances the one before it through one more zero byte:
//! `TABLES[k][i] = (TABLES[k-1][i] >> 8) ^ TABLES[0][TABLES[k-1][i] & 0xFF]`.
//! So `TABLES[k][b]` is the contribution of byte `b` followed by `k`
//! further bytes, and byte `j` of a 16-byte block looks up
//! `TABLES[15 - j]`. The running CRC is XORed into the block's first
//! little-endian word; a tail shorter than 16 bytes goes through the
//! bytewise loop.
//!
//! x86's SSE4.2 `crc32` instruction is no shortcut: it computes
//! CRC-32C, a different polynomial. aarch64's CRC32 instructions do
//! compute this one, but that path is not implemented: aarch64 runs
//! slicing-by-16.
//!
//! The fold is a safe `#[target_feature]` function that loads its
//! lanes through `u64::from_le_bytes`, so the call made after feature
//! detection is the only `unsafe` in the workspace.

/// The IEEE 802.3 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step, and the number of tables.
const SLICE: usize = 16;

const fn crc32_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `data`.
///
/// This is the checksum both the reliable-RMI frame trailer and the
/// network decode protocol carry; the receiver recomputes it over the
/// payload and rejects the frame on mismatch. Same algorithm and
/// output as Ethernet/zip, so `crc32(b"123456789") == 0xCBF4_3926`.
/// Computed by carry-less folding where the CPU supports it and the
/// input is at least 64 bytes, and slicing-by-16 otherwise (see the
/// [module docs](self)); both give the same value.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `clmul::crc32` requires only the `pclmulqdq` and
        // `sse4.1` target features, and `available()` has just
        // detected both on this CPU.
        #[allow(unsafe_code)]
        return unsafe { clmul::crc32(data) };
    }
    !sliced(!0, data)
}

/// Advances the CRC register `crc` (the pre- and post-inversion left
/// to the caller) over `data`: sixteen bytes per step, then bytewise
/// over the last `data.len() % 16`.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(SLICE);
    for block in &mut blocks {
        let b: &[u8; SLICE] = block.try_into().expect("chunks_exact yields 16 bytes");
        let w = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The PCLMULQDQ fold. Each constant is `x^n mod P(x)`, bit-reflected
/// and shifted left one bit (a reflected 64 × 33-bit product comes out
/// one bit short); multiplying a 64-bit half by it carries that half
/// `n` bits further along the message.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input folded: its first 64 bytes fill the lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `n = 4·128 + 32` and `4·128 − 32`: a lane's low and high halves
    /// onto the lane 64 bytes on.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `n = 128 + 32` and `128 − 32`: the same, 16 bytes on.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `n = 64`: the low 32 bits of the 96-bit remainder onto the rest.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)` itself and Barrett's `⌊x^64 / P(x)⌋`, both 33 bits.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// CRC-32 of `data`, which holds at least [`MIN_LEN`] bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<64>();
        let (first, blocks) = blocks
            .split_first()
            .expect("the dispatch folds only inputs of at least 64 bytes");
        // The register starts at !0, XORed into the first 32 bits.
        let mut x0 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(-1));
        let mut x1 = load(&first[16..]);
        let mut x2 = load(&first[32..]);
        let mut x3 = load(&first[48..]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            x0 = fold(x0, load(block), k1k2);
            x1 = fold(x1, load(&block[16..]), k1k2);
            x2 = fold(x2, load(&block[32..]), k1k2);
            x3 = fold(x3, load(&block[48..]), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        let (lanes, tail) = rest.as_chunks::<16>();
        for lane in lanes {
            x = fold(x, load(lane), k3k4);
        }
        // 128 → 96 bits (low half times K4 onto the high half), then
        // 96 → 64 (low 32 bits times K5 onto the rest).
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, 64 → 32 bits: the quotient estimate
        // T1 = (x mod x^32)·μ, then T2 = (T1 mod x^32)·P; the reflected
        // remainder is bits 32..64 of x ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        !super::sliced(crc, tail)
    }

    /// Carries lane `a` 64 or 16 bytes on (by the constant pair `k`)
    /// onto lane `b`: `lo(a)·lo(k) ⊕ hi(a)·hi(k) ⊕ b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    }

    /// The first 16 bytes of `bytes` as one little-endian lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8]) -> __m128i {
        let word = |at: usize| {
            let b: [u8; 8] = bytes[at..at + 8].try_into().expect("8-byte range");
            u64::from_le_bytes(b) as i64
        };
        _mm_set_epi64x(word(8), word(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bytewise table loop `crc32` used before slicing: the
    /// reference the sliced loop must agree with on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Values computed outside this code (Python's `zlib.crc32`), long
    /// enough to run whole 16-byte blocks and a tail.
    #[test]
    fn crc32_matches_zlib_on_multi_block_inputs() {
        let counting: Vec<u8> = (0..4).flat_map(|_| 0..=255u8).collect();
        for (what, data, want) in [
            (
                "quick brown fox",
                b"The quick brown fox jumps over the lazy dog".to_vec(),
                0x414F_A339,
            ),
            ("32 x 0x00", vec![0x00; 32], 0x190A_55AD),
            ("32 x 0xFF", vec![0xFF; 32], 0xFF6C_AB0B),
            ("0..=255, four times", counting, 0xB70B_4C26),
        ] {
            assert_eq!(crc32(&data), want, "{what}");
        }
    }

    /// Every length from empty to past eighteen blocks, at every
    /// alignment a block boundary can fall on.
    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_bytes(0x4352_4333, 300 + SLICE);
        for offset in 0..SLICE {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_random_slices_up_to_256_kib() {
        let buf = seeded_bytes(0x5349_4345, 256 << 10);
        let mut rng = StdRng::seed_from_u64(0x736C_6963);
        for _ in 0..64 {
            let start = rng.gen_range(0..buf.len());
            let len = rng.gen_range(0..=buf.len() - start);
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "{start}+{len}");
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "the whole 256 KiB");
    }

    /// The slicing loop alone, which `crc32` bypasses on inputs the
    /// fold takes.
    fn crc32_sliced(data: &[u8]) -> u32 {
        !sliced(!0, data)
    }

    /// Whether `crc32` folds on this host; says so when it cannot, so
    /// a skipped fold test is visible with `--nocapture`.
    fn fold_is_taken() -> bool {
        #[cfg(target_arch = "x86_64")]
        let taken = clmul::available();
        #[cfg(not(target_arch = "x86_64"))]
        let taken = false;
        if !taken {
            println!("note: no PCLMULQDQ + SSE4.1 here, so crc32 never folds; fold test skipped");
        }
        taken
    }

    #[test]
    fn slicing_loop_matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_bytes(0x534C_4943, 300 + SLICE);
        for offset in 0..SLICE {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32_sliced(data),
                    crc32_bytewise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    /// Every length to 4096 crosses each 64-byte step and 16-byte lane
    /// boundary, with every tail length, at every alignment.
    #[test]
    fn fold_matches_slicing_at_every_length_and_offset() {
        if !fold_is_taken() {
            return;
        }
        let buf = seeded_bytes(0x464F_4C44, 4096 + SLICE);
        for offset in 0..SLICE {
            for len in 0..=4096 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_sliced(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn fold_matches_slicing_on_random_slices_up_to_256_kib() {
        if !fold_is_taken() {
            return;
        }
        let buf = seeded_bytes(0x434C_4D55, 256 << 10);
        let mut rng = StdRng::seed_from_u64(0x666F_6C64);
        for _ in 0..64 {
            let start = rng.gen_range(0..buf.len());
            let len = rng.gen_range(0..=buf.len() - start);
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_sliced(data), "{start}+{len}");
        }
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let data: Vec<u8> = (0u32..64).map(|i| (i * 37 % 251) as u8).collect();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
