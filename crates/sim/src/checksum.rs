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
//! [`crc32`] is table-driven *slicing-by-16* (Kounavis & Berry, "A
//! Systematic Approach to Building High Performance Software-based CRC
//! Generators", ISCC 2005). A bytewise table CRC advances one byte per
//! lookup, and each lookup depends on the one before it; slicing folds
//! sixteen bytes per step with sixteen *independent* lookups, one per
//! byte position, XORed together, so the CPU overlaps them.
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
//! There is deliberately no hardware path. x86's SSE4.2 `crc32`
//! instruction computes CRC-32C, a different polynomial; the fast
//! route to this one is PCLMULQDQ carry-less-multiply folding, which
//! needs `unsafe` `std::arch` code, runtime feature detection and this
//! portable loop kept beside it as the fallback. One safe algorithm
//! runs everywhere the simulated transport does.

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
/// Computed slicing-by-16 (see the [module docs](self)): sixteen
/// bytes per step, then bytewise over the last `data.len() % 16`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
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
    !crc
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
