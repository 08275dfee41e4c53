//! CRC-64/XZ (ECMA-182 polynomial, reflected, `init = xorout = !0`) —
//! the frame checksum of the journal wire format. Hand-rolled because
//! the build environment vendors no checksum crate. Every frame is
//! checksummed on write and on each read, and a stream frame — a
//! 256-event chunk — twice each way (the frame CRC plus the chunk's own
//! digest), so this loop is a large share of replay cost. It folds
//! eight bytes per step through eight derived tables (slicing-by-8)
//! and finishes the tail a byte at a time; the values are exactly the
//! byte-at-a-time CRC's.

/// Reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

const fn make_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[k][b]` is the CRC register contribution of byte `b` followed
/// by `k` zero bytes; `TABLES[0]` is the classic byte-at-a-time table.
const fn make_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    tables[0] = make_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u64; 256]; 8] = make_tables();

/// CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        let x = crc ^ u64::from_le_bytes(word);
        crc = TABLES[7][(x & 0xFF) as usize]
            ^ TABLES[6][((x >> 8) & 0xFF) as usize]
            ^ TABLES[5][((x >> 16) & 0xFF) as usize]
            ^ TABLES[4][((x >> 24) & 0xFF) as usize]
            ^ TABLES[3][((x >> 32) & 0xFF) as usize]
            ^ TABLES[2][((x >> 40) & 0xFF) as usize]
            ^ TABLES[1][((x >> 48) & 0xFF) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced loop must reproduce.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let table = make_table();
        let mut crc = !0u64;
        for &b in bytes {
            crc = table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn matches_the_crc64_xz_check_value() {
        // The catalogued check value of CRC-64/XZ over "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn sliced_loop_equals_the_bytewise_reference() {
        // Seeded LCG buffer; every length 0..=256 at every alignment
        // offset 0..8 covers each tail length and word phase.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..8 + 256)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=256 {
                let s = &buf[start..start + len];
                assert_eq!(crc64(s), crc64_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc64(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc64(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_input_is_stable() {
        assert_eq!(crc64(b""), 0);
    }
}
