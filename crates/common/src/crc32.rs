//! CRC-32 (IEEE 802.3 polynomial, reflected) for storage-frame integrity.
//!
//! The materialization catalog (`helix-storage`) frames every artifact and
//! every journal record with a CRC so that torn writes or bit rot are
//! detected at load time rather than silently corrupting a reuse decision.
//!
//! Every catalog load checksums the whole artifact before decoding it, so
//! the CRC sits on the read path of each reuse: on an unthrottled disk a
//! byte-at-a-time table loop (≈340 MB/s) cost as much as the decode
//! itself. This implementation uses *slicing-by-16*: sixteen derived
//! 256-entry tables let one step fold 16 input bytes with 16 independent
//! lookups instead of a 16-long dependency chain. The polynomial, initial
//! value and final xor are unchanged, so every checksum — and therefore
//! every stored frame — is bit-identical to the bytewise definition (kept
//! as the test oracle below).

/// Reflected polynomial for CRC-32 (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes. Built at compile
/// time (16 KiB, read-only).
static TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[inline(always)]
fn word(bytes: &[u8; SLICE], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Fold `bytes` into the (pre-inverted) running state.
fn update_state(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(SLICE);
    for c in &mut chunks {
        let c: &[u8; SLICE] = c.try_into().expect("chunks_exact yields SLICE bytes");
        let a = word(c, 0) ^ state;
        let b = word(c, 4);
        let d = word(c, 8);
        let e = word(c, 12);
        state = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a new checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_state(self.state, bytes);
    }

    /// Finish and return the checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one table lookup per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    /// Deterministic, non-repeating test bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_matches_bytewise_oracle_at_every_length_and_alignment() {
        let data = noise(256 + SLICE);
        for start in 0..SLICE {
            for len in 0..=256 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn streaming_split_at_every_point_equals_oneshot() {
        let data = noise(100);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello world, this is helix".to_vec();
        let original = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), original);
    }
}
