//! CRC-32 (IEEE 802.3 polynomial), table-driven, std-only.
//!
//! Guards every persisted byte: the checkpoint envelope carries one CRC over
//! its payload, and each journal record carries its own, so a flipped bit or
//! a torn write is detected before any state is trusted. `cqm-serve` puts
//! the same checksum on every wire frame.
//!
//! [`Crc32::update`] runs slicing-by-16: sixteen 256-entry tables, built at
//! compile time, fold 16 input bytes into the state with 16 independent
//! lookups where the byte-at-a-time loop makes 16 dependent ones. That loop
//! is kept for tails shorter than 16 bytes. Both compute the same state for
//! the same bytes, so every checksum already written stays valid. The x86
//! `crc32` instruction is no substitute (it computes CRC-32C, a different
//! polynomial), and carry-less-multiply folding needs `unsafe` intrinsics,
//! which this workspace denies.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the state that
/// byte `b` leaves once `k` zero bytes have followed it.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        // lint: allow(PANIC_IN_LIB) -- const fn cannot use iterators; the `i < 256` bound matches the table length
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // lint: allow(PANIC_IN_LIB) -- const fn cannot use iterators; `i < 256` and `1 <= k < 16` match the table shape
            let prev = tables[k - 1][i];
            // lint: allow(PANIC_IN_LIB) -- const fn cannot use iterators; `i < 256` and `1 <= k < 16` match the table shape
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// The byte-at-a-time update: one dependent table lookup per byte.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = TABLES[0][usize::from((state ^ u32::from(b)) as u8)] ^ (state >> 8);
    }
    state
}

/// Fold 16 bytes into `state` at once. The state is xored into the first
/// four bytes; byte `j` then contributes its own effect carried through the
/// `15 - j` bytes after it, `TABLES[15 - j]`.
fn update_block(state: u32, block: &[u8; 16]) -> u32 {
    let mut bytes = *block;
    for (b, s) in bytes.iter_mut().zip(state.to_le_bytes()) {
        *b ^= s;
    }
    bytes
        .iter()
        .zip(TABLES.iter().rev())
        .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)])
}

/// Incremental CRC-32 state, for checksumming discontiguous fields without
/// concatenating them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
        let mut rest = data;
        while let Some((block, tail)) = rest.split_first_chunk::<16>() {
            state = update_block(state, block);
            rest = tail;
        }
        self.state = update_bytewise(state, rest);
    }

    /// Finish and produce the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of `data` (IEEE, init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Crc32::new();
        h.update(b"123");
        h.update(b"456");
        h.update(b"789");
        assert_eq!(h.finalize(), crc32(b"123456789"));
        assert_eq!(Crc32::default().finalize(), crc32(b""));
    }

    /// Deterministic bytes with every value represented.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    fn reference(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_update_matches_the_byte_loop_at_every_split() {
        let data = noise(48);
        for len in 0..=data.len() {
            let whole = &data[..len];
            let expected = reference(whole);
            for split in 0..=len {
                let (head, tail) = whole.split_at(split);
                let mut h = Crc32::new();
                h.update(head);
                h.update(tail);
                assert_eq!(h.finalize(), expected, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn sliced_update_matches_the_byte_loop_on_a_large_buffer() {
        let data = noise(1 << 20);
        assert_eq!(crc32(&data), reference(&data));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"checkpoint payload");
        let mut corrupted = b"checkpoint payload".to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }
}
