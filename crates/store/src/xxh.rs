//! XXH64-style checksums for store sections.
//!
//! The store cannot add a hashing dependency (the build environment is
//! offline), so the 64-bit xxHash mixing function is implemented here from
//! the public specification: four parallel 8-byte accumulator lanes over
//! 32-byte stripes, a lane merge, tail handling for the last `len % 32`
//! bytes, and a final avalanche. It is used purely as an integrity
//! checksum — collisions need only be overwhelmingly unlikely under random
//! corruption, which any avalanching 64-bit mix provides.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline]
fn merge_round(h: u64, v: u64) -> u64 {
    (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte read"))
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4-byte read"))
}

/// An XXH64 hash fed in pieces: [`Xxh64::update`] any number of times,
/// then [`Xxh64::digest`]. The digest depends only on the concatenated
/// bytes, not on how they were split, so the store can checksum a section
/// while it streams it out.
#[derive(Debug)]
pub(crate) struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// Bytes of a stripe not yet folded into the lanes.
    stripe: [u8; 32],
    buffered: usize,
    total: u64,
}

impl Xxh64 {
    /// An empty hash under `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            stripe: [0; 32],
            buffered: 0,
            total: 0,
        }
    }

    fn fold(&mut self, stripe: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = round(*lane, read_u64(&stripe[8 * i..]));
        }
    }

    /// Append `data` to the hashed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.buffered > 0 {
            let take = data.len().min(32 - self.buffered);
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 32 {
                return;
            }
            let stripe = self.stripe;
            self.fold(&stripe);
            self.buffered = 0;
        }
        while data.len() >= 32 {
            self.fold(&data[..32]);
            data = &data[32..];
        }
        self.stripe[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    /// The hash of every byte passed to [`Xxh64::update`] so far.
    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.lanes {
                h = merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.stripe[..self.buffered];
        while rest.len() >= 8 {
            h ^= round(0, read_u64(rest));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            h ^= u64::from(read_u32(rest)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h
    }
}

/// The XXH64 hash of `data` under `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(data);
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_empty_input() {
        // The canonical XXH64 test vector for the empty input, seed 0.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn every_byte_position_matters() {
        // Flip one byte at each position of a buffer spanning all code
        // paths (stripes + 8/4/1-byte tails) and require a different hash.
        let base: Vec<u8> = (0..77u8).collect();
        let h0 = xxh64(&base, 7);
        for i in 0..base.len() {
            let mut corrupted = base.clone();
            corrupted[i] ^= 0x40;
            assert_ne!(xxh64(&corrupted, 7), h0, "byte {i} did not affect the hash");
        }
    }

    /// A hash fed in pieces equals the one-shot hash of the same bytes,
    /// wherever the pieces split the stripes and tails.
    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 31, 32, 33, 64, 77, 200] {
            let want = xxh64(&data[..len], 9);
            for piece in 1..=40 {
                let mut h = Xxh64::new(9);
                for chunk in data[..len].chunks(piece) {
                    h.update(chunk);
                }
                assert_eq!(h.digest(), want, "{len} bytes in pieces of {piece}");
            }
        }
    }

    #[test]
    fn seed_and_length_matter() {
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abcd", 0));
        assert_ne!(xxh64(&[0u8; 31], 0), xxh64(&[0u8; 32], 0));
    }
}
