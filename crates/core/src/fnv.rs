//! The workspace's one FNV-1a — content addresses, file checksums and
//! trace signatures all fold bytes through this hasher — and its one
//! SplitMix64, the stateless mixer behind every seeded stream.

use std::io;

/// 64-bit FNV-1a of the bytes fed to it, directly or as an `io::Write`
/// (so a serializer can hash what it writes without keeping the text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Hash of one byte slice.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(bytes);
        h.finish()
    }

    /// Fold `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    /// Fold one word in, as its eight little-endian bytes.
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Fold one word in whole — one xor-multiply round, not eight. A
    /// different hash from [`Fnv1a::eat_u64`]'s: content addresses of
    /// records that are mostly words use it to stay cheap.
    #[inline]
    pub fn mix(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100000001b3);
    }

    /// The hash of everything eaten so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.eat(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// SplitMix64's state increment (2^64 over the golden ratio).
pub const SPLITMIX64_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's output function alone, for streams that advance or key
/// their own state.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: stateless, high-quality mixing of
/// an identifier into 64 unrelated bits.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(SPLITMIX64_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn matches_the_published_vectors_however_the_bytes_arrive() {
        // Reference values from the FNV specification's test suite.
        assert_eq!(Fnv1a::of(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv1a::of(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a::of(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a::new();
        h.write_all(b"foo").unwrap();
        h.eat(b"bar");
        assert_eq!(h.finish(), Fnv1a::of(b"foobar"));
        let mut w = Fnv1a::new();
        w.eat_u64(0x0807060504030201);
        assert_eq!(w.finish(), Fnv1a::of(&[1, 2, 3, 4, 5, 6, 7, 8]));
        // A word below 256 mixes like the byte it is.
        let mut m = Fnv1a::new();
        m.mix(b'a' as u64);
        assert_eq!(m.finish(), Fnv1a::of(b"a"));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream_from_seed_zero() {
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(SPLITMIX64_GAMMA), 0x6E789E6AA1B965F4);
        assert_eq!(mix64(SPLITMIX64_GAMMA.wrapping_mul(3)), 0x06C45D188009454F);
    }
}
