//! Every hash whose value reaches an artifact, a pinned constant, a
//! training seed or an ordering: fixed functions of named bytes, so a pin
//! holds on every toolchain and host (DESIGN §7.3 "Digests").
//!
//! [`Fingerprint`] is SipHash-1-3 under the zero key — what std's default
//! hasher computes — over the byte stream std's `Hash` impls feed it, so
//! every digest pinned before this module existed kept its value. It has
//! no `Hasher` impl on purpose: a caller names each field's encoding, and
//! no std `Hash` impl (free to change) sits between a field and its bytes.

/// SipHash-1-3 under the zero key over explicitly encoded fields.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    v: [u64; 4],
    /// Bytes absorbed but not yet compressed: the low `ntail`, little-endian.
    tail: u64,
    ntail: u32,
    /// Bytes absorbed; the low byte enters the final block.
    len: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The empty fingerprint.
    pub const fn new() -> Self {
        let v = [0x736f6d6570736575, 0x646f72616e646f6d, 0x6c7967656e657261, 0x7465646279746573];
        Self { v, tail: 0, ntail: 0, len: 0 }
    }

    /// Absorbs `x` as 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.absorb(x, 8)
    }

    /// Absorbs `x` as a `u64`.
    #[inline]
    pub fn usize(&mut self, x: usize) -> &mut Self {
        self.u64(x as u64)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn u8(&mut self, x: u8) -> &mut Self {
        self.absorb(u64::from(x), 1)
    }

    /// Absorbs the bytes of `s`, then `0xff` (which no UTF-8 string
    /// contains), so consecutive strings cannot run together.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word), chunk.len() as u32);
        }
        self.u8(0xff)
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut v = self.v;
        compress(&mut v, (self.len << 56) | self.tail);
        v[2] ^= 0xff;
        (0..3).for_each(|_| sip_round(&mut v));
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    /// Shift-merges the low `n` (1..=8) bytes of `x` into the pending
    /// tail, compressing the word it completes.
    #[inline]
    fn absorb(&mut self, x: u64, n: u32) -> &mut Self {
        self.len = self.len.wrapping_add(u64::from(n));
        let t = self.ntail;
        self.tail |= x << (8 * t);
        if t + n < 8 {
            self.ntail = t + n;
            return self;
        }
        compress(&mut self.v, self.tail);
        self.ntail = t + n - 8;
        self.tail = if t == 0 { 0 } else { x >> (8 * (8 - t)) };
        self
    }
}

#[inline]
fn compress(v: &mut [u64; 4], word: u64) {
    v[3] ^= word;
    sip_round(v);
    v[0] ^= word;
}

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit fingerprint of a report's `Debug` rendering (which prints
/// floats round-trip exactly) — the `bits()` of every harness report:
/// two runs are "the same" iff their bits agree. The rendering is the one
/// input here a toolchain may still change.
pub fn debug_bits(report: &impl std::fmt::Debug) -> u64 {
    Fingerprint::new().str(&format!("{report:?}")).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `Fingerprint`s were computed with std's default hasher on
    /// rustc 1.95, the FNV-1a with the loop `health` used before.
    #[test]
    fn digests_are_pinned() {
        let hex = |x: u64| format!("{x:016x}");
        assert_eq!(hex(Fingerprint::new().finish()), "d1fba762150c532c");
        assert_eq!(hex(Fingerprint::new().str("ml4db").finish()), "e45121f33889b91a");
        assert_eq!(hex(Fingerprint::new().u64(0x0123_4567_89ab_cdef).finish()), "8662046e52264db8");
        assert_eq!(hex(fnv1a(b"ml4db")), "89d12b7c62c09f42");
    }

    proptest! {
        /// A `u64` absorbed at any tail fill is its 8 little-endian bytes.
        #[test]
        fn u64_is_its_le_bytes_at_every_tail_fill(
            prefix in proptest::collection::vec(0u8..=255, 7),
            x in 0u64..u64::MAX,
        ) {
            for k in 0..8 {
                let (mut word, mut bytes) = (Fingerprint::new(), Fingerprint::new());
                for &b in &prefix[..k] {
                    word.u8(b);
                    bytes.u8(b);
                }
                word.u64(x);
                for b in x.to_le_bytes() {
                    bytes.u8(b);
                }
                prop_assert_eq!(word.finish(), bytes.finish(), "tail fill {}", k);
            }
        }
    }
}
