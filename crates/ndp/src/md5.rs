//! MD5 message digest (RFC 1321).
//!
//! MD5 is the integrity check OpenStack Swift, Amazon S3, and Azure Blob
//! perform on every object (Table II of the paper), and the hash the
//! SSD→Processing→NIC microbenchmark of Figure 11b computes.

/// Per-round shift amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// `K[i] = floor(2^32 * |sin(i + 1)|`, precomputed as the RFC specifies.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 state.
///
/// ```
/// use dcs_ndp::md5::Md5;
/// let mut h = Md5::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(dcs_ndp::to_hex(&h.finalize()), "5eb63bbbe01eeed093cb22bb8f5acdc3");
/// ```
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// Digest length in bytes.
    pub const DIGEST_LEN: usize = 16;

    /// A fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more message bytes. Whole 64-byte blocks are compressed
    /// straight from `data`; only a partial block is buffered.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() & !63;
        compress_blocks(&mut self.state, &data[..whole]);
        let rem = &data[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Completes the hash, returning the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, then the bit
        // length — written in place, spilling into a second block only
        // when fewer than 9 bytes of the current one are free.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress_blocks(&mut self.state, &self.buf);
        let mut out = [0u8; 16];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Initial chaining value (RFC 1321 §3.3).
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// One MD5 step: `a = b + ((a + f + k + m) <<< s)`.
macro_rules! step {
    ($f:expr, $a:ident, $b:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($f)
                .wrapping_add($k)
                .wrapping_add($m)
                .rotate_left($s),
        )
    };
}

/// Compresses every 64-byte block of `blocks` (whose length must be a
/// multiple of 64) into `state`, reading the message words straight from
/// the slice. The 64 steps are fully unrolled with the round functions in
/// their two-operation forms.
fn compress_blocks(state: &mut [u32; 4], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    let [mut a0, mut b0, mut c0, mut d0] = *state;
    for block in blocks.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        // Round 1: F(b, c, d) = (b & c) | (!b & d) = d ^ (b & (c ^ d)).
        macro_rules! r1 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                step!($d ^ ($b & ($c ^ $d)), $a, $b, m[$i], K[$i], S[$i])
            };
        }
        r1!(a, b, c, d, 0);
        r1!(d, a, b, c, 1);
        r1!(c, d, a, b, 2);
        r1!(b, c, d, a, 3);
        r1!(a, b, c, d, 4);
        r1!(d, a, b, c, 5);
        r1!(c, d, a, b, 6);
        r1!(b, c, d, a, 7);
        r1!(a, b, c, d, 8);
        r1!(d, a, b, c, 9);
        r1!(c, d, a, b, 10);
        r1!(b, c, d, a, 11);
        r1!(a, b, c, d, 12);
        r1!(d, a, b, c, 13);
        r1!(c, d, a, b, 14);
        r1!(b, c, d, a, 15);
        // Round 2: G(b, c, d) = (b & d) | (c & !d), message word
        // (5i + 1) mod 16. The two terms share no bits, so `|` is `+` and
        // the `c & !d` half is added before `b` is ready.
        macro_rules! r2 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add(K[$i])
                        .wrapping_add(m[(5 * $i + 1) % 16])
                        .wrapping_add($c & !$d)
                        .wrapping_add($b & $d)
                        .rotate_left(S[$i]),
                )
            };
        }
        r2!(a, b, c, d, 16);
        r2!(d, a, b, c, 17);
        r2!(c, d, a, b, 18);
        r2!(b, c, d, a, 19);
        r2!(a, b, c, d, 20);
        r2!(d, a, b, c, 21);
        r2!(c, d, a, b, 22);
        r2!(b, c, d, a, 23);
        r2!(a, b, c, d, 24);
        r2!(d, a, b, c, 25);
        r2!(c, d, a, b, 26);
        r2!(b, c, d, a, 27);
        r2!(a, b, c, d, 28);
        r2!(d, a, b, c, 29);
        r2!(c, d, a, b, 30);
        r2!(b, c, d, a, 31);
        // Round 3: H(b, c, d) = b ^ c ^ d, message word (3i + 5) mod 16.
        macro_rules! r3 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                step!($b ^ $c ^ $d, $a, $b, m[(3 * $i + 5) % 16], K[$i], S[$i])
            };
        }
        r3!(a, b, c, d, 32);
        r3!(d, a, b, c, 33);
        r3!(c, d, a, b, 34);
        r3!(b, c, d, a, 35);
        r3!(a, b, c, d, 36);
        r3!(d, a, b, c, 37);
        r3!(c, d, a, b, 38);
        r3!(b, c, d, a, 39);
        r3!(a, b, c, d, 40);
        r3!(d, a, b, c, 41);
        r3!(c, d, a, b, 42);
        r3!(b, c, d, a, 43);
        r3!(a, b, c, d, 44);
        r3!(d, a, b, c, 45);
        r3!(c, d, a, b, 46);
        r3!(b, c, d, a, 47);
        // Round 4: I(b, c, d) = c ^ (b | !d), message word 7i mod 16.
        macro_rules! r4 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                step!($c ^ ($b | !$d), $a, $b, m[(7 * $i) % 16], K[$i], S[$i])
            };
        }
        r4!(a, b, c, d, 48);
        r4!(d, a, b, c, 49);
        r4!(c, d, a, b, 50);
        r4!(b, c, d, a, 51);
        r4!(a, b, c, d, 52);
        r4!(d, a, b, c, 53);
        r4!(c, d, a, b, 54);
        r4!(b, c, d, a, 55);
        r4!(a, b, c, d, 56);
        r4!(d, a, b, c, 57);
        r4!(c, d, a, b, 58);
        r4!(b, c, d, a, 59);
        r4!(a, b, c, d, 60);
        r4!(d, a, b, c, 61);
        r4!(c, d, a, b, 62);
        r4!(b, c, d, a, 63);
        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }
    *state = [a0, b0, c0, d0];
}

/// One-shot MD5 of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// The original loop-form MD5, kept as the reference model the unrolled
/// kernel is checked against (`tests/kernels_equiv.rs`). Not for hot
/// paths.
#[doc(hidden)]
pub mod reference {
    use super::{K, S};

    /// Loop-form incremental MD5 state.
    #[derive(Clone, Debug)]
    pub struct Md5 {
        state: [u32; 4],
        buf: [u8; 64],
        buf_len: usize,
        total_len: u64,
    }

    impl Default for Md5 {
        fn default() -> Self {
            Md5::new()
        }
    }

    impl Md5 {
        /// Digest length in bytes.
        pub const DIGEST_LEN: usize = 16;

        /// A fresh hasher.
        pub fn new() -> Self {
            Md5 {
                state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
                buf: [0; 64],
                buf_len: 0,
                total_len: 0,
            }
        }

        /// Absorbs more message bytes.
        pub fn update(&mut self, mut data: &[u8]) {
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
            if self.buf_len > 0 {
                let need = 64 - self.buf_len;
                let take = need.min(data.len());
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                self.buf_len += take;
                data = &data[take..];
                if self.buf_len == 64 {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
                if data.is_empty() {
                    // Everything fit in the partial buffer; the remainder
                    // handling below must not clobber `buf_len`.
                    return;
                }
            }
            let mut chunks = data.chunks_exact(64);
            for block in &mut chunks {
                let mut b = [0u8; 64];
                b.copy_from_slice(block);
                self.compress(&b);
            }
            let rem = chunks.remainder();
            self.buf[..rem.len()].copy_from_slice(rem);
            self.buf_len = rem.len();
        }

        /// Completes the hash, returning the 16-byte digest.
        pub fn finalize(mut self) -> [u8; 16] {
            let bit_len = self.total_len.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0]);
            }
            // Length is appended outside of update (update would recount it).
            self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
            let block = self.buf;
            self.compress(&block);
            let mut out = [0u8; 16];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut m = [0u32; 16];
            for (i, w) in m.iter_mut().enumerate() {
                *w = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"));
            }
            let [mut a, mut b, mut c, mut d] = self.state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f)
                        .wrapping_add(K[i])
                        .wrapping_add(m[g])
                        .rotate_left(S[i]),
                );
                a = tmp;
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
        }
    }

    /// One-shot MD5 of `data`.
    pub fn md5(data: &[u8]) -> [u8; 16] {
        let mut h = Md5::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let vectors: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in vectors {
            assert_eq!(to_hex(&md5(input)), expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let reference = md5(&data);
        for split in [0, 1, 63, 64, 65, 128, 299, 300] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // 55/56/57 bytes straddle the padding boundary; 64 is one block.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Md5::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), md5(&data), "len {len}");
        }
    }
}
