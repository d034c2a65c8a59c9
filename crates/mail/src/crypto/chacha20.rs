//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The paper's mail service used the Cryptix JCE provider for its
//! per-sensitivity-level encryption. This is the offline stand-in: a
//! real, test-vector-verified stream cipher, so the Encryptor/Decryptor
//! components do genuine transformation work on genuine bytes.
//!
//! Every mail body is keyed eight times between the sending client and
//! the reader, so [`apply_keystream`] is the hot spot of the mail
//! workloads. It runs one of three bodies over the same bytes, each
//! computing `LANES` blocks side by side but the last: an AVX-512 body
//! written in intrinsics, one register per state word; a portable wide
//! body compiled with AVX2; or the scalar block loop (the reference, and
//! the only path off x86-64 or without AVX2). The first two are entered
//! through the workspace's only `#[target_feature]` wrappers, in the one
//! module that may use `unsafe`. DESIGN.md "Mail data path budget" has
//! the measurements behind that dispatch.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
const BLOCK: usize = 64;
/// Blocks the wide and AVX-512 bodies compute side by side: one AVX-512
/// register, or two AVX2 registers, per state word. Under AVX2, 16 lanes
/// measured 2 300 MB/s where 8 measured 1 390.
const LANES: usize = 16;
/// Inputs and tails up to this long stay on the scalar loop: a wide step
/// costs about four scalar blocks however little of it is used.
const SCALAR_MAX: usize = 2 * BLOCK;

/// A 256-bit ChaCha20 key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(pub [u8; KEY_LEN]);

/// A 96-bit nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nonce(pub [u8; NONCE_LEN]);

/// Little-endian word `i` of `bytes`. Built from individual byte reads
/// rather than `try_into().expect(...)`: the block function sits on the
/// invoke hot path under `World::run`, where ps-lint P001 requires
/// panic-free code.
#[inline(always)]
fn le_word(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([
        bytes[4 * i],
        bytes[4 * i + 1],
        bytes[4 * i + 2],
        bytes[4 * i + 3],
    ])
}

/// The sixteen input words of the block function.
fn initial_state(key: &Key, counter: u32, nonce: &Nonce) -> [u32; 16] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = le_word(&key.0, i);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = le_word(&nonce.0, i);
    }
    state
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 block function: 64 bytes of keystream for one counter.
pub fn block(key: &Key, counter: u32, nonce: &Nonce) -> [u8; BLOCK] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// One block at a time: the reference the wide body is tested against.
fn apply_keystream_scalar(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    for (block_idx, chunk) in data.chunks_mut(BLOCK).enumerate() {
        let ks = block(key, initial_counter.wrapping_add(block_idx as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// One state word of [`LANES`] blocks. Each operation is a loop over the
/// lanes and nothing else, which is the shape LLVM turns into vector
/// instructions when the caller is compiled with them enabled.
#[derive(Clone, Copy)]
struct V([u32; LANES]);

impl V {
    #[inline(always)]
    fn add(mut self, other: V) -> V {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a = a.wrapping_add(b);
        }
        self
    }

    #[inline(always)]
    fn xor(mut self, other: V) -> V {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a ^= b;
        }
        self
    }

    #[inline(always)]
    fn rotl(mut self, n: u32) -> V {
        for a in self.0.iter_mut() {
            *a = a.rotate_left(n);
        }
        self
    }
}

/// The RFC quarter round on four words of every lane. The words are
/// copied out and stored back, so the compiler need not prove that the
/// four indices differ to keep them in registers in between.
#[inline(always)]
fn quarter_round_wide(state: &mut [V; 16], ia: usize, ib: usize, ic: usize, id: usize) {
    let (mut a, mut b, mut c, mut d) = (state[ia], state[ib], state[ic], state[id]);
    a = a.add(b);
    d = d.xor(a).rotl(16);
    c = c.add(d);
    b = b.xor(c).rotl(12);
    a = a.add(b);
    d = d.xor(a).rotl(8);
    c = c.add(d);
    b = b.xor(c).rotl(7);
    (state[ia], state[ib], state[ic], state[id]) = (a, b, c, d);
}

/// The wide body: [`LANES`] blocks (1 KiB of keystream) per step, a tail
/// longer than [`SCALAR_MAX`] from one more step. Safe portable code that
/// gives the scalar loop's bytes on every target; it is only *fast* when
/// inlined into a caller compiled with 256-bit vectors, and the only such
/// caller exists on x86-64.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn apply_keystream_wide(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    let mut state = initial_state(key, initial_counter, nonce).map(|word| V([word; LANES]));
    let mut counter = initial_counter;
    for group in data.chunks_mut(BLOCK * LANES) {
        if group.len() <= SCALAR_MAX {
            return apply_keystream_scalar(key, nonce, counter, group);
        }
        for (lane, c) in state[12].0.iter_mut().enumerate() {
            *c = counter.wrapping_add(lane as u32);
        }
        let mut working = state;
        for _ in 0..10 {
            // Loops over the column, not eight literal calls: run-time
            // indices keep the state an array in memory between quarter
            // rounds; with constants it is split into 256 scalars before
            // the vectoriser ever sees a lane loop.
            for i in 0..4 {
                quarter_round_wide(&mut working, i, 4 + i, 8 + i, 12 + i);
            }
            for i in 0..4 {
                let (b, c, d) = (4 + (i + 1) % 4, 8 + (i + 2) % 4, 12 + (i + 3) % 4);
                quarter_round_wide(&mut working, i, b, c, d);
            }
        }
        // Word `w` of block `lane` is `working[w].0[lane]`.
        for (word, input) in working.iter_mut().zip(state) {
            *word = word.add(input);
        }
        // The lane whose block a short last group ends inside.
        let partial = group.len() / BLOCK;
        let mut blocks = group.chunks_exact_mut(BLOCK);
        for (lane, block) in (&mut blocks).enumerate() {
            for (bytes, word) in block.chunks_exact_mut(4).zip(&working) {
                for (b, k) in bytes.iter_mut().zip(word.0[lane].to_le_bytes()) {
                    *b ^= k;
                }
            }
        }
        for (i, b) in blocks.into_remainder().iter_mut().enumerate() {
            *b ^= working[i / 4].0[partial].to_le_bytes()[i % 4];
        }
        counter = counter.wrapping_add(LANES as u32);
    }
}

/// Encrypts (or, identically, decrypts) `data` in place with the
/// keystream starting at block `initial_counter`.
pub fn apply_keystream(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    let body = dispatch::select(data.len());
    dispatch::run(body, key, nonce, initial_counter, data);
}

/// Which body runs, and the two bodies entered through `#[target_feature]`:
/// the one module in the workspace allowed unsafe code. The AVX-512 body
/// exists because the wide body does not vectorise for it: compiled with
/// `avx512f`, its run-time-indexed quarter rounds become gathers and
/// scatters and run no faster than under AVX2 (DESIGN.md "Mail data path
/// budget").
#[allow(unsafe_code)]
mod dispatch {
    use super::{apply_keystream_scalar, Key, Nonce, SCALAR_MAX};
    #[cfg(target_arch = "x86_64")]
    use super::{apply_keystream_wide, initial_state, BLOCK, LANES};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Proof that the CPU feature a body needs was detected at run time.
    /// Its field is private, so only [`select`] makes one.
    #[cfg(target_arch = "x86_64")]
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Detected(());

    /// The body [`run`] executes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Body {
        /// [`avx512`]: one register per state word, 16 blocks in 16 registers.
        #[cfg(target_arch = "x86_64")]
        Avx512(Detected),
        /// [`apply_keystream_wide`] compiled with AVX2 enabled.
        #[cfg(target_arch = "x86_64")]
        Avx2(Detected),
        /// The block-at-a-time reference.
        Scalar,
    }

    /// The body for `len` bytes on this CPU: the widest one it supports,
    /// and the scalar loop for inputs no longer than [`SCALAR_MAX`].
    pub(super) fn select(len: usize) -> Body {
        if len <= SCALAR_MAX {
            return Body::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Body::Avx512(Detected(()));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Body::Avx2(Detected(()));
            }
        }
        Body::Scalar
    }

    /// Runs `body` over `data`. Every body gives the scalar loop's bytes.
    pub(super) fn run(body: Body, key: &Key, nonce: &Nonce, counter: u32, data: &mut [u8]) {
        match body {
            #[cfg(target_arch = "x86_64")]
            Body::Avx512(Detected(())) => {
                // SAFETY: `avx512` requires AVX-512F, and a `Detected` is
                // made only by `select`, after `is_x86_feature_detected!`
                // confirmed it.
                unsafe { avx512(key, nonce, counter, data) }
            }
            #[cfg(target_arch = "x86_64")]
            Body::Avx2(Detected(())) => {
                // SAFETY: `avx2` requires AVX2, and a `Detected` is made
                // only by `select`, after `is_x86_feature_detected!`
                // confirmed it.
                unsafe { avx2(key, nonce, counter, data) }
            }
            Body::Scalar => apply_keystream_scalar(key, nonce, counter, data),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
        apply_keystream_wide(key, nonce, initial_counter, data);
    }

    /// [`LANES`] blocks per step, as the wide body, but written in
    /// intrinsics: register `w` holds state word `w` of all sixteen
    /// blocks, so a quarter round is twelve vector instructions with the
    /// rotates native, and an in-register transpose turns the sixteen
    /// word registers into sixteen keystream blocks.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
        let words = initial_state(key, initial_counter, nonce);
        let mut state = [_mm512_setzero_si512(); 16];
        for (v, word) in state.iter_mut().zip(words) {
            *v = _mm512_set1_epi32(word as i32);
        }
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut counter = initial_counter;
        for group in data.chunks_mut(BLOCK * LANES) {
            if group.len() <= SCALAR_MAX {
                return apply_keystream_scalar(key, nonce, counter, group);
            }
            state[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), lane);
            let mut x = state;
            for _ in 0..10 {
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            for (word, input) in x.iter_mut().zip(state) {
                *word = _mm512_add_epi32(*word, input);
            }
            // Zipping the blocks first leaves `keystream` at the block a
            // short last group ends inside.
            let mut keystream = transpose(x).into_iter();
            let mut blocks = group.chunks_exact_mut(BLOCK);
            for (block, k) in (&mut blocks).zip(&mut keystream) {
                let p = block.as_mut_ptr().cast::<__m512i>();
                // SAFETY: `block` is `BLOCK` = 64 bytes, readable and
                // writable, the size of one `__m512i`; the unaligned load
                // and store need no alignment.
                unsafe { _mm512_storeu_si512(p, _mm512_xor_si512(_mm512_loadu_si512(p), k)) };
            }
            let tail = blocks.into_remainder();
            if let (false, Some(k)) = (tail.is_empty(), keystream.next()) {
                let mut bytes = [0u8; BLOCK];
                // SAFETY: `bytes` is 64 writable bytes, the size of one
                // `__m512i`; the unaligned store needs no alignment.
                unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), k) };
                for (b, k) in tail.iter_mut().zip(bytes) {
                    *b ^= k;
                }
            }
            counter = counter.wrapping_add(LANES as u32);
        }
    }

    /// The RFC quarter round on four word registers, every block at once.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32(_mm512_xor_si512(x[d], x[a]), 16);
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32(_mm512_xor_si512(x[b], x[c]), 12);
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32(_mm512_xor_si512(x[d], x[a]), 8);
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32(_mm512_xor_si512(x[b], x[c]), 7);
    }

    /// Register `w` holding word `w` of blocks 0..16 in, register `n`
    /// holding all sixteen words of block `n` out: a 16×16 transpose of
    /// 32-bit words.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn transpose(x: [__m512i; 16]) -> [__m512i; 16] {
        // 128-bit lane `j` of `t[2i]` holds words 2i, 2i + 1 of blocks
        // 4j and 4j + 1; of `t[2i + 1]`, of blocks 4j + 2 and 4j + 3.
        let mut t = x;
        for i in (0..16).step_by(2) {
            t[i] = _mm512_unpacklo_epi32(x[i], x[i + 1]);
            t[i + 1] = _mm512_unpackhi_epi32(x[i], x[i + 1]);
        }
        // Lane `j` of `u[4g + r]` holds words 4g..4g + 4 of block 4j + r.
        let mut u = t;
        for g in (0..16).step_by(4) {
            u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
            u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
            u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
            u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
        }
        // Block 4j + r is lane `j` of `u[r]`, `u[4 + r]`, `u[8 + r]` and
        // `u[12 + r]`: 0x88 gathers lanes 0 and 2 of each operand, 0xdd
        // lanes 1 and 3.
        let mut out = u;
        for r in 0..4 {
            let (lo, hi) = (u[r], u[4 + r]);
            let (lo2, hi2) = (u[8 + r], u[12 + r]);
            let even = _mm512_shuffle_i32x4(lo, hi, 0x88);
            let odd = _mm512_shuffle_i32x4(lo, hi, 0xdd);
            let even2 = _mm512_shuffle_i32x4(lo2, hi2, 0x88);
            let odd2 = _mm512_shuffle_i32x4(lo2, hi2, 0xdd);
            out[r] = _mm512_shuffle_i32x4(even, even2, 0x88);
            out[4 + r] = _mm512_shuffle_i32x4(odd, odd2, 0x88);
            out[8 + r] = _mm512_shuffle_i32x4(even, even2, 0xdd);
            out[12 + r] = _mm512_shuffle_i32x4(odd, odd2, 0xdd);
        }
        out
    }
}

/// What [`encrypt`] and [`decrypt`] do to a copy, done to `data` itself:
/// the keystream from block 1 (RFC 8439's AEAD construction reserves
/// block 0), so applying it twice restores the input.
pub fn apply_in_place(key: &Key, nonce: &Nonce, data: &mut [u8]) {
    apply_keystream(key, nonce, 1, data);
}

/// Convenience: encrypt a copy of `data`.
pub fn encrypt(key: &Key, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    apply_in_place(key, nonce, &mut out);
    out
}

/// Convenience: decrypt a copy of `data` (XOR symmetry).
pub fn decrypt(key: &Key, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
    encrypt(key, nonce, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> Key {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        Key(k)
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 section 2.3.2.
        let key = rfc_key();
        let nonce = Nonce([0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let out = block(&key, 1, &nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 section 2.4.2.
        let key = rfc_key();
        let nonce = Nonce([0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let expected: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        assert_eq!(encrypt(&key, &nonce, plaintext), expected);
    }

    /// Every length that starts, ends or splits a 16-block step, at
    /// counters that include a wrap in the middle of one: `body` must give
    /// the bytes of one [`block`] call per 64 bytes.
    fn assert_matches_blocks(name: &str, body: impl Fn(&Key, &Nonce, u32, &mut [u8])) {
        let key = rfc_key();
        let nonce = Nonce([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let input: Vec<u8> = (0..2_200u32).map(|i| (i * 7 % 251) as u8).collect();
        for counter in [0, 1, 9, u32::MAX - 3] {
            let mut expected = input.clone();
            for (i, chunk) in expected.chunks_mut(BLOCK).enumerate() {
                let ks = block(&key, counter.wrapping_add(i as u32), &nonce);
                for (b, k) in chunk.iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
            for len in 0..=input.len() {
                let mut out = input[..len].to_vec();
                body(&key, &nonce, counter, &mut out);
                assert_eq!(out, expected[..len], "{name}, {len} bytes from {counter}");
            }
        }
    }

    /// The wide body, called directly so it is covered on hosts where the
    /// dispatcher picks another body, and the dispatcher both give the
    /// scalar bytes.
    #[test]
    fn wide_matches_scalar() {
        assert_matches_blocks("wide", apply_keystream_wide);
        assert_matches_blocks("public", apply_keystream);
    }

    /// The AVX-512 body on the same grid, and on 1 MiB, the size of a
    /// 500-message `SyncBatch`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_matches_scalar() {
        let body @ dispatch::Body::Avx512(_) = dispatch::select(SCALAR_MAX + 1) else {
            println!("avx512_matches_scalar: this CPU lacks avx512f, nothing to test");
            return;
        };
        let avx512 = |key: &Key, nonce: &Nonce, counter: u32, data: &mut [u8]| {
            dispatch::run(body, key, nonce, counter, data)
        };
        assert_matches_blocks("avx512", avx512);

        let key = Key([0x5a; KEY_LEN]);
        let nonce = Nonce([0xa5; NONCE_LEN]);
        let input: Vec<u8> = (0..1u32 << 20).map(|i| (i * 13 % 251) as u8).collect();
        let mut expected = input.clone();
        apply_keystream_scalar(&key, &nonce, 1, &mut expected);
        let mut wide = input;
        avx512(&key, &nonce, 1, &mut wide);
        assert!(wide == expected, "avx512 differs from scalar on 1 MiB");
    }

    /// `apply_keystream` runs whatever `select` returns: on this CPU that
    /// must be the widest body it supports, so a fall-back to a narrower
    /// one fails here rather than only slowing the mail workloads.
    #[test]
    fn dispatcher_picks_widest_supported_body() {
        assert_eq!(dispatch::select(SCALAR_MAX), dispatch::Body::Scalar);
        let picked = dispatch::select(SCALAR_MAX + 1);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert!(matches!(picked, dispatch::Body::Avx512(_)), "{picked:?}");
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                assert!(matches!(picked, dispatch::Body::Avx2(_)), "{picked:?}");
                return;
            }
        }
        assert_eq!(picked, dispatch::Body::Scalar);
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let key = rfc_key();
        let nonce = Nonce([7; 12]);
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let ct = encrypt(&key, &nonce, &msg);
        assert_ne!(ct, msg);
        assert_eq!(decrypt(&key, &nonce, &ct), msg);
    }

    #[test]
    fn different_keys_differ() {
        let nonce = Nonce([0; 12]);
        let msg = [0u8; 64];
        let a = encrypt(&rfc_key(), &nonce, &msg);
        let b = encrypt(&Key([9u8; 32]), &nonce, &msg);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_advances_across_blocks() {
        // 130 bytes spans three blocks; decrypting the tail alone with the
        // right starting counter must match.
        let key = rfc_key();
        let nonce = Nonce([3; 12]);
        let msg = [0xAAu8; 130];
        let ct = encrypt(&key, &nonce, &msg);
        let mut tail = ct[128..].to_vec();
        apply_keystream(&key, &nonce, 3, &mut tail); // blocks 1,2 then 3
        assert_eq!(tail, vec![0xAA; 2]);
    }
}
