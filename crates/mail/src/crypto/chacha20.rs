//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The paper's mail service used the Cryptix JCE provider for its
//! per-sensitivity-level encryption. This is the offline stand-in: a
//! real, test-vector-verified stream cipher, so the Encryptor/Decryptor
//! components do genuine transformation work on genuine bytes.
//!
//! Every mail body is keyed eight times between the sending client and
//! the reader, so [`apply_keystream`] is the hot spot of the mail
//! workloads. It runs one of two bodies over the same bytes: the scalar
//! block loop (the reference, and the only path off x86-64 or without
//! AVX2), or a wide body computing [`LANES`] blocks side by side that is
//! entered through the one `#[target_feature]` wrapper in this workspace.
//! DESIGN.md "Mail data path budget" has the measurements behind that
//! dispatch.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
const BLOCK: usize = 64;
/// Blocks the wide body computes side by side. 16 lanes are two AVX2
/// registers per state word: 2 300 MB/s where 8 lanes measured 1 390.
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

/// [`apply_keystream_wide`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn apply_keystream_avx2(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    apply_keystream_wide(key, nonce, initial_counter, data);
}

/// Encrypts (or, identically, decrypts) `data` in place with the
/// keystream starting at block `initial_counter`.
#[allow(unsafe_code)]
pub fn apply_keystream(key: &Key, nonce: &Nonce, initial_counter: u32, data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if data.len() > SCALAR_MAX && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only requirement of `apply_keystream_avx2` is a CPU
        // with AVX2, which the detection two lines up has just confirmed.
        return unsafe { apply_keystream_avx2(key, nonce, initial_counter, data) };
    }
    apply_keystream_scalar(key, nonce, initial_counter, data);
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

    /// Every length that starts, ends or splits a wide step, at counters
    /// that include a wrap in the middle of one: the wide body, called
    /// directly so it is covered on hosts where the dispatcher would pick
    /// the scalar loop, and the dispatcher both give the scalar bytes.
    #[test]
    fn wide_matches_scalar() {
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
                let mut wide = input[..len].to_vec();
                apply_keystream_wide(&key, &nonce, counter, &mut wide);
                assert_eq!(wide, expected[..len], "wide, {len} bytes from {counter}");
                let mut public = input[..len].to_vec();
                apply_keystream(&key, &nonce, counter, &mut public);
                assert_eq!(
                    public,
                    expected[..len],
                    "public, {len} bytes from {counter}"
                );
            }
        }
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
