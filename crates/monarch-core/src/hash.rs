//! A fast, non-cryptographic hasher for the metadata namespace.
//!
//! The namespace maps short file-name strings to metadata at very high rates
//! (one lookup per intercepted read). SipHash's DoS resistance buys nothing
//! here — the key space is the job's own dataset — so we use an FxHash-style
//! multiply-xor hasher, written in-repo to honour the offline dependency
//! policy.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplier used by the Fx family (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // The zero-padded little-endian word, without a variable-length copy.
            let tail = (rem.iter().rev()).fold(0, |word, &b| word << 8 | u64::from(b));
            self.add_word(tail | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash one value with [`FxHasher`] — used for shard selection.
#[inline]
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// The splitmix64 finalizer: a cheap, well-mixed, deterministic 64-bit
/// mixing step — ring points and shard owners in the peer cache, and (one
/// golden-ratio step on) backoff jitter.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            hash_str("train-00001.tfrecord"),
            hash_str("train-00001.tfrecord")
        );
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let a = hash_str("train-00001.tfrecord");
        let b = hash_str("train-00002.tfrecord");
        assert_ne!(a, b);
    }

    #[test]
    fn tail_length_matters() {
        // "a" vs "a\0" must differ even though the padded words match.
        let mut h1 = FxHasher::default();
        h1.write(b"a");
        let mut h2 = FxHasher::default();
        h2.write(b"a\0");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn spreads_sequential_names_across_shards() {
        // Sanity check that the hash doesn't collapse sequential shard
        // names onto a few buckets (it feeds shard selection).
        const SHARDS: usize = 16;
        let mut counts = [0usize; SHARDS];
        for i in 0..1024 {
            let h = hash_str(&format!("train-{i:05}.tfrecord"));
            counts[(h as usize) % SHARDS] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(*min > 20, "bucket starved: {counts:?}");
        assert!(*max < 200, "bucket overloaded: {counts:?}");
    }

    #[test]
    fn hashmap_usable() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
