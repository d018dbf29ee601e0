//! The per-node fetch cache: what stays resident past a fetch, and what
//! is evicted when the byte budget is full.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::cid::{Cid, CidMap};

/// A seeded, size-bounded, approximately-LRU cache of assembled content.
///
/// Eviction is Redis-style sampled LRU: a seeded sample of up to
/// [`FetchCache::EVICTION_SAMPLE`] entries is drawn and the least recently
/// used of the sample is evicted. The sampling stream derives from the
/// per-node cache seed, so two runs with the same seed evict identically.
#[derive(Debug)]
pub(super) struct FetchCache {
    capacity: u64,
    rng: StdRng,
    tick: u64,
    pub(super) resident: u64,
    entries: CidMap<CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    data: Arc<[u8]>,
    last_used: u64,
}

impl FetchCache {
    /// Entries sampled per eviction.
    const EVICTION_SAMPLE: usize = 5;

    pub(super) fn new(seed: u64, capacity: u64) -> Self {
        FetchCache {
            capacity,
            rng: StdRng::seed_from_u64(seed),
            tick: 0,
            resident: 0,
            entries: CidMap::default(),
        }
    }

    pub(super) fn get(&mut self, cid: Cid) -> Option<Arc<[u8]>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&cid)?;
        entry.last_used = tick;
        Some(entry.data.clone())
    }

    /// Inserts verified content, evicting sampled-LRU entries until the
    /// budget holds. Oversized content (and a zero budget) is not cached.
    /// The budget counts each entry's logical length, shared buffer or not.
    pub(super) fn insert(&mut self, cid: Cid, data: &Arc<[u8]>, evictions: &mut u64) {
        if self.capacity == 0 || data.len() as u64 > self.capacity {
            return;
        }
        if self.entries.contains_key(&cid) {
            self.tick += 1;
            self.entries.get_mut(&cid).expect("just checked").last_used = self.tick;
            return;
        }
        while self.resident + data.len() as u64 > self.capacity {
            self.evict_one();
            *evictions += 1;
        }
        self.tick += 1;
        self.resident += data.len() as u64;
        self.entries.insert(
            cid,
            CacheEntry {
                data: data.clone(),
                last_used: self.tick,
            },
        );
    }

    fn evict_one(&mut self) {
        // Deterministic sampled LRU: sort keys for a stable universe, draw
        // sample indices from the seeded stream, evict the least recently
        // used of the sample.
        let mut keys: Vec<Cid> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let sample = Self::EVICTION_SAMPLE.min(keys.len());
        let victim = (0..sample)
            .map(|_| keys[(self.rng.gen::<u64>() % keys.len() as u64) as usize])
            .min_by_key(|c| (self.entries[c].last_used, *c))
            .expect("cache non-empty when evicting");
        let gone = self.entries.remove(&victim).expect("sampled from keys");
        self.resident -= gone.data.len() as u64;
    }
}
