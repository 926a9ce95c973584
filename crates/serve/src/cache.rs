//! The content-addressed replay cache.
//!
//! Keys are built from `hht_sparse::hash` stable content hashes, so a key
//! names the *mathematical* job, not the allocation that carried it —
//! clients resubmitting an equal matrix from a different buffer still hit.
//! The cache is a bounded FIFO: inserts past capacity evict the oldest
//! entry, which keeps eviction deterministic (no recency state that would
//! make hit counts depend on timing).

use crate::request::{KernelKind, Operand, Request};
use hht_system::runner::FabricRunOutput;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Replay-tier key: the exact job. `kernel` distinguishes the SpMSpV
/// variants (their outputs differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`KernelKind::tag`].
    pub kernel: u8,
    /// Matrix content hash.
    pub matrix: u64,
    /// Operand content hash.
    pub operand: u64,
}

impl CacheKey {
    /// Key for `request`, given its precomputed content hashes.
    pub fn new(kernel: KernelKind, matrix: u64, operand: u64) -> Self {
        CacheKey { kernel: kernel.tag(), matrix, operand }
    }
}

/// Bounded FIFO map backing the replay tier.
pub struct FifoCache<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V> FifoCache<K, V> {
    /// An empty cache evicting beyond `cap` entries (`cap == 0` disables
    /// it: every lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> Self {
        FifoCache { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// Lookup without touching eviction order.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Insert, evicting the oldest entry when full.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Content hashes of one request's operands, memoized by allocation
/// identity: serving streams resubmit the same `Arc`s, so each unique
/// buffer is hashed once no matter how often it recurs.
pub struct HashMemo {
    matrices: HashMap<usize, (Arc<hht_sparse::CsrMatrix>, u64)>,
    operands: HashMap<usize, u64>,
    /// Arcs pinned so the pointer keys above can never be reused by a new
    /// allocation while memoized.
    pinned: Vec<Operand>,
}

impl Default for HashMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl HashMemo {
    /// An empty memo.
    pub fn new() -> Self {
        HashMemo { matrices: HashMap::new(), operands: HashMap::new(), pinned: Vec::new() }
    }

    /// `(matrix_hash, operand_hash)` for `req`, computing each at most
    /// once per distinct allocation.
    pub fn hashes(&mut self, req: &Request) -> (u64, u64) {
        let mp = Arc::as_ptr(&req.matrix) as usize;
        let mh = match self.matrices.get(&mp) {
            Some(&(_, h)) => h,
            None => {
                let h = req.matrix.content_hash();
                self.matrices.insert(mp, (Arc::clone(&req.matrix), h));
                h
            }
        };
        let op = match &req.operand {
            Operand::Dense(v) => Arc::as_ptr(v) as usize,
            Operand::Sparse(x) => Arc::as_ptr(x) as usize,
        };
        let oh = match self.operands.entry(op) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let h = match &req.operand {
                    Operand::Dense(v) => v.content_hash(),
                    Operand::Sparse(x) => x.content_hash(),
                };
                e.insert(h);
                self.pinned.push(req.operand.clone());
                h
            }
        };
        (mh, oh)
    }
}

/// The replay tier's stored value: the complete run output of the
/// *singleton* pass that first served this job. Batched passes are never
/// entered here — a replay must be bit-identical to a cold one-shot run
/// (y, stats, events), which only a singleton pass is.
pub type CachedRun = Arc<FabricRunOutput>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_cache_evicts_oldest_first() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn spmspv_variants_get_distinct_replay_keys() {
        // Same matrix and operand, different kernel: the outputs differ,
        // so the replay tier must never serve one variant for the other.
        assert_ne!(
            CacheKey::new(KernelKind::SpmspvV1, 7, 100),
            CacheKey::new(KernelKind::SpmspvV2, 7, 100)
        );
    }
}
