//! A sharded concurrent hash map — the `Send + Sync` storage behind
//! [`PrivacyCache`](crate::privacy::PrivacyCache).
//!
//! Keys are routed to one of a fixed number of shards by their hash; each
//! shard is an independent `RwLock<HashMap>`. Concurrent readers of
//! different keys (and of the same key) never contend on a shard's write
//! lock, and writers of different shards proceed in parallel — which is
//! what the parallel abstraction search needs: privacy evaluations of
//! different candidates mostly touch disjoint concretizations, with heavy
//! read sharing on the ones they have in common.

use provabs_sched::sync::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Shard count. A power of two so routing is a mask; 16 is plenty for the
/// worker counts the search uses (contention is per-key-group, not global).
const SHARDS: usize = 16;

/// Shard routing uses an *unkeyed* SipHash (`DefaultHasher::default`), not
/// `RandomState`: routing must be a pure function of the key bytes so the
/// schedule-enumeration harness sees an identical lock-acquisition sequence
/// — and hence an identical, gateable schedule count — on every run of a
/// scenario, on every machine. HashDoS keying buys nothing here (which of 16
/// in-process locks a key lands on is not an attack surface).
type ShardHasher = BuildHasherDefault<DefaultHasher>;

/// A hash map split into independently locked shards.
///
/// The shard locks are `provabs_sched` shims: plain `std` rwlocks in
/// production, scheduling points under the model checker. All shards share
/// the `core.sharded.shard` lock-order label — the map acquires one shard at
/// a time, never two, so the label can never appear on both sides of a
/// held-while-acquiring edge from this type itself.
#[derive(Debug)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    hasher: ShardHasher,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::labeled("core.sharded.shard")
    }
}

impl<K, V> ShardedMap<K, V> {
    /// A map whose shard locks carry `label` in schedule traces and in the
    /// lock-order audit graph. Maps that nest (one acquired while a shard of
    /// another is held — e.g. the privacy cache's value stores reading the
    /// retirement fences from inside an `upsert`) must use distinct labels
    /// so the audit sees the hierarchy instead of a self-edge.
    pub fn labeled(label: &'static str) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| RwLock::labeled(label, HashMap::new()))
                .collect(),
            hasher: ShardHasher::default(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// A clone of the value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_borrowed(key)
    }

    /// [`ShardedMap::get`] through a borrowed form of the key (e.g. probe a
    /// `Vec<u32>`-keyed map with a `&[u32]`), so hot-path lookups allocate
    /// nothing. Sound because `Borrow` guarantees the borrowed form hashes
    /// and compares identically — shard routing and the inner map agree.
    pub fn get_borrowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = self.hasher.hash_one(key) as usize;
        self.shards[h & (SHARDS - 1)]
            .read()
            .expect("shard lock poisoned")
            .get(key)
            .cloned()
    }

    /// Inserts `value` under `key`. If another thread inserted first, the
    /// existing value wins (memoized computations are deterministic, so
    /// both values are equal anyway) and is returned.
    pub fn insert(&self, key: K, value: V) -> V {
        self.shard(&key)
            .write()
            .expect("shard lock poisoned")
            .entry(key)
            .or_insert(value)
            .clone()
    }

    /// Runs `f` on the value under `key` without cloning it, holding the
    /// shard read lock for the duration. Returns `None` when the key is
    /// absent. The closure must not touch the map (it runs under the lock).
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = self.hasher.hash_one(key) as usize;
        self.shards[h & (SHARDS - 1)]
            .read()
            .expect("shard lock poisoned")
            .get(key)
            .map(f)
    }

    /// Upserts in place: inserts `default()` when `key` is absent, then
    /// runs `f` on the value under the shard write lock. Unlike
    /// [`ShardedMap::insert`] this supports values that accumulate (e.g.
    /// version vectors) — racing writers serialize on the shard lock, so
    /// each sees the other's completed mutation.
    pub fn update<R>(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V) -> R) -> R {
        let mut shard = self.shard(&key).write().expect("shard lock poisoned");
        f(shard.entry(key).or_insert_with(default))
    }

    /// [`ShardedMap::update`] for values with no empty state: under the
    /// shard write lock, runs `present` on the value under `key`, or — when
    /// the key is absent — stores the value `absent` builds next to its
    /// result. One write-lock acquisition either way, like `update`.
    pub fn upsert<R>(
        &self,
        key: K,
        absent: impl FnOnce() -> (V, R),
        present: impl FnOnce(&mut V) -> R,
    ) -> R {
        use std::collections::hash_map::Entry;
        let mut shard = self.shard(&key).write().expect("shard lock poisoned");
        match shard.entry(key) {
            Entry::Occupied(mut e) => present(e.get_mut()),
            Entry::Vacant(e) => {
                let (value, r) = absent();
                e.insert(value);
                r
            }
        }
    }

    /// Visits every entry, shard by shard, under shard read locks. The
    /// closure must not touch the map.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().expect("shard lock poisoned").iter() {
                f(k, v);
            }
        }
    }

    /// Visits every entry mutably, shard by shard, under shard write
    /// locks. The closure must not touch the map.
    pub fn for_each_mut(&self, mut f: impl FnMut(&K, &mut V)) {
        for shard in &self.shards {
            for (k, v) in shard.write().expect("shard lock poisoned").iter_mut() {
                f(k, v);
            }
        }
    }

    /// Keeps only the entries whose key satisfies `f`, shard by shard.
    /// Writers of other shards proceed concurrently; the predicate runs
    /// under one shard's write lock at a time, so it must not touch the map.
    pub fn retain(&self, mut f: impl FnMut(&K) -> bool) {
        self.retain_kv(|k, _| f(k));
    }

    /// [`ShardedMap::retain`] with the value visible to the predicate —
    /// lets an interner collect the ids it evicts in one pass.
    pub fn retain_kv(&self, mut f: impl FnMut(&K, &V) -> bool) {
        for shard in &self.shards {
            shard
                .write()
                .expect("shard lock poisoned")
                .retain(|k, v| f(k, v));
        }
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn insert_get_roundtrip() {
        let m: ShardedMap<String, usize> = ShardedMap::default();
        assert!(m.is_empty());
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get(&"a".into()), Some(1));
        assert_eq!(m.get(&"c".into()), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn first_insert_wins() {
        let m: ShardedMap<u32, u32> = ShardedMap::default();
        assert_eq!(m.insert(7, 70), 70);
        assert_eq!(m.insert(7, 71), 70);
        assert_eq!(m.get(&7), Some(70));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_filters_across_shards() {
        let m: ShardedMap<usize, usize> = ShardedMap::default();
        for i in 0..64 {
            m.insert(i, i);
        }
        m.retain(|&k| k % 2 == 0);
        assert_eq!(m.len(), 32);
        assert_eq!(m.get(&2), Some(2));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn update_accumulates_in_place() {
        let m: ShardedMap<u32, Vec<u32>> = ShardedMap::default();
        for i in 0..5 {
            m.update(1, Vec::new, |v| v.push(i));
        }
        assert_eq!(m.read(&1, |v| v.len()), Some(5));
        assert_eq!(m.read(&2, |v| v.len()), None);
        let mut total = 0;
        m.for_each(|_, v| total += v.len());
        assert_eq!(total, 5);
        m.for_each_mut(|_, v| v.retain(|&x| x % 2 == 0));
        assert_eq!(m.get(&1), Some(vec![0, 2, 4]));
    }

    /// Model-checked: two writers inserting (one shared key, one distinct
    /// key each) racing a reader — across every schedule the first insert
    /// wins, reads are torn-free, and no shard is ever acquired while
    /// another shard is held (lock-order audit comes back acyclic).
    #[test]
    fn sched_insert_race_is_linearizable_across_all_schedules() {
        use provabs_sched as sched;
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let m: std::sync::Arc<ShardedMap<u32, u32>> =
                std::sync::Arc::new(ShardedMap::default());
            let m1 = std::sync::Arc::clone(&m);
            let m2 = std::sync::Arc::clone(&m);
            let w1 = sched::thread::spawn(move || {
                m1.insert(7, 70);
                m1.insert(1, 10);
            });
            let w2 = sched::thread::spawn(move || {
                m2.insert(7, 71);
                m2.insert(2, 20);
            });
            // Reader: any observed value of key 7 is one of the two writes.
            if let Some(v) = m.get(&7) {
                assert!(v == 70 || v == 71, "torn read: {v}");
            }
            w1.join().unwrap();
            w2.join().unwrap();
            let v = m.get(&7).expect("key 7 present after both writers");
            assert!(v == 70 || v == 71);
            assert_eq!(m.get(&1), Some(10));
            assert_eq!(m.get(&2), Some(20));
            assert_eq!(m.len(), 3);
        });
        outcome.expect_clean();
        assert!(outcome.schedules >= 2, "outcome: {outcome:?}");
        assert!(
            outcome.lock_cycle().is_none(),
            "sharded map must be cycle-free: {:?}",
            outcome.lock_edges
        );
    }

    /// Model-checked: `update` accumulation racing `retain` never loses a
    /// completed mutation and never deadlocks, in any schedule.
    #[test]
    fn sched_update_vs_retain_has_no_lost_mutations() {
        use provabs_sched as sched;
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let m: std::sync::Arc<ShardedMap<u32, Vec<u32>>> =
                std::sync::Arc::new(ShardedMap::default());
            m.update(1, Vec::new, |v| v.push(0));
            let m1 = std::sync::Arc::clone(&m);
            let t = sched::thread::spawn(move || {
                m1.update(1, Vec::new, |v| v.push(1));
            });
            m.retain(|&k| k == 1);
            t.join().unwrap();
            // retain keeps key 1, and the racing update must land exactly
            // once regardless of whether it ran before or after the retain.
            assert_eq!(m.get(&1), Some(vec![0, 1]));
        });
        outcome.expect_clean();
        assert!(outcome.lock_cycle().is_none());
    }

    #[test]
    fn concurrent_inserts_land() {
        let m: ShardedMap<usize, usize> = ShardedMap::default();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (m, hits) = (&m, &hits);
                s.spawn(move || {
                    for i in 0..100 {
                        m.insert(i, i * 10);
                        if m.get(&((i + t) % 100)).is_some() {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(m.len(), 100);
        assert!(hits.load(Ordering::Relaxed) > 0);
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(i * 10));
        }
    }
}
