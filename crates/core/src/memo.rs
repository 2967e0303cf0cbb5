//! Compact storage for the [`PrivacyCache`](crate::privacy::PrivacyCache)
//! memo.
//!
//! Algorithm 1 memoizes a connectivity verdict for every concretization it
//! enumerates, and on bounded-degree data almost all of them are negative —
//! so the memo holds hundreds of thousands of tiny entries and their
//! per-entry overhead *is* its footprint. The two types here keep that
//! overhead flat:
//!
//! * [`OccKey`] — a sorted occurrence list stored inline (no heap block)
//!   up to [`INLINE_OCCS`] annotations, spilling to a boxed slice beyond.
//!   It hashes and compares exactly like `[AnnotId]`, so the interner is
//!   probed with a borrowed slice and shard routing is unchanged.
//! * [`Versions`] — the epoch-stamped version history of one cached value,
//!   holding its single version inline and spilling to a boxed slice only
//!   when a second epoch version appears.

use crate::sharded::ShardedMap;
use provabs_semiring::AnnotId;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};

/// Longest occurrence list an [`OccKey`] stores without a heap block. Every
/// row of the current workloads has at most 7 occurrences, and 7 `u32`s plus
/// the length fill the 32 bytes the spilled variant's alignment costs anyway.
const INLINE_OCCS: usize = 7;

/// A sorted occurrence list, the interner's key.
///
/// Equality and hashing go through [`OccKey::as_slice`], so an `OccKey`
/// behaves exactly like the `[AnnotId]` it holds whichever variant stores
/// it — the `Borrow<[AnnotId]>` contract that lets a map keyed by `OccKey`
/// be probed with a plain slice.
pub(crate) enum OccKey {
    /// Up to [`INLINE_OCCS`] annotations; `ids[len..]` is padding.
    Inline {
        len: u8,
        ids: [AnnotId; INLINE_OCCS],
    },
    /// Longer lists.
    Spilled(Box<[AnnotId]>),
}

// Layout guard: a field added to the key re-inflates every memoized
// concretization, so it must be a deliberate change to this bound.
const _: () = assert!(std::mem::size_of::<OccKey>() <= 32);

impl OccKey {
    /// The key of `occs` in sorted order. Lists of up to [`INLINE_OCCS`]
    /// annotations are sorted in place inside the returned value, with no
    /// heap allocation — the probe path builds its key on the stack.
    pub(crate) fn sorted(occs: &[AnnotId]) -> Self {
        let mut key = if occs.len() <= INLINE_OCCS {
            let mut ids = [AnnotId(0); INLINE_OCCS];
            ids[..occs.len()].copy_from_slice(occs);
            OccKey::Inline {
                len: occs.len() as u8,
                ids,
            }
        } else {
            OccKey::Spilled(occs.into())
        };
        match &mut key {
            OccKey::Inline { len, ids } => ids[..usize::from(*len)].sort_unstable(),
            OccKey::Spilled(ids) => ids.sort_unstable(),
        }
        key
    }

    /// The annotations of the list.
    pub(crate) fn as_slice(&self) -> &[AnnotId] {
        match self {
            OccKey::Inline { len, ids } => &ids[..usize::from(*len)],
            OccKey::Spilled(ids) => ids,
        }
    }
}

impl Borrow<[AnnotId]> for OccKey {
    fn borrow(&self) -> &[AnnotId] {
        self.as_slice()
    }
}

impl PartialEq for OccKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OccKey {}

impl Hash for OccKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for OccKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// An interned sorted occurrence list (id space private to one
/// [`PrivacyCache`](crate::privacy::PrivacyCache)).
pub(crate) type OccId = u32;

/// A sharded interner: sorted occurrence list → dense-ish id. First insert
/// wins under races, so every equal list resolves to one canonical id
/// (racing workers may burn a counter value — ids stay unique, which is all
/// the keying needs).
#[derive(Debug)]
pub(crate) struct OccInterner {
    ids: ShardedMap<OccKey, OccId>,
    next: AtomicU32,
}

impl Default for OccInterner {
    fn default() -> Self {
        Self {
            ids: ShardedMap::labeled("privacy.occs.shard"),
            next: AtomicU32::default(),
        }
    }
}

impl OccInterner {
    /// The id of `key`, if interned. Probes with the borrowed slice.
    pub(crate) fn lookup(&self, key: &[AnnotId]) -> Option<OccId> {
        self.ids.get_borrowed(key)
    }

    /// The id of `key`, interning it on a miss (the only path that stores
    /// the key, and so the only one that can allocate).
    pub(crate) fn intern(&self, key: OccKey) -> OccId {
        if let Some(id) = self.lookup(key.as_slice()) {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.ids.insert(key, id)
    }

    /// The ids of every interned list intersecting `touched`, evicting
    /// nothing.
    pub(crate) fn intersecting(&self, touched: &HashSet<AnnotId>) -> HashSet<OccId> {
        let mut hit = HashSet::new();
        self.ids.for_each(|key, &id| {
            if key.as_slice().iter().any(|a| touched.contains(a)) {
                hit.insert(id);
            }
        });
        hit
    }

    /// Drops every interned list intersecting `touched`, returning the
    /// evicted ids.
    pub(crate) fn invalidate(&self, touched: &HashSet<AnnotId>) -> HashSet<OccId> {
        let mut evicted = HashSet::new();
        self.ids.retain_kv(|key, &id| {
            if key.as_slice().iter().any(|a| touched.contains(a)) {
                evicted.insert(id);
                false
            } else {
                true
            }
        });
        evicted
    }

    /// Number of interned lists.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// One cached value version: valid for epochs `born <= e < dead`
/// (`dead == u64::MAX` means still live).
#[derive(Debug, Clone)]
pub(crate) struct Stamped<V> {
    pub(crate) born: u64,
    pub(crate) dead: u64,
    pub(crate) value: V,
}

/// The version of `vs` visible at `epoch`. Versions may overlap when a
/// pinned old-epoch reader inserts after later versions exist; the
/// max-born rule picks deterministically (overlapping versions hold equal
/// values — both were computed from the same snapshot state).
pub(crate) fn version_at<V: Clone>(vs: &[Stamped<V>], epoch: u64) -> Option<V> {
    vs.iter()
        .filter(|s| s.born <= epoch && epoch < s.dead)
        .max_by_key(|s| s.born)
        .map(|s| s.value.clone())
}

/// Ends, at `epoch`, the life of every version born before it.
pub(crate) fn clamp<V>(vs: &mut [Stamped<V>], epoch: u64) {
    for s in vs {
        if s.born < epoch && s.dead > epoch {
            s.dead = epoch;
        }
    }
}

/// The version history of one cached value. Almost every entry only ever
/// has the version it was created with, so that one lives inline; a second
/// epoch version moves the history to a boxed slice. (A `Vec` would make
/// every entry a word wider; versions are appended once per epoch, so the
/// reallocation per append costs nothing that matters.)
#[derive(Debug, Clone)]
pub(crate) enum Versions<V> {
    /// The single version.
    One(Stamped<V>),
    /// Two or more versions, in insertion order.
    Many(Box<[Stamped<V>]>),
}

// Layout guard: the verdict history is the bulk of the memo; one inline
// version must not grow past the bare stamp.
const _: () =
    assert!(std::mem::size_of::<Versions<bool>>() <= std::mem::size_of::<Stamped<bool>>());

impl<V: Clone> Versions<V> {
    fn as_slice(&self) -> &[Stamped<V>] {
        match self {
            Versions::One(s) => std::slice::from_ref(s),
            Versions::Many(vs) => vs,
        }
    }

    /// The version visible at `epoch` ([`version_at`]).
    pub(crate) fn at(&self, epoch: u64) -> Option<V> {
        version_at(self.as_slice(), epoch)
    }

    /// Appends a version, spilling to the boxed-slice form on the second.
    pub(crate) fn push(&mut self, s: Stamped<V>) {
        match self {
            Versions::One(first) => *self = Versions::Many(Box::new([first.clone(), s])),
            Versions::Many(vs) => {
                let mut grown = std::mem::take(vs).into_vec();
                grown.push(s);
                *vs = grown.into_boxed_slice();
            }
        }
    }

    /// Ends, at `epoch`, the life of every version born before it
    /// ([`clamp`]).
    pub(crate) fn clamp(&mut self, epoch: u64) {
        match self {
            Versions::One(s) => clamp(std::slice::from_mut(s), epoch),
            Versions::Many(vs) => clamp(vs, epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyCache;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;

    fn ids(raw: &[u32]) -> Vec<AnnotId> {
        raw.iter().map(|&a| AnnotId(a)).collect()
    }

    /// `raw` reordered by the sort keys `perm` (a deterministic shuffle).
    fn permuted(raw: &[u32], perm: &[u64]) -> Vec<AnnotId> {
        let mut keyed: Vec<(u64, u32)> = raw.iter().zip(perm).map(|(&a, &k)| (k, a)).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, a)| AnnotId(a)).collect()
    }

    fn sip<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn keys_hash_and_compare_like_their_slice() {
        for len in 0..=2 * INLINE_OCCS {
            let raw: Vec<u32> = (0..len as u32).rev().collect();
            let key = OccKey::sorted(&ids(&raw));
            let mut sorted = ids(&raw);
            sorted.sort_unstable();
            assert_eq!(key.as_slice(), &sorted[..]);
            assert_eq!(
                matches!(key, OccKey::Inline { .. }),
                len <= INLINE_OCCS,
                "len {len}"
            );
            // Shard routing hashes the borrowed slice on a probe and the
            // owned key on insert: the two must agree, and agree with
            // `Vec<AnnotId>`, so keys land on the shards (and take the
            // locks) that the schedule-enumeration baselines recorded.
            assert_eq!(sip(&key), sip(&sorted[..]));
            assert_eq!(sip(&key), sip(&sorted));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Permutations of one list intern to one id; lists with different
        /// sorted contents get different ids — on both sides of the inline
        /// capacity.
        #[test]
        fn permutations_share_an_id_and_distinct_lists_do_not(
            lists in prop::collection::vec(prop::collection::vec(0u32..24, 0..13), 1..10),
            perm in prop::collection::vec(0u64..1_000_000, 12),
        ) {
            let interner = OccInterner::default();
            let got: Vec<OccId> = lists
                .iter()
                .map(|l| interner.intern(OccKey::sorted(&ids(l))))
                .collect();
            for (l, &id) in lists.iter().zip(&got) {
                let shuffled = permuted(l, &perm);
                prop_assert_eq!(interner.intern(OccKey::sorted(&shuffled)), id);
                prop_assert_eq!(interner.lookup(OccKey::sorted(&shuffled).as_slice()), Some(id));
            }
            let canon = |l: &Vec<u32>| {
                let mut s = l.clone();
                s.sort_unstable();
                s
            };
            for i in 0..lists.len() {
                for j in 0..lists.len() {
                    prop_assert_eq!(got[i] == got[j], canon(&lists[i]) == canon(&lists[j]));
                }
            }
            let distinct: BTreeSet<Vec<u32>> = lists.iter().map(canon).collect();
            prop_assert_eq!(interner.len(), distinct.len());
        }

        /// `invalidate` evicts exactly the lists intersecting the touched
        /// set, inline and spilled alike, and leaves every other id intact.
        #[test]
        fn invalidate_evicts_exactly_the_intersecting_lists(
            lists in prop::collection::vec(prop::collection::vec(0u32..24, 0..13), 1..10),
            touched in prop::collection::vec(0u32..24, 0..4),
        ) {
            let interner = OccInterner::default();
            let got: Vec<OccId> = lists
                .iter()
                .map(|l| interner.intern(OccKey::sorted(&ids(l))))
                .collect();
            let touched: HashSet<AnnotId> = ids(&touched).into_iter().collect();
            let hits = |l: &Vec<u32>| l.iter().any(|&a| touched.contains(&AnnotId(a)));
            let expected: HashSet<OccId> = lists
                .iter()
                .zip(&got)
                .filter(|(l, _)| hits(l))
                .map(|(_, &id)| id)
                .collect();
            prop_assert_eq!(interner.intersecting(&touched), expected.clone());
            prop_assert_eq!(interner.invalidate(&touched), expected);
            for (l, &id) in lists.iter().zip(&got) {
                let want = (!hits(l)).then_some(id);
                prop_assert_eq!(interner.lookup(OccKey::sorted(&ids(l)).as_slice()), want);
            }
        }

        /// A 1-, 2- or 3-version connectivity history, built by records
        /// interleaved with `invalidate_at` fences, answers every epoch
        /// exactly like a plain `Vec<Stamped>` history under `version_at`.
        #[test]
        fn version_history_matches_the_vec_model(
            len in 0usize..13,
            steps in prop::collection::vec((0u64..6, any::<bool>(), any::<bool>()), 1..9),
        ) {
            let occs: Vec<AnnotId> = (0..len as u32).rev().map(AnnotId).collect();
            let touched = HashSet::from([AnnotId(0)]);
            let cache = PrivacyCache::new();
            let mut model: Vec<Stamped<bool>> = Vec::new();
            let mut fences: Vec<u64> = Vec::new();
            for &(epoch, value, fence) in &steps {
                if fence {
                    // Deltas commit in increasing epochs. A fence binds
                    // only to interned lists containing the touched
                    // annotation.
                    let at = fences.last().map_or(epoch, |&f| epoch.max(f + 1));
                    cache.invalidate_at(&touched, at);
                    if !model.is_empty() && len > 0 {
                        fences.push(at);
                        clamp(&mut model, at);
                    }
                    continue;
                }
                let visible = version_at(&model, epoch);
                if visible.is_none() && model.len() == 3 {
                    continue; // keep the history at three versions or fewer
                }
                let stored = cache.connectivity_record(&occs, epoch, value);
                let want = visible.unwrap_or_else(|| {
                    let dead = fences.iter().copied().find(|&r| r > epoch).unwrap_or(u64::MAX);
                    model.push(Stamped { born: epoch, dead, value });
                    value
                });
                prop_assert_eq!(stored, want);
            }
            let last = fences.iter().copied().chain(steps.iter().map(|s| s.0)).max().unwrap_or(0);
            for e in 0..=last + 1 {
                prop_assert_eq!(cache.connectivity_probe(&occs, e), version_at(&model, e), "epoch {}", e);
            }
        }
    }
}
