//! A bench-side replay of Algorithm 1 (the row-by-row privacy computation)
//! built only from public functions, so its internal split can be timed
//! from outside:
//!
//! - `core.concretize`: `for_each_row_concretization`, including the prefix
//!   bookkeeping done in its visitor (prefix clones);
//! - `relational.connectivity`: `monomial_connected` on cache misses;
//! - `core.privacy.keying`: sorting and interning occurrence lists and
//!   probing the replay's caches, as `compute_privacy`'s cache does;
//! - `reveng.consistency`: `ConcreteRow::resolve` + `find_consistent_queries`
//!   on cache misses;
//! - `reveng.canonical`: `canonical_key`;
//! - `reveng.cim`: `cim_queries`.
//!
//! The replay runs on a fixed sample of each cell's lowest-edge candidates:
//! the first ones Algorithm 2 privacy-evaluates, in its order (edge buckets
//! ascending, LOI ascending within a bucket, stable, with its pruning).
//! Every sampled candidate is also evaluated by `compute_privacy` with one
//! shared cache; privacy, concretization counts and cache-miss counts must
//! agree exactly.

use crate::trace::Tracer;
use provabs_core::concretize::for_each_row_concretization;
use provabs_core::loi::{occurrence_loi, LoiDistribution};
use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, PrivacyStats};
use provabs_core::{AbsRow, Abstraction, Bound};
use provabs_relational::{monomial_connected, ConcreteRow, Cq, Tuple};
use provabs_reveng::{
    canonical_key, cim_queries, find_consistent_queries, ContainmentMode, RevOptions,
};
use provabs_semiring::AnnotId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// Candidates replayed per cell.
pub const SAMPLE: usize = 256;

/// A cell's abstraction space: per flat occurrence, its maximal lift and
/// its LOI term per lift (the search's own decomposition).
struct Space {
    occs: Vec<(usize, usize)>,
    max: Vec<u32>,
    table: Vec<Vec<f64>>,
}

impl Space {
    fn new(bound: &Bound<'_>) -> Self {
        let occs = bound.occurrences();
        let max: Vec<u32> = occs.iter().map(|&(r, i)| bound.max_lift(r, i)).collect();
        let table = occs
            .iter()
            .zip(&max)
            .map(|(&(r, i), &m)| {
                (0..=m)
                    .map(|c| occurrence_loi(bound, r, i, c, &LoiDistribution::Uniform))
                    .collect()
            })
            .collect();
        Self { occs, max, table }
    }

    /// Bucket `e` in Algorithm 2's order: lift vectors using `e` edges,
    /// stably sorted by LOI.
    fn bucket(&self, e: u32) -> Vec<(f64, Vec<u32>)> {
        let mut bucket: Vec<(f64, Vec<u32>)> = Vec::new();
        let mut lifts = vec![0u32; self.max.len()];
        with_edges(&self.max, e, 0, &mut lifts, &mut |l| {
            let loi = l.iter().zip(&self.table).map(|(&c, t)| t[c as usize]).sum();
            bucket.push((loi, l.to_vec()));
        });
        bucket.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        bucket
    }

    fn abstraction(&self, bound: &Bound<'_>, lifts: &[u32]) -> Abstraction {
        let mut abs = Abstraction::identity(bound);
        for (&(r, i), &c) in self.occs.iter().zip(lifts) {
            abs.lifts[r][i] = c;
        }
        abs
    }
}

/// Lift vectors using exactly `left` more edges from occurrence `j` on, in
/// Algorithm 2's enumeration order.
fn with_edges(max: &[u32], left: u32, j: usize, lifts: &mut [u32], f: &mut impl FnMut(&[u32])) {
    if j == max.len() {
        if left == 0 {
            f(lifts);
        }
        return;
    }
    if left > max[j..].iter().sum() {
        return;
    }
    for c in 0..=left.min(max[j]) {
        lifts[j] = c;
        with_edges(max, left - c, j + 1, lifts, f);
    }
    lifts[j] = 0;
}

/// The replay's caches, keyed like `PrivacyCache`: interned sorted
/// occurrence lists, connectivity per list, consistent queries per
/// (output, list) prefix.
#[derive(Default)]
pub struct ReplayCache {
    ids: HashMap<Vec<AnnotId>, u32>,
    connected: HashMap<u32, bool>,
    consistent: HashMap<Vec<(Tuple, u32)>, Rc<Vec<Cq>>>,
}

impl ReplayCache {
    fn id(&mut self, occs: &[AnnotId]) -> u32 {
        let mut sorted = occs.to_vec();
        sorted.sort_unstable();
        let next = u32::try_from(self.ids.len()).expect("fewer than 2^32 lists");
        *self.ids.entry(sorted).or_insert(next)
    }
}

/// Algorithm 1's counters as the replay saw them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Concretizations enumerated.
    pub enumerated: usize,
    /// Concretizations kept (connected).
    pub kept: usize,
    /// Connectivity-cache misses (`monomial_connected` calls).
    pub connectivity_misses: usize,
    /// Consistency-cache misses (`find_consistent_queries` calls).
    pub consistency_misses: usize,
}

impl ReplayCounts {
    fn matches(&self, s: &PrivacyStats) -> bool {
        self.enumerated == s.concretizations_enumerated
            && self.kept == s.concretizations_kept
            && self.connectivity_misses == s.connectivity_cache_misses
            && self.consistency_misses == s.consistency_cache_misses
    }
}

fn connected(
    bound: &Bound<'_>,
    occs: &[AnnotId],
    cache: &mut ReplayCache,
    n: &mut ReplayCounts,
    t: &mut Tracer,
) -> bool {
    let (id, hit) = t.hot("core.privacy.keying", |_| {
        let id = cache.id(occs);
        (id, cache.connected.get(&id).copied())
    });
    if let Some(c) = hit {
        return c;
    }
    n.connectivity_misses += 1;
    let c = t.hot("relational.connectivity", |_| {
        monomial_connected(bound.db, occs)
    });
    cache.connected.insert(id, c);
    c
}

fn consistent_of(
    bound: &Bound<'_>,
    abs_rows: &[AbsRow],
    conc: &[Vec<AnnotId>],
    opts: &RevOptions,
    cache: &mut ReplayCache,
    n: &mut ReplayCounts,
    t: &mut Tracer,
) -> Rc<Vec<Cq>> {
    let (key, hit) = t.hot("core.privacy.keying", |_| {
        let key: Vec<(Tuple, u32)> = conc
            .iter()
            .enumerate()
            .map(|(r, occs)| (abs_rows[r].output.clone(), cache.id(occs)))
            .collect();
        let hit = cache.consistent.get(&key).cloned();
        (key, hit)
    });
    if let Some(qs) = hit {
        return qs;
    }
    n.consistency_misses += 1;
    let qs = Rc::new(t.hot("reveng.consistency", |_| {
        let rows: Vec<ConcreteRow> = conc
            .iter()
            .enumerate()
            .filter_map(|(r, occs)| ConcreteRow::resolve(bound.db, &abs_rows[r].output, occs))
            .collect();
        if rows.len() == conc.len() {
            find_consistent_queries(&rows, opts)
        } else {
            Vec::new()
        }
    }));
    cache.consistent.insert(key, Rc::clone(&qs));
    qs
}

/// Algorithm 1, row by row, exactly as `compute_privacy` runs it for
/// examples of two or more rows (`None` = below the threshold).
pub fn replay_privacy(
    bound: &Bound<'_>,
    abs_rows: &[AbsRow],
    cfg: &PrivacyConfig,
    cache: &mut ReplayCache,
    n: &mut ReplayCounts,
    t: &mut Tracer,
) -> Option<usize> {
    assert!(abs_rows.len() > 1, "the replay covers the row-by-row path");
    let opts = RevOptions {
        semiring: cfg.semiring,
        max_alignments: cfg.max_alignments,
        max_expansion_extra: cfg.max_expansion_extra,
        connected_only: false,
    };
    let mode = ContainmentMode::for_semiring(cfg.semiring);
    let cap = cfg.max_concretizations;
    let mut good: Vec<Vec<Vec<AnnotId>>> = Vec::new();
    t.hot("core.concretize", |t| {
        for_each_row_concretization(bound, &abs_rows[0], cap, |occs| {
            n.enumerated += 1;
            if connected(bound, occs, cache, n, t) {
                n.kept += 1;
                good.push(vec![occs.to_vec()]);
            }
            true
        })
    });
    let mut last_cim = 0usize;
    for i in 1..abs_rows.len() {
        let mut candidates: Vec<Vec<Vec<AnnotId>>> = Vec::new();
        for gc in &good {
            t.hot("core.concretize", |t| {
                for_each_row_concretization(bound, &abs_rows[i], cap, |occs| {
                    n.enumerated += 1;
                    if connected(bound, occs, cache, n, t) {
                        n.kept += 1;
                        let mut prefix = gc.clone();
                        prefix.push(occs.to_vec());
                        candidates.push(prefix);
                    }
                    candidates.len() < cap
                })
            });
            if candidates.len() >= cap {
                break;
            }
        }
        let mut qconn: BTreeMap<String, Cq> = BTreeMap::new();
        let mut creators: HashMap<String, Vec<usize>> = HashMap::new();
        for (idx, prefix) in candidates.iter().enumerate() {
            let qs = consistent_of(bound, &abs_rows[..=i], prefix, &opts, cache, n, t);
            for q in qs.iter().filter(|q| q.is_connected()) {
                let key = t.hot("reveng.canonical", |_| canonical_key(q));
                qconn.entry(key.clone()).or_insert_with(|| q.clone());
                creators.entry(key).or_default().push(idx);
            }
        }
        if qconn.len() < cfg.threshold {
            return None;
        }
        let keep: HashSet<usize> = creators.values().flatten().copied().collect();
        good = candidates
            .into_iter()
            .enumerate()
            .filter(|(idx, _)| keep.contains(idx))
            .map(|(_, p)| p)
            .collect();
        let conn: Vec<Cq> = qconn.into_values().collect();
        last_cim = t.hot("reveng.cim", |_| cim_queries(&conn, mode)).len();
        if last_cim < cfg.threshold {
            return None;
        }
    }
    Some(last_cim)
}

/// Replays, under `core.privacy.replay` spans, the first [`SAMPLE`]
/// candidates the search itself privacy-evaluates on this cell (Algorithm 2's
/// order with its LOI pruning and its `minLOI(e)` barrier), and checks each
/// against `compute_privacy`. Returns the number of candidates replayed.
pub fn replay_cell(
    bound: &Bound<'_>,
    cfg: &PrivacyConfig,
    t: &mut Tracer,
) -> Result<usize, String> {
    let space = Space::new(bound);
    let total: u32 = space.max.iter().sum();
    let mut cache = ReplayCache::default();
    let shared = PrivacyCache::new();
    let mut l_best = f64::INFINITY;
    let mut replayed = 0usize;
    for e in 0..=total {
        let bucket = space.bucket(e);
        if bucket.first().is_some_and(|(loi, _)| *loi >= l_best) {
            break;
        }
        for (loi, lifts) in bucket {
            if loi >= l_best {
                continue;
            }
            let abs = space.abstraction(bound, &lifts);
            let rows = t.span("core.bound.apply", |_| {
                bound.apply_abstraction_cached(&abs).0.rows
            });
            let mut n = ReplayCounts::default();
            let got = t.span("core.privacy.replay", |t| {
                replay_privacy(bound, &rows, cfg, &mut cache, &mut n, t)
            });
            let want = t.span("core.privacy.compute", |_| {
                compute_privacy(bound, &rows, cfg, &shared)
            });
            if got != want.privacy || !n.matches(&want.stats) {
                return Err(format!(
                    "replay disagrees with compute_privacy on lifts {:?}: privacy {got:?} vs {:?}, \
                     counts {n:?} vs {:?}",
                    abs.lifts, want.privacy, want.stats
                ));
            }
            if got.is_some() {
                l_best = loi;
            }
            replayed += 1;
            if replayed == SAMPLE {
                return Ok(replayed);
            }
        }
    }
    Ok(replayed)
}
