//! End-to-end and per-layer benchmark of the provenance-abstraction search
//! pipeline (Algorithm 2 with Algorithm 1 inside it): K-example → `Bound`
//! → abstraction enumeration → concretization → connectivity → consistency
//! → CIM → LOI, plus the delta/invalidate/warm-search/persist refresh path.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to run it.

pub mod check;
pub mod replay;
pub mod trace;
pub mod workload;

use check::{verify, Answer, ExpectedTable, Pinned};
use provabs_core::persist::save_best;
use provabs_core::privacy::PrivacyCache;
use provabs_core::search::{
    find_optimal_abstraction_incremental, find_optimal_abstraction_with_cache, BestAbstraction,
    SearchStats,
};
use provabs_core::Bound;
use provabs_datagen::{ChurnConfig, ChurnGenerator};
use provabs_relational::storage::{shared, MemVfs, SharedVfs};
use provabs_relational::{Database, Delta};
use provabs_semiring::AnnotId;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Totals, Tracer};
use workload::{build_scenarios, cell_specs, scenario_of, CellSpec, Scenario, Workload};

/// The generator seed of every workload unless `--data-seed` says otherwise.
pub const DEFAULT_DATA_SEED: u64 = 42;
/// The held-out generator seed: a claimed gain must also hold on it, and no
/// change may be tuned on it.
pub const HELD_OUT_DATA_SEED: u64 = 7;
/// Refreshes per churn scenario per pass.
pub const REFRESHES: usize = 24;
/// Measured passes per run at least (traced runs: of each kind).
const MIN_PASSES: usize = 3;
/// Minimum duration of one set-up timing sample, seconds.
const SETUP_SAMPLE_S: f64 = 0.2;
/// Changes per churn batch (half inserts, half deletes).
pub const CHURN_BATCH: usize = 16;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds the operation order of every pass.
    pub seed: u64,
    /// Seeds the data generators and the churn streams.
    pub data_seed: u64,
    /// Seconds of measured passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Measured passes at most (`None`: until `seconds` have elapsed).
    pub max_passes: Option<usize>,
}

/// Counters of one pass, summed over its operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations run.
    pub ops: usize,
    /// Operations that hit no cap.
    pub exact: usize,
    /// Operations that met `k`.
    pub found: usize,
    /// Abstractions enumerated.
    pub candidates: usize,
    /// Privacy evaluations.
    pub privacy_evals: usize,
    /// Abstraction-memo misses (rows re-abstracted).
    pub rows_abstracted: usize,
    /// Abstraction-memo hits.
    pub abs_hits: usize,
    /// Concretizations enumerated.
    pub conc_enumerated: usize,
    /// Concretizations kept (connected).
    pub conc_kept: usize,
    /// Consistency-cache hits.
    pub cons_hits: usize,
    /// Consistency-cache misses (`find_consistent_queries` calls).
    pub cons_misses: usize,
    /// Connectivity-cache hits.
    pub conn_hits: usize,
    /// Connectivity-cache misses (`monomial_connected` calls).
    pub conn_misses: usize,
    /// Privacy-cache entries at the end of each operation, summed.
    pub cache_entries: usize,
    /// Privacy-cache entries evicted by invalidation.
    pub evicted: usize,
    /// Searches whose warm start was used.
    pub warm_used: usize,
}

impl Counts {
    fn absorb(&mut self, s: &SearchStats, a: &Answer) {
        let p = &s.privacy_stats;
        self.ops += 1;
        self.exact += usize::from(!a.truncated);
        self.found += usize::from(a.found);
        self.candidates += s.abstractions_enumerated;
        self.privacy_evals += s.privacy_evaluations;
        self.rows_abstracted += s.rows_abstracted;
        self.abs_hits += s.abs_cache_hits;
        self.conc_enumerated += p.concretizations_enumerated;
        self.conc_kept += p.concretizations_kept;
        self.cons_hits += p.consistency_cache_hits;
        self.cons_misses += p.consistency_cache_misses;
        self.conn_hits += p.connectivity_cache_hits;
        self.conn_misses += p.connectivity_cache_misses;
        self.warm_used += usize::from(s.warm_start_used);
    }
}

/// One operation's outcome inside a pass.
struct OpResult {
    cell: usize,
    /// The refresh index on `churn_refresh` (0 on the search workloads).
    step: usize,
    ms: f64,
    answer: Option<Answer>,
    error: Option<String>,
}

/// One pass.
struct Pass {
    wall_s: f64,
    ops: Vec<OpResult>,
    counts: Counts,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations attempted, each answer check outside a search or refresh
    /// (first publication, final cold search, replay) counted as one.
    pub attempted: usize,
    /// Operations failed (error, panic, or answer-check failure).
    pub failed: usize,
    /// The first failures' messages, and a per-pass counter mismatch.
    pub errors: Vec<String>,
    /// Metrics in report order: name, value, unit.
    pub metrics: Vec<Metric>,
    /// Per-pass counters (every pass repeats the verification pass's).
    pub counts: Counts,
    /// Every answer of the verification pass, by cell (churn: by refresh).
    pub answers: Vec<(String, Answer)>,
    /// The answers the expected table pins when exact, by table cell name.
    pub pinned: Vec<(String, Answer)>,
    /// Extra lines for the trace summary (metrics not on every workload).
    pub trace_extra: Vec<Metric>,
    /// Kept span records as JSON lines (traced runs).
    pub spans_jsonl: String,
}

impl RunReport {
    /// Whether every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// splitmix64: the benchmark's own deterministic mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The operation order of pass `pass`: a seeded shuffle of `0..n`.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = mix(seed ^ mix(pass as u64));
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile (linear interpolation between closest ranks).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed memory-bound calibration kernel, median of five timings in ms:
/// a dependent pointer chase of 2^21 steps through one random cycle over
/// 4 MiB (twice one core's L2), so every step waits on the shared cache that
/// neighbours contend for. Run at the start and end of every run so a run
/// measured while the machine drifted is visible. Its buffer adds 4 MiB to
/// `peak_rss_mb`.
pub fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 19;
    // Sattolo's shuffle: a single cycle through every slot.
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut state = 0x5eed_u64;
    for i in (1..SLOTS).rev() {
        state = mix(state);
        next.swap(i, (state % i as u64) as usize);
    }
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut at = 0usize;
        for _ in 0..(1 << 21) {
            at = next[at] as usize;
        }
        std::hint::black_box(at);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Runs a closure, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned());
        Err(format!("panic: {msg}"))
    })
}

/// Publishes an answer: `save_best` to the in-memory store.
fn publish(
    vfs: &SharedVfs,
    file: &str,
    best: &BestAbstraction,
    t: &mut Tracer,
) -> Result<(), String> {
    t.span("core.persist.save", |_| save_best(vfs, file, best))
        .map_err(|e| format!("save_best: {e}"))
}

// ---------------------------------------------------------------------------
// Search workloads

struct SearchBench {
    specs: Vec<CellSpec>,
    scenarios: Vec<Scenario>,
    scen_of: Vec<usize>,
    vfs: SharedVfs,
}

fn setup_search(w: Workload, data_seed: u64, t: &mut Tracer) -> Result<SearchBench, String> {
    let specs = cell_specs(w);
    let scenarios = build_scenarios(&specs, data_seed, t)?;
    let scen_of = scenario_of(&specs, &scenarios);
    Ok(SearchBench {
        specs,
        scenarios,
        scen_of,
        vfs: shared(MemVfs::new()),
    })
}

/// One cold search: fresh `Bound`, fresh `PrivacyCache`, publication.
/// Returns the timed part's milliseconds, the answer and its counters;
/// with `verify`, the answer is then re-scored and re-verified.
fn search_op(
    b: &SearchBench,
    ci: usize,
    verify_answer: bool,
    t: &mut Tracer,
) -> Result<(f64, Answer, SearchStats, usize), String> {
    let spec = &b.specs[ci];
    let sc = &b.scenarios[b.scen_of[ci]];
    let cfg = spec.caps.config(spec.k);
    let start = Instant::now();
    let bound = t
        .span("core.bound.bind", |_| {
            Bound::new(&sc.db, &sc.tree, &sc.example)
        })
        .map_err(|e| format!("bind: {e}"))?;
    let cache = PrivacyCache::new();
    let out = t.span("core.search.search", |_| {
        find_optimal_abstraction_with_cache(&bound, &cfg, &cache)
    });
    let entries = cache.len();
    drop(cache);
    if let Some(best) = &out.best {
        publish(&b.vfs, &spec.name(), best, t)?;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if verify_answer {
        verify(&bound, &cfg, &out, t)?;
    }
    Ok((ms, Answer::of(&out), out.stats, entries))
}

fn search_pass(b: &SearchBench, order: &[usize], verify_answers: bool, t: &mut Tracer) -> Pass {
    let mut counts = Counts::default();
    let mut ops = Vec::with_capacity(order.len());
    let start = Instant::now();
    for &ci in order {
        t.set_op(ci as u64);
        let res = guarded(|| search_op(b, ci, verify_answers, t));
        ops.push(match res {
            Ok((ms, answer, stats, entries)) => {
                counts.absorb(&stats, &answer);
                counts.cache_entries += entries;
                OpResult {
                    cell: ci,
                    step: 0,
                    ms,
                    answer: Some(answer),
                    error: None,
                }
            }
            Err(e) => OpResult {
                cell: ci,
                step: 0,
                ms: 0.0,
                answer: None,
                error: Some(format!("{}: {e}", b.specs[ci].name())),
            },
        });
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ops,
        counts,
    }
}

// ---------------------------------------------------------------------------
// Churn workload

struct ChurnScenario {
    spec: CellSpec,
    scenario: Scenario,
    stream: Vec<Delta>,
}

struct ChurnBench {
    scenarios: Vec<ChurnScenario>,
    vfs: SharedVfs,
    /// Answer of the first cold publication per scenario.
    initial: Vec<Answer>,
}

/// The live state of one scenario during a pass.
struct ChurnState {
    db: Database,
    cache: PrivacyCache,
    best: Option<BestAbstraction>,
}

fn setup_churn(data_seed: u64, t: &mut Tracer) -> Result<(ChurnBench, Vec<ChurnState>), String> {
    let specs = cell_specs(Workload::ChurnRefresh);
    let built = build_scenarios(&specs, data_seed, t)?;
    let mut scenarios = Vec::new();
    for (i, (spec, scenario)) in specs.into_iter().zip(built).enumerate() {
        let protected: Vec<AnnotId> = scenario
            .example
            .rows
            .iter()
            .flat_map(|r| r.monomial.occurrences())
            .collect();
        let stream = t.span("datagen.churn", |_| {
            let mut gen = ChurnGenerator::new(&ChurnConfig {
                batch_size: CHURN_BATCH,
                insert_ratio: 0.5,
                seed: mix(data_seed ^ mix(i as u64 + 1)),
            })
            .protect(protected);
            let mut shadow = scenario.db.clone();
            (0..REFRESHES)
                .map(|_| {
                    let d = gen.next_batch(&shadow);
                    shadow.apply_delta(&d);
                    d
                })
                .collect::<Vec<_>>()
        });
        scenarios.push(ChurnScenario {
            spec,
            scenario,
            stream,
        });
    }
    let mut bench = ChurnBench {
        scenarios,
        vfs: shared(MemVfs::new()),
        initial: Vec::new(),
    };
    let states = churn_reset(&mut bench, t)?;
    Ok((bench, states))
}

/// The first cold publication of every scenario on its initial database,
/// with one long-lived cache each.
fn churn_reset(b: &mut ChurnBench, t: &mut Tracer) -> Result<Vec<ChurnState>, String> {
    let mut states = Vec::new();
    let mut initial = Vec::new();
    for cs in &b.scenarios {
        let sc = &cs.scenario;
        let cache = PrivacyCache::new();
        let cfg = cs.spec.caps.config(cs.spec.k);
        let bound = t
            .span("core.bound.bind", |_| {
                Bound::new(&sc.db, &sc.tree, &sc.example)
            })
            .map_err(|e| format!("bind: {e}"))?;
        let out = t.span("core.search.search", |_| {
            find_optimal_abstraction_with_cache(&bound, &cfg, &cache)
        });
        if let Some(best) = &out.best {
            publish(&b.vfs, &cs.spec.name(), best, t)?;
        }
        initial.push(Answer::of(&out));
        states.push(ChurnState {
            db: sc.db.clone(),
            cache,
            best: out.best,
        });
    }
    b.initial = initial;
    Ok(states)
}

/// One refresh: apply the delta, invalidate the touched annotations, rebind,
/// warm-started search, publish.
fn refresh_op(
    cs: &ChurnScenario,
    st: &mut ChurnState,
    i: usize,
    vfs: &SharedVfs,
    verify_answer: bool,
    t: &mut Tracer,
) -> Result<(f64, Answer, SearchStats, usize), String> {
    let cfg = cs.spec.caps.config(cs.spec.k);
    let sc = &cs.scenario;
    let start = Instant::now();
    let applied = t.span("relational.apply_delta", |_| {
        st.db.apply_delta(&cs.stream[i])
    });
    let touched: HashSet<AnnotId> = applied.touched().collect();
    let before = st.cache.len();
    t.span("core.privacy.invalidate", |_| st.cache.invalidate(&touched));
    let evicted = before - st.cache.len();
    let bound = t
        .span("core.bound.bind", |_| {
            Bound::new(&st.db, &sc.tree, &sc.example)
        })
        .map_err(|e| format!("rebind: {e}"))?;
    let out = t.span("core.search.search", |_| {
        find_optimal_abstraction_incremental(&bound, &cfg, &st.cache, st.best.as_ref())
    });
    if let Some(best) = &out.best {
        publish(vfs, &cs.spec.name(), best, t)?;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if verify_answer {
        verify(&bound, &cfg, &out, t)?;
    }
    let answer = Answer::of(&out);
    drop(bound);
    st.best = out.best;
    Ok((ms, answer, out.stats, evicted))
}

/// One pass over the streams: refresh `i` of every scenario, in a seeded
/// order, before refresh `i + 1` of any.
fn churn_pass(
    b: &ChurnBench,
    states: &mut [ChurnState],
    seed: u64,
    n: usize,
    verify_answers: bool,
    t: &mut Tracer,
) -> Pass {
    let mut counts = Counts::default();
    let mut ops = Vec::new();
    let mut dead = vec![false; states.len()];
    let start = Instant::now();
    for i in 0..REFRESHES {
        for si in pass_order(states.len(), seed, n * REFRESHES + i) {
            let (cs, st) = (&b.scenarios[si], &mut states[si]);
            if dead[si] {
                continue;
            }
            t.set_op((i * b.scenarios.len() + si) as u64);
            let res = guarded(|| refresh_op(cs, st, i, &b.vfs, verify_answers, t));
            ops.push(match res {
                Ok((ms, answer, stats, evicted)) => {
                    counts.absorb(&stats, &answer);
                    counts.evicted += evicted;
                    counts.cache_entries += st.cache.len();
                    OpResult {
                        cell: si,
                        step: i,
                        ms,
                        answer: Some(answer),
                        error: None,
                    }
                }
                Err(e) => {
                    // The scenario's state is unknown after a failure.
                    dead[si] = true;
                    OpResult {
                        cell: si,
                        step: i,
                        ms: 0.0,
                        answer: None,
                        error: Some(format!("{} refresh {i}: {e}", cs.spec.name())),
                    }
                }
            });
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ops,
        counts,
    }
}

/// The last warm answer of every scenario must equal a cold search on the
/// final database.
fn churn_final_check(
    b: &ChurnBench,
    states: &[ChurnState],
    last: &[Option<Answer>],
) -> Vec<Result<(), String>> {
    let mut results = Vec::new();
    for ((cs, st), warm) in b.scenarios.iter().zip(states).zip(last) {
        let name = cs.spec.name();
        let Some(warm) = warm else {
            results.push(Err(format!("{name}: no final warm answer")));
            continue;
        };
        let cfg = cs.spec.caps.config(cs.spec.k);
        let sc = &cs.scenario;
        let cold = match Bound::new(&st.db, &sc.tree, &sc.example) {
            Ok(bound) => Answer::of(&find_optimal_abstraction_with_cache(
                &bound,
                &cfg,
                &PrivacyCache::new(),
            )),
            Err(e) => {
                results.push(Err(format!("{name}: final bind failed: {e}")));
                continue;
            }
        };
        let agree = !warm.truncated
            && !cold.truncated
            && warm.found == cold.found
            && warm.loi.to_bits() == cold.loi.to_bits();
        results.push(if agree {
            Ok(())
        } else {
            Err(format!(
                "{name}: final warm answer {warm:?} != cold search on the final database {cold:?}"
            ))
        });
    }
    results
}

// ---------------------------------------------------------------------------
// The run

/// Answer checks of a run: each counts as one attempted operation, and as a
/// failed one if it fails.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// The first failures' messages, and run-level check failures.
    errors: Vec<String>,
    /// Cells capped in the expected table whose answers are now exact.
    newly_exact: Vec<String>,
}

impl Tally {
    fn record(&mut self, cell: &str, check: Result<Pinned, String>) {
        self.attempted += 1;
        match check {
            Ok(Pinned::NewlyExact) => self.newly_exact.push(cell.to_owned()),
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(e);
                }
            }
        }
    }
}

enum Bench {
    Search(SearchBench),
    Churn(ChurnBench, Vec<ChurnState>),
}

impl Bench {
    /// Every cell with its (initial) scenario.
    fn cells(&self) -> Vec<(&CellSpec, &Scenario)> {
        match self {
            Bench::Search(b) => b
                .specs
                .iter()
                .zip(&b.scen_of)
                .map(|(spec, &si)| (spec, &b.scenarios[si]))
                .collect(),
            Bench::Churn(b, _) => b.scenarios.iter().map(|c| (&c.spec, &c.scenario)).collect(),
        }
    }

    fn cell_names(&self) -> Vec<String> {
        self.cells().iter().map(|(spec, _)| spec.name()).collect()
    }

    /// Runs pass number `n` (churn passes start from a fresh cold
    /// publication, outside the pass's timing and spans).
    fn pass(
        &mut self,
        seed: u64,
        n: usize,
        verify_answers: bool,
        t: &mut Tracer,
    ) -> Result<Pass, String> {
        match self {
            Bench::Search(b) => {
                let order = pass_order(b.specs.len(), seed, n);
                Ok(search_pass(b, &order, verify_answers, t))
            }
            Bench::Churn(b, states) => {
                if n > 0 {
                    let on = t.enabled();
                    t.set_enabled(false);
                    *states = churn_reset(b, t)?;
                    t.set_enabled(on);
                }
                Ok(churn_pass(b, states, seed, n, verify_answers, t))
            }
        }
    }
}

fn setup(opts: &Options, t: &mut Tracer) -> Result<Bench, String> {
    Ok(match opts.workload {
        Workload::ChurnRefresh => {
            let (b, s) = setup_churn(opts.data_seed, t)?;
            Bench::Churn(b, s)
        }
        w => Bench::Search(setup_search(w, opts.data_seed, t)?),
    })
}

/// One `setup_s` sample: consecutive set-ups until they take at least
/// `SETUP_SAMPLE_S` in all. Returns the mean time of one set-up and the last
/// instance; records each set-up's span totals.
fn setup_sample(
    opts: &Options,
    t: &mut Tracer,
    totals: &mut Vec<Totals>,
) -> Result<(f64, Bench), String> {
    let (mut spent, mut n) = (0.0, 0usize);
    loop {
        let start = Instant::now();
        let b = setup(opts, t)?;
        spent += start.elapsed().as_secs_f64();
        n += 1;
        totals.push(t.take_totals());
        if spent >= SETUP_SAMPLE_S {
            return Ok((spent / n as f64, b));
        }
    }
}

/// Median span totals per name over phases.
fn median_totals(phases: &[Totals]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut names: Vec<&'static str> = phases.iter().flat_map(|p| p.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let self_ms: Vec<f64> = phases
                .iter()
                .map(|p| p.get(n).map_or(0.0, |s| s.self_ms()))
                .collect();
            let total_ms: Vec<f64> = phases
                .iter()
                .map(|p| p.get(n).map_or(0.0, |s| s.total_ms()))
                .collect();
            (n, (median(&self_ms), median(&total_ms)))
        })
        .collect()
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let mut t = Tracer::new(opts.trace);
    let calib_start = calibrate();
    let table = ExpectedTable::shipped();

    // Set-up, repeated. One set-up of the search workloads takes
    // milliseconds, shorter than the machine's slow and fast phases, so each
    // sample times consecutive set-ups for at least `SETUP_SAMPLE_S`. One
    // sample is taken before the passes (its last instance is kept) and one
    // after every measured pass, so that their median spans the same stretch
    // of time as `pass_s`.
    let mut setup_totals = Vec::new();
    let (first_sample, mut bench) = setup_sample(opts, &mut t, &mut setup_totals)?;
    let mut setup_s = vec![first_sample];
    let clock = Instant::now();
    let phase =
        |what: &str| eprintln!("perfbench: {what} ({:.1} s)", clock.elapsed().as_secs_f64());
    phase(&format!(
        "first set-up sample: {} set-ups, {first_sample:.5} s each",
        setup_totals.len()
    ));
    let names = bench.cell_names();
    let mut tally = Tally::default();
    if let Bench::Churn(b, _) = &bench {
        // The first cold publications.
        for (cs, a) in b.scenarios.iter().zip(&b.initial) {
            let cell = format!("{}/initial", cs.spec.name());
            tally.record(&cell, table.check(opts.data_seed, &cell, a));
        }
    }

    // Verification pass: every answer re-scored, re-verified and, when
    // exact, compared with the expected table. Later passes must repeat it
    // bit for bit.
    let verify_pass = bench.pass(opts.seed, 0, true, &mut t)?;
    phase("verification pass done");
    let verify_totals = t.take_totals();
    let mut reference: BTreeMap<(usize, usize), Answer> = BTreeMap::new();
    let mut last_warm: Vec<Option<Answer>> = vec![None; names.len()];
    for op in &verify_pass.ops {
        let check = match (&op.answer, &op.error) {
            (Some(a), None) => {
                last_warm[op.cell] = Some(a.clone());
                reference.insert((op.cell, op.step), a.clone());
                match &bench {
                    Bench::Search(_) => table.check(opts.data_seed, &names[op.cell], a),
                    Bench::Churn(..) => Ok(Pinned::Capped),
                }
            }
            (_, e) => Err(e.clone().unwrap_or_default()),
        };
        tally.record(&names[op.cell], check);
    }
    if let Bench::Churn(b, states) = &bench {
        // The final cold search of every scenario.
        for (name, check) in names.iter().zip(churn_final_check(b, states, &last_warm)) {
            tally.record(name, check.map(|()| Pinned::Matched));
        }
    }
    for cell in &tally.newly_exact {
        eprintln!("perfbench: {cell}: newly exact (capped in expected.tsv), not compared");
    }

    // Measured passes. Traced runs alternate untraced and traced passes:
    // the untraced ones give the overhead baseline and the refresh
    // percentiles, the traced ones the per-layer numbers.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Totals)> = Vec::new();
    let window = Instant::now();
    let mut n = 1usize;
    loop {
        let passes = untraced.len() + traced.len();
        let done_time = window.elapsed().as_secs_f64() >= opts.seconds;
        let min = if opts.trace {
            2 * MIN_PASSES
        } else {
            MIN_PASSES
        };
        if (passes >= min && done_time) || opts.max_passes.is_some_and(|m| passes >= m) {
            break;
        }
        let trace_this = opts.trace && passes % 2 == 1;
        t.set_enabled(trace_this);
        let pass = bench.pass(opts.seed, n, false, &mut t)?;
        let totals = t.take_totals();
        n += 1;
        t.set_enabled(opts.trace);
        setup_s.push(setup_sample(opts, &mut t, &mut setup_totals)?.0);
        // Every operation must repeat the verification pass's answer.
        for op in &pass.ops {
            let check = match (&op.answer, reference.get(&(op.cell, op.step))) {
                (Some(a), Some(w)) if a.same_as(w) => Ok(Pinned::Matched),
                _ => Err(op.error.clone().unwrap_or_else(|| {
                    format!(
                        "{}: answer differs from the verification pass",
                        names[op.cell]
                    )
                })),
            };
            tally.record(&names[op.cell], check);
        }
        if pass.counts != verify_pass.counts {
            tally
                .errors
                .push("per-pass counters differ from the verification pass".into());
        }
        if trace_this {
            traced.push((pass, totals));
        } else {
            untraced.push(pass);
        }
    }
    t.set_enabled(opts.trace);
    phase(&format!(
        "{} measured passes done",
        untraced.len() + traced.len()
    ));

    let counts = verify_pass.counts.clone();
    let pinned: Vec<(String, Answer)> = match &bench {
        Bench::Search(_) => reference
            .iter()
            .map(|(&(cell, _), a)| (names[cell].clone(), a.clone()))
            .collect(),
        Bench::Churn(b, _) => b
            .scenarios
            .iter()
            .zip(&b.initial)
            .map(|(cs, a)| (format!("{}/initial", cs.spec.name()), a.clone()))
            .collect(),
    };
    let answers: Vec<(String, Answer)> = reference
        .iter()
        .map(|(&(cell, step), a)| (format!("{}#{step}", names[cell]), a.clone()))
        .collect();

    let mut metrics: Vec<Metric> = Vec::new();
    let mut extra: Vec<Metric> = Vec::new();

    let all_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.ms))
        .collect();
    // Pass and operation times of the untraced passes. They drift with the
    // machine by more than any bound an end-to-end metric may have, so they
    // are per-layer metrics of traced runs and diagnostics of untraced ones.
    let pass_s: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for p in &untraced {
        for o in &p.ops {
            per_cell[o.cell].push(o.ms);
        }
    }
    for (name, v) in names.iter().zip(&per_cell) {
        put(
            &mut extra,
            &format!("cell.{name}.median_ms"),
            median(v),
            "ms",
        );
    }
    let logs: Vec<f64> = per_cell.iter().map(|v| median(v).max(1e-6).ln()).collect();
    let geomean = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
    let times = if opts.trace { &mut metrics } else { &mut extra };
    put(times, "pass_s", median(&pass_s), "s");
    put(times, "op_ms_geomean", geomean, "ms");
    eprintln!("perfbench: pass_s samples {pass_s:.3?}");
    if !opts.trace {
        put(&mut metrics, "setup_s", median(&setup_s), "s");
        put(
            &mut metrics,
            "exact_frac",
            ratio(counts.exact, counts.ops),
            "frac",
        );
        put(
            &mut metrics,
            "found_frac",
            ratio(counts.found, counts.ops),
            "frac",
        );
        put(
            &mut metrics,
            "ok_frac",
            1.0 - ratio(tally.failed, tally.attempted),
            "frac",
        );
        put(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
        put(&mut extra, "passes", untraced.len() as f64, "count");
        eprintln!("perfbench: setup_s samples {setup_s:.5?}");
        put(&mut extra, "op_samples", all_ms.len() as f64, "count");
    } else {
        // Replay of Algorithm 1 on every cell's low-edge sample.
        let replay_totals = {
            let mut replayed = 0usize;
            for (spec, sc) in bench.cells() {
                let r = Bound::new(&sc.db, &sc.tree, &sc.example)
                    .map_err(|e| e.to_string())
                    .and_then(|bound| {
                        replay::replay_cell(&bound, &spec.caps.config(spec.k).privacy, &mut t)
                    });
                let check = r.map(|k| {
                    replayed += k;
                    Pinned::Matched
                });
                tally.record(
                    &spec.name(),
                    check.map_err(|e| format!("{}: {e}", spec.name())),
                );
            }
            phase("replay done");
            put(&mut extra, "replay.candidates", replayed as f64, "count");
            t.take_totals()
        };

        let c = &counts;
        let probes = c.conn_hits + c.conn_misses;
        for (name, v, unit) in [
            (
                "core.concretize.enumerated",
                c.conc_enumerated as f64,
                "count",
            ),
            (
                "core.concretize.kept_ratio",
                ratio(c.conc_kept, c.conc_enumerated),
                "frac",
            ),
            ("relational.connectivity.probes", probes as f64, "count"),
            (
                "relational.connectivity.miss_ratio",
                ratio(c.conn_misses, probes),
                "frac",
            ),
            ("reveng.consistency.calls", c.cons_misses as f64, "count"),
            (
                "core.privacy.consistency_hit_ratio",
                ratio(c.cons_hits, c.cons_hits + c.cons_misses),
                "frac",
            ),
            ("core.search.candidates", c.candidates as f64, "count"),
            ("core.search.privacy_evals", c.privacy_evals as f64, "count"),
            (
                "core.search.prune_ratio",
                1.0 - ratio(c.privacy_evals, c.candidates).min(1.0),
                "frac",
            ),
            (
                "core.bound.abs_memo_hit_ratio",
                ratio(c.abs_hits, c.abs_hits + c.rows_abstracted),
                "frac",
            ),
            (
                "core.privacy.cache_entries",
                c.cache_entries as f64,
                "count",
            ),
            ("core.privacy.evicted_entries", c.evicted as f64, "count"),
            (
                "core.search.warm_start_frac",
                ratio(c.warm_used, c.ops),
                "frac",
            ),
        ] {
            put(&mut metrics, name, v, unit);
        }

        // Set-up spans: median over every set-up of the run, and share of
        // the set-up.
        let setup_med = median_totals(&setup_totals);
        let setup_ms = median(&setup_s) * 1e3;
        for span in ["datagen.generate", "relational.kexample", "tree.build"] {
            let ms = setup_med.get(span).map_or(0.0, |v| v.0);
            put(&mut metrics, &format!("{span}_ms"), ms, "ms");
            put(
                &mut metrics,
                &format!("{span}.share"),
                ms / setup_ms,
                "frac",
            );
        }
        if let Some(v) = setup_med.get("datagen.churn") {
            put(&mut extra, "datagen.churn_ms", v.0, "ms");
        }

        // Per-operation spans: median self time per traced pass, and share
        // of the traced pass.
        let pass_totals: Vec<Totals> = traced.iter().map(|(_, tt)| tt.clone()).collect();
        let pass_med = median_totals(&pass_totals);
        let traced_s: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
        let untraced_s: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let traced_ms = median(&traced_s) * 1e3;
        for span in ["core.bound.bind", "core.search.search", "core.persist.save"] {
            let ms = pass_med.get(span).map_or(0.0, |v| v.0);
            put(&mut metrics, &format!("{span}_ms"), ms, "ms");
            put(
                &mut metrics,
                &format!("{span}.share"),
                ms / traced_ms,
                "frac",
            );
        }
        for span in ["relational.apply_delta", "core.privacy.invalidate"] {
            let ms = pass_med.get(span).map_or(0.0, |v| v.0);
            put(
                &mut metrics,
                &format!("{span}.share"),
                ms / traced_ms,
                "frac",
            );
            if matches!(bench, Bench::Churn(..)) {
                put(&mut extra, &format!("{span}_ms"), ms, "ms");
            }
        }
        let loi_ms = verify_totals
            .get("core.loi.rescore")
            .map_or(0.0, |s| s.self_ms());
        put(&mut metrics, "core.loi.rescore_ms", loi_ms, "ms");

        // Replay split: self time and share of the replay.
        let replay_ms = replay_totals
            .get("core.privacy.replay")
            .map_or(0.0, |s| s.total_ms());
        put(&mut metrics, "core.privacy.replay_ms", replay_ms, "ms");
        for span in [
            "core.concretize",
            "relational.connectivity",
            "core.privacy.keying",
            "reveng.consistency",
            "reveng.canonical",
            "reveng.cim",
        ] {
            let ms = replay_totals.get(span).map_or(0.0, |s| s.self_ms());
            put(&mut metrics, &format!("{span}.self_ms"), ms, "ms");
            put(
                &mut metrics,
                &format!("{span}.share"),
                ratio_f(ms, replay_ms),
                "frac",
            );
        }
        let replay_self = replay_totals
            .get("core.privacy.replay")
            .map_or(0.0, |s| s.self_ms());
        put(&mut extra, "core.privacy.replay.self_ms", replay_self, "ms");

        put(
            &mut metrics,
            "trace.overhead_frac",
            traced_ms / (median(&untraced_s) * 1e3) - 1.0,
            "frac",
        );
        if matches!(bench, Bench::Churn(..)) {
            put(&mut extra, "refresh_ms_p50", quantile(&all_ms, 0.5), "ms");
            put(&mut extra, "refresh_ms_p90", quantile(&all_ms, 0.9), "ms");
            put(&mut extra, "refresh_samples", all_ms.len() as f64, "count");
        }
    }
    // The drift diagnostic: per-layer in traced runs, standard error only in
    // untraced ones.
    let calib_end = calibrate();
    let calib = if opts.trace { &mut metrics } else { &mut extra };
    put(calib, "calib.start_ms", calib_start, "ms");
    put(calib, "calib.end_ms", calib_end, "ms");
    put(
        calib,
        "calib.drift_frac",
        calib_end / calib_start - 1.0,
        "frac",
    );

    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        counts,
        answers,
        pinned,
        trace_extra: extra,
        spans_jsonl: t.records_jsonl(),
    })
}

type Metric = (String, f64, &'static str);

fn put(m: &mut Vec<Metric>, name: &str, v: f64, unit: &'static str) {
    m.push((name.to_owned(), v, unit));
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
