//! The three workloads: their cells, caps, and set-up.

use crate::trace::Tracer;
use provabs_core::loi::LoiDistribution;
use provabs_core::privacy::PrivacyConfig;
use provabs_core::search::SearchConfig;
use provabs_core::Bound;
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::kexample_for_mode;
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{Database, KExample, PlanMode};
use provabs_tree::AbstractionTree;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold IMDB searches whose time goes to concretization and
    /// connectivity.
    SearchConc,
    /// Cold TPC-H searches plus two IMDB cells whose time goes to
    /// consistency and CIM.
    SearchReveng,
    /// Delta, invalidation, rebind, warm search and persist on TPC-H.
    ChurnRefresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SearchConc,
        Workload::SearchReveng,
        Workload::ChurnRefresh,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchConc => "search_conc",
            Workload::SearchReveng => "search_reveng",
            Workload::ChurnRefresh => "churn_refresh",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Deterministic work caps of one search (no wall-clock budget, so the work
/// done and the answer do not depend on machine speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Abstractions enumerated per search.
    pub max_candidates: usize,
    /// Concretizations per privacy evaluation.
    pub max_concretizations: usize,
    /// Alignments per consistency call.
    pub max_alignments: usize,
}

/// The scenario harness's default caps (`HarnessCaps::default()` without
/// its 8 s wall-clock budget).
pub const HARNESS_CAPS: Caps = Caps {
    max_candidates: 200_000,
    max_concretizations: 20_000,
    max_alignments: 20_000,
};

/// Caps of the IMDB cells: tight enough that one k=5 search stays within
/// seconds and tens of MiB.
pub const IMDB_CAPS: Caps = Caps {
    max_candidates: 1_000,
    max_concretizations: 2_000,
    max_alignments: 20_000,
};

/// TPCH-Q5 with the harness caps spends 3 s per cell in truncated privacy
/// evaluations, most of a pass; its concretization cap is lowered so that
/// no single cell dominates `pass_s`.
pub const TPCH_Q5_CAPS: Caps = Caps {
    max_concretizations: 1_000,
    ..HARNESS_CAPS
};

impl Caps {
    /// The single-threaded search configuration at threshold `k`.
    pub fn config(&self, k: usize) -> SearchConfig {
        SearchConfig {
            privacy: PrivacyConfig {
                threshold: k,
                max_alignments: self.max_alignments,
                max_concretizations: self.max_concretizations,
                ..Default::default()
            },
            max_candidates: self.max_candidates,
            time_budget_ms: None,
            distribution: LoiDistribution::Uniform,
            parallelism: Some(1),
            ..Default::default()
        }
    }
}

/// Generator scale (the scenario harness defaults).
const TPCH_LINEITEMS: usize = 2_000;
const IMDB_PEOPLE: usize = 150;
const IMDB_MOVIES: usize = 150;
const IMDB_CAST: usize = 5;
const TREE_LEAVES: usize = 800;
const TREE_HEIGHT: u32 = 5;
/// K-example rows (the paper's default).
pub const EXAMPLE_ROWS: usize = 2;

/// One cell of a search workload: a query's scenario at a threshold.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Workload query name (`IMDB-Q1`, `TPCH-Q3`, ...).
    pub query: &'static str,
    /// Privacy threshold.
    pub k: usize,
    /// Work caps.
    pub caps: Caps,
}

fn cells(queries: &[&'static str], ks: &[usize], caps: impl Fn(&str) -> Caps) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for &query in queries {
        for &k in ks {
            out.push(CellSpec {
                query,
                k,
                caps: caps(query),
            });
        }
    }
    out
}

/// The cells of a workload (for `churn_refresh`: one per scenario).
pub fn cell_specs(w: Workload) -> Vec<CellSpec> {
    match w {
        Workload::SearchConc => {
            // IMDB-Q1 at k=5 alone would be about half of a pass.
            let mut out = cells(&["IMDB-Q1"], &[2], |_| IMDB_CAPS);
            out.extend(cells(
                &["IMDB-Q2", "IMDB-Q4", "IMDB-Q5", "IMDB-Q6"],
                &[2, 5],
                |_| IMDB_CAPS,
            ));
            out
        }
        Workload::SearchReveng => {
            let mut out = cells(
                &[
                    "TPCH-Q3", "TPCH-Q4", "TPCH-Q5", "TPCH-Q7", "TPCH-Q9", "TPCH-Q10", "TPCH-Q21",
                ],
                &[5, 10],
                |q| {
                    if q == "TPCH-Q5" {
                        TPCH_Q5_CAPS
                    } else {
                        HARNESS_CAPS
                    }
                },
            );
            out.extend(cells(&["IMDB-Q3"], &[5], |_| IMDB_CAPS));
            out.extend(cells(&["IMDB-Q7"], &[2], |_| IMDB_CAPS));
            out
        }
        Workload::ChurnRefresh => {
            cells(&["TPCH-Q3", "TPCH-Q7", "TPCH-Q10"], &[10], |_| HARNESS_CAPS)
        }
    }
}

impl CellSpec {
    /// The cell's name, e.g. `IMDB-Q1/k2`.
    pub fn name(&self) -> String {
        format!("{}/k{}", self.query, self.k)
    }
}

/// A ready-to-search scenario: database, compatible tree, K-example.
#[derive(Debug)]
pub struct Scenario {
    /// Workload query name.
    pub query: &'static str,
    /// The annotated database (tree labels interned).
    pub db: Database,
    /// The abstraction tree.
    pub tree: AbstractionTree,
    /// The K-example to abstract.
    pub example: KExample,
}

/// Builds one scenario per distinct query of `specs` on the data seed:
/// generation, K-example extraction, tree building and one bind each, under
/// the set-up spans.
pub fn build_scenarios(
    specs: &[CellSpec],
    data_seed: u64,
    t: &mut Tracer,
) -> Result<Vec<Scenario>, String> {
    let mut queries: Vec<&'static str> = specs.iter().map(|c| c.query).collect();
    queries.dedup();
    let mut out = Vec::new();
    if queries.iter().any(|q| q.starts_with("IMDB")) {
        let cfg = ImdbConfig {
            num_people: IMDB_PEOPLE,
            num_movies: IMDB_MOVIES,
            cast_per_movie: IMDB_CAST,
            seed: data_seed,
        };
        let (proto, rels) = t.span("datagen.generate", |_| imdb::generate(&cfg));
        let workloads = imdb::imdb_queries(proto.schema());
        for &q in queries.iter().filter(|q| q.starts_with("IMDB")) {
            let w = workloads
                .iter()
                .find(|w| w.name == q)
                .ok_or_else(|| format!("unknown IMDB query {q}"))?;
            let mut db = proto.clone();
            let example = t
                .span("relational.kexample", |_| {
                    kexample_for_mode(&db, &w.query, EXAMPLE_ROWS, PlanMode::default())
                })
                .ok_or_else(|| format!("{q}: no {EXAMPLE_ROWS}-row K-example"))?;
            let tree = t.span("tree.build", |_| imdb::imdb_tree(&mut db, &rels));
            out.push(Scenario {
                query: q,
                db,
                tree,
                example,
            });
        }
    }
    if queries.iter().any(|q| q.starts_with("TPCH")) {
        let cfg = TpchConfig {
            lineitem_rows: TPCH_LINEITEMS,
            seed: data_seed,
        };
        let (proto, rels) = t.span("datagen.generate", |_| tpch::generate(&cfg));
        let workloads = tpch::tpch_queries(proto.schema());
        for &q in queries.iter().filter(|q| q.starts_with("TPCH")) {
            let w = workloads
                .iter()
                .find(|w| w.name == q)
                .ok_or_else(|| format!("unknown TPC-H query {q}"))?;
            let mut db = proto.clone();
            let example = t
                .span("relational.kexample", |_| {
                    kexample_for_mode(&db, &w.query, EXAMPLE_ROWS, PlanMode::default())
                })
                .ok_or_else(|| format!("{q}: no {EXAMPLE_ROWS}-row K-example"))?;
            let tree = t.span("tree.build", |_| {
                tpch::tpch_tree_covering(
                    &mut db,
                    &rels,
                    &example,
                    TREE_LEAVES,
                    TREE_HEIGHT,
                    data_seed,
                    false,
                )
            });
            out.push(Scenario {
                query: q,
                db,
                tree,
                example,
            });
        }
    }
    for s in &out {
        t.span("core.bound.bind", |_| {
            Bound::new(&s.db, &s.tree, &s.example)
        })
        .map_err(|e| format!("{}: bind failed: {e}", s.query))?;
    }
    Ok(out)
}

/// The scenario index of every cell.
pub fn scenario_of(specs: &[CellSpec], scenarios: &[Scenario]) -> Vec<usize> {
    specs
        .iter()
        .map(|c| {
            scenarios
                .iter()
                .position(|s| s.query == c.query)
                .expect("every cell's query has a scenario")
        })
        .collect()
}
