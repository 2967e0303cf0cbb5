//! The answer checker behind `ok_frac`: every returned abstraction is
//! re-scored and re-verified, and exact answers are compared with the
//! checked-in expected-answer table.

use crate::trace::Tracer;
use provabs_core::loi::{loss_of_information, LoiDistribution};
use provabs_core::privacy::{compute_privacy, PrivacyCache};
use provabs_core::search::{SearchConfig, SearchOutcome};
use provabs_core::Bound;

/// The answer-level fields of one search.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Whether an abstraction met `k`.
    pub found: bool,
    /// Its LOI (0 when not found).
    pub loi: f64,
    /// Its privacy (0 when not found).
    pub privacy: usize,
    /// Tree edges it uses (0 when not found).
    pub edges: u32,
    /// The abstraction's lifts (empty when not found).
    pub lifts: Vec<Vec<u32>>,
    /// Whether a cap was hit (the answer is then a lower bound).
    pub truncated: bool,
}

impl Answer {
    /// The answer of a search outcome.
    pub fn of(out: &SearchOutcome) -> Self {
        let truncated = out.stats.truncated || out.stats.privacy_stats.truncated;
        match &out.best {
            Some(b) => Answer {
                found: true,
                loi: b.loi,
                privacy: b.privacy,
                edges: b.edges_used,
                lifts: b.abstraction.lifts.clone(),
                truncated,
            },
            None => Answer {
                found: false,
                loi: 0.0,
                privacy: 0,
                edges: 0,
                lifts: Vec::new(),
                truncated,
            },
        }
    }

    /// Bit-exact equality (LOI compared by bits).
    pub fn same_as(&self, other: &Answer) -> bool {
        self.loi.to_bits() == other.loi.to_bits() && self == other
    }

    /// One expected-table row for this answer (`data_seed cell found loi
    /// privacy edges`, tab-separated; LOI with all its digits), or
    /// `data_seed cell capped` when a cap was hit.
    pub fn table_row(&self, data_seed: u64, cell: &str) -> String {
        if self.truncated {
            return format!("{data_seed}\t{cell}\tcapped");
        }
        format!(
            "{data_seed}\t{cell}\t{}\t{:?}\t{}\t{}",
            u8::from(self.found),
            self.loi,
            self.privacy,
            self.edges
        )
    }
}

/// Re-scores the outcome's abstraction with `loss_of_information` and
/// re-verifies it with `compute_privacy` under a fresh cache: the LOI must
/// equal the reported one bit for bit, and the privacy must be at least `k`
/// and equal to the reported value.
pub fn verify(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    out: &SearchOutcome,
    t: &mut Tracer,
) -> Result<(), String> {
    let Some(best) = &out.best else {
        return Ok(());
    };
    if !best.abstraction.validate(bound) {
        return Err("abstraction does not fit the bound".into());
    }
    let loi = t.span("core.loi.rescore", |_| {
        loss_of_information(bound, &best.abstraction, &LoiDistribution::Uniform)
    });
    if loi.to_bits() != best.loi.to_bits() {
        return Err(format!("LOI re-score {loi:?} != reported {:?}", best.loi));
    }
    if best.abstraction.edges_used() != best.edges_used {
        return Err(format!(
            "edges {} != reported {}",
            best.abstraction.edges_used(),
            best.edges_used
        ));
    }
    let rows = best.abstraction.apply(bound).rows;
    let p = t.span("core.privacy.verify", |_| {
        compute_privacy(bound, &rows, &cfg.privacy, &PrivacyCache::new())
    });
    match p.privacy {
        Some(p) if p == best.privacy && p >= cfg.privacy.threshold => Ok(()),
        other => Err(format!(
            "privacy re-verification {other:?} != reported {} (k = {})",
            best.privacy, cfg.privacy.threshold
        )),
    }
}

/// One row of the expected-answer table.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    /// The cell's exact answer: found, LOI, privacy, edges.
    Exact(bool, f64, usize, u32),
    /// The cell hit a cap when the table was recorded; it pins nothing.
    Capped,
}

/// What the expected table says about one answer that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinned {
    /// The exact answer matched its row.
    Matched,
    /// The answer hit a cap, so it is a lower bound and is not compared.
    Capped,
    /// The cell was capped when the table was recorded and is now exact:
    /// nothing to compare it with (re-record the table to pin it).
    NewlyExact,
    /// The table holds no answers for this data seed.
    Uncovered,
}

/// The checked-in answers of every cell: exact answers pinned, capped cells
/// marked.
pub struct ExpectedTable {
    rows: Vec<(u64, String, Expected)>,
}

/// The table shipped with the benchmark.
const EXPECTED_TSV: &str = include_str!("../expected.tsv");

impl ExpectedTable {
    /// The table shipped with the benchmark.
    pub fn shipped() -> Self {
        Self::parse(EXPECTED_TSV).expect("expected.tsv is well-formed")
    }

    /// Parses tab-separated rows (`data_seed cell found loi privacy edges`,
    /// or `data_seed cell capped`); `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad expected row: {line}");
            let expected = match f.len() {
                3 if f[2] == "capped" => Expected::Capped,
                6 => Expected::Exact(
                    f[2] == "1",
                    f[3].parse().map_err(|_| bad())?,
                    f[4].parse().map_err(|_| bad())?,
                    f[5].parse().map_err(|_| bad())?,
                ),
                _ => return Err(bad()),
            };
            rows.push((f[0].parse().map_err(|_| bad())?, f[1].to_owned(), expected));
        }
        Ok(Self { rows })
    }

    /// Whether the table holds answers for `data_seed`.
    pub fn covers(&self, data_seed: u64) -> bool {
        self.rows.iter().any(|r| r.0 == data_seed)
    }

    /// Checks an answer against the table. Capped answers are lower bounds
    /// and are not compared. An exact answer fails only if its row pins a
    /// different answer, or if a covered data seed has no row for its cell.
    pub fn check(&self, data_seed: u64, cell: &str, a: &Answer) -> Result<Pinned, String> {
        if a.truncated {
            return Ok(Pinned::Capped);
        }
        if !self.covers(data_seed) {
            return Ok(Pinned::Uncovered);
        }
        let Some((_, _, expected)) = self.rows.iter().find(|r| r.0 == data_seed && r.1 == cell)
        else {
            return Err(format!("{cell}: no row in expected.tsv"));
        };
        let &Expected::Exact(found, loi, privacy, edges) = expected else {
            return Ok(Pinned::NewlyExact);
        };
        let matches = found == a.found
            && loi.to_bits() == a.loi.to_bits()
            && privacy == a.privacy
            && edges == a.edges;
        if matches {
            Ok(Pinned::Matched)
        } else {
            Err(format!(
                "{cell}: exact answer (found {}, loi {:?}, privacy {}, edges {}) != expected \
                 (found {found}, loi {loi:?}, privacy {privacy}, edges {edges})",
                a.found, a.loi, a.privacy, a.edges
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_core::fixtures::running_example;
    use provabs_core::search::find_optimal_abstraction;

    fn outcome() -> (SearchConfig, provabs_core::fixtures::RunningExample) {
        let cfg = crate::workload::HARNESS_CAPS.config(2);
        (cfg, running_example())
    }

    #[test]
    fn checker_accepts_true_answers_and_rejects_corrupt_ones() {
        let (cfg, fx) = outcome();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut out = find_optimal_abstraction(&bound, &cfg);
        let mut t = Tracer::new(false);
        verify(&bound, &cfg, &out, &mut t).unwrap();

        let best = out.best.as_mut().unwrap();
        best.loi += 1e-9;
        assert!(verify(&bound, &cfg, &out, &mut t)
            .unwrap_err()
            .contains("LOI"));
        let best = out.best.as_mut().unwrap();
        best.loi -= 1e-9;
        best.loi = loss_of_information(&bound, &best.abstraction, &LoiDistribution::Uniform);
        best.privacy += 1;
        assert!(verify(&bound, &cfg, &out, &mut t)
            .unwrap_err()
            .contains("privacy"));
    }

    #[test]
    fn table_round_trips_and_pins_exact_answers() {
        let (cfg, fx) = outcome();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let a = Answer::of(&find_optimal_abstraction(&bound, &cfg));
        assert!(!a.truncated);
        let mut capped = a.clone();
        capped.truncated = true;
        let text = format!(
            "{}\n{}",
            a.table_row(1, "RE/k2"),
            capped.table_row(1, "RE/k3")
        );
        let table = ExpectedTable::parse(&text).unwrap();
        assert_eq!(table.check(1, "RE/k2", &a), Ok(Pinned::Matched));
        assert_eq!(table.check(2, "RE/k2", &a), Ok(Pinned::Uncovered));
        assert!(
            table.check(1, "RE/k4", &a).is_err(),
            "a covered seed without the cell's row is an error"
        );
        let mut wrong = a.clone();
        wrong.edges += 1;
        assert!(table.check(1, "RE/k2", &wrong).is_err());
        wrong.truncated = true;
        assert_eq!(table.check(1, "RE/k2", &wrong), Ok(Pinned::Capped));
        // A cell capped at recording time that turns exact is reported, not
        // failed.
        assert_eq!(table.check(1, "RE/k3", &a), Ok(Pinned::NewlyExact));
        assert_eq!(table.check(1, "RE/k3", &capped), Ok(Pinned::Capped));
    }

    #[test]
    fn shipped_table_parses() {
        let t = ExpectedTable::shipped();
        assert!(t.covers(crate::DEFAULT_DATA_SEED));
        assert!(t.covers(crate::HELD_OUT_DATA_SEED));
    }
}
