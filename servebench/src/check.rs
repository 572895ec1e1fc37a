//! The correctness anchor: after the timed window, the digests the
//! clients recorded are compared with answers re-computed by the
//! sequential `QpptEngine` — for the whole dashboard pool and a seeded
//! sample of the fresh texts — and, where asked, the oracle itself is
//! cross-checked against the reference hash-join executor.

use std::collections::{HashMap, HashSet};

use qppt_core::{PlanOptions, QpptEngine};
use qppt_ssb::{queries, run_reference};
use qppt_storage::{Database, QuerySpec};

use crate::drive::{digest, Rec};
use crate::stream::{fnv64, Request};

/// The spec behind a `RUN <alias>` or `QUERY <text>` line.
pub fn spec_of(line: &str) -> QuerySpec {
    if let Some(name) = line.strip_prefix("RUN ") {
        return queries::all_queries()
            .into_iter()
            .find(|q| q.id.eq_ignore_ascii_case(name))
            .expect("aliases name SSB queries");
    }
    let text = line.strip_prefix("QUERY ").expect("a RUN or QUERY line");
    qppt_query::parse(text).expect("generated texts parse")
}

/// Outcome of the anchor.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Distinct requests re-computed by the oracle.
    pub oracle_queries: usize,
    /// Responses compared against an oracle digest.
    pub responses: u64,
    /// Responses whose digest differed.
    pub mismatched: u64,
    /// Oracle answers cross-checked against `run_reference`.
    pub reference_checked: usize,
    pub reference_mismatched: usize,
}

/// Re-computes the answers of every pool entry drawn in `recs` and of `sample` fresh texts
/// (chosen by a seeded hash of their key) on `db`, compares every
/// successful response in `recs` whose request was re-computed, and runs
/// the first `reference` of those specs through `run_reference` too.
pub fn check(
    db: &Database,
    pool: &[Request],
    recs: &[Rec],
    fresh_lines: &HashMap<u64, String>,
    seed: u64,
    sample: usize,
    reference: usize,
) -> Checked {
    let mut fresh: Vec<u64> = fresh_lines.keys().copied().collect();
    fresh.sort_by_key(|k| fnv64(&(k ^ seed).to_le_bytes()));
    fresh.truncate(sample);
    let drawn: HashSet<usize> = recs.iter().filter_map(|r| r.pool_idx).collect();
    let lines: Vec<(u64, &str)> = fresh
        .iter()
        .map(|k| (*k, fresh_lines[k].as_str()))
        .chain(
            pool.iter()
                .filter(|r| r.pool_idx.is_some_and(|i| drawn.contains(&i)))
                .map(|r| (r.key, r.line.as_str())),
        )
        .collect();

    let oracle = QpptEngine::new(db);
    let opts = PlanOptions::default();
    let mut out = Checked::default();
    let mut expected = HashMap::new();
    for (i, (key, line)) in lines.iter().enumerate() {
        let spec = spec_of(line);
        let answer = oracle
            .run(&spec, &opts)
            .expect("the oracle answers generated queries");
        if i < reference {
            let snap = db.snapshot();
            let naive = run_reference(db, &spec, snap).expect("the reference executor answers");
            out.reference_checked += 1;
            if naive.canonicalized() != answer.clone().canonicalized() {
                eprintln!("reference mismatch: {line}");
                out.reference_mismatched += 1;
            }
        }
        expected.insert(*key, digest(&answer));
    }
    out.oracle_queries = expected.len();
    for r in recs.iter().filter(|r| r.ok) {
        if let Some(want) = expected.get(&r.key) {
            out.responses += 1;
            if *want != r.digest {
                out.mismatched += 1;
            }
        }
    }
    out
}
