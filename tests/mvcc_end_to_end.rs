//! Transactional isolation across the whole stack: writes through the
//! catalog (with index maintenance) must be visible exactly to the right
//! snapshots on every engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use qppt::columnar::{ColumnAtATimeEngine, ColumnDb, VectorAtATimeEngine};
use qppt::core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt::par::{PooledEngine, WorkerPool};
use qppt::ssb::{queries, run_reference, SsbDb};
use qppt::storage::Value;

/// Inserts a lineorder row that matches Q1.1 and returns the revenue delta
/// it contributes to Q1.1's `sum(lo_extendedprice * lo_discount)`.
fn insert_matching_row(ssb: &mut SsbDb) -> i64 {
    let ship = {
        let lo = ssb.db.table("lineorder").unwrap().table();
        lo.value(0, lo.schema().col("lo_shipmode").unwrap())
    };
    let extended = 7000i64;
    let discount = 3i64;
    ssb.db
        .insert_row(
            "lineorder",
            &[
                Value::Int(777_777),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(19930301),
                Value::Int(20),       // quantity < 25
                Value::Int(extended), // extendedprice
                Value::Int(extended), // ordtotalprice
                Value::Int(discount), // discount in [1,3]
                Value::Int(extended * (100 - discount) / 100),
                Value::Int(100),
                Value::Int(0),
                ship,
            ],
        )
        .unwrap();
    extended * discount
}

#[test]
fn insert_then_delete_walks_snapshots_consistently() {
    let mut ssb = SsbDb::generate(0.01, 55);
    let q = queries::q1_1();
    let opts = PlanOptions::default();
    prepare_indexes(&mut ssb.db, &q, &opts).unwrap();

    let s0 = ssb.db.snapshot();
    let base = {
        let engine = QpptEngine::new(&ssb.db);
        engine.run_at(&q, &opts, s0).unwrap().0.rows[0].agg_values[0]
    };

    let delta = insert_matching_row(&mut ssb);
    let s1 = ssb.db.snapshot();

    // Delete some matching row that existed at s0: find one via the oracle's
    // predicate logic — simplest is to delete the inserted row again later,
    // so first verify s1.
    let engine = QpptEngine::new(&ssb.db);
    assert_eq!(
        engine.run_at(&q, &opts, s1).unwrap().0.rows[0].agg_values[0],
        base + delta
    );
    assert_eq!(
        engine.run_at(&q, &opts, s0).unwrap().0.rows[0].agg_values[0],
        base,
        "old snapshot must not see the insert"
    );

    // Delete the new row version (it is the last rid).
    let new_rid = ssb.db.table("lineorder").unwrap().version_count() as u32 - 1;
    ssb.db.delete_row("lineorder", new_rid).unwrap();
    let s2 = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    assert_eq!(
        engine.run_at(&q, &opts, s2).unwrap().0.rows[0].agg_values[0],
        base,
        "delete takes effect for new snapshots"
    );
    assert_eq!(
        engine.run_at(&q, &opts, s1).unwrap().0.rows[0].agg_values[0],
        base + delta,
        "snapshot between insert and delete still sees the row"
    );

    // All engines agree at every snapshot.
    for snap in [s0, s1, s2] {
        let oracle = run_reference(&ssb.db, &q, snap).unwrap().canonicalized();
        let cdb = ColumnDb::new(&ssb.db, snap);
        assert_eq!(
            VectorAtATimeEngine::run(&cdb, &q).unwrap().canonicalized(),
            oracle
        );
        assert_eq!(
            ColumnAtATimeEngine::run(&cdb, &q).unwrap().canonicalized(),
            oracle
        );
        assert_eq!(
            engine.run_at(&q, &opts, snap).unwrap().0.canonicalized(),
            oracle
        );
    }
}

#[test]
fn update_moves_a_tuple_between_groups() {
    // Update a part's brand: Q2.x group totals must move accordingly,
    // and only for snapshots after the update.
    let mut ssb = SsbDb::generate(0.01, 56);
    let q = queries::q2_1();
    let opts = PlanOptions::default();
    prepare_indexes(&mut ssb.db, &q, &opts).unwrap();

    let s0 = ssb.db.snapshot();
    let before = {
        let engine = QpptEngine::new(&ssb.db);
        engine.run_at(&q, &opts, s0).unwrap().0
    };

    // Update part rid 0 via delete+insert through the MVCC API.
    let old_row: Vec<Value> = {
        let part = ssb.db.table("part").unwrap().table();
        (0..part.schema().width())
            .map(|c| part.value(0, c))
            .collect()
    };
    // Change its category to something matched by Q2.1 only if it was not;
    // either way the update must keep engines consistent with the oracle.
    let mut new_row = old_row.clone();
    new_row[3] = Value::str("MFGR#12");
    new_row[4] = Value::str("MFGR#1221");
    ssb.db.delete_row("part", 0).unwrap();
    ssb.db.insert_row("part", &new_row).unwrap();
    let s1 = ssb.db.snapshot();

    let engine = QpptEngine::new(&ssb.db);
    let after_old_snap = engine.run_at(&q, &opts, s0).unwrap().0;
    assert_eq!(after_old_snap, before, "pre-update snapshot sees old state");

    let oracle_new = run_reference(&ssb.db, &q, s1).unwrap().canonicalized();
    let got_new = engine.run_at(&q, &opts, s1).unwrap().0.canonicalized();
    assert_eq!(got_new, oracle_new, "post-update snapshot matches oracle");
}

/// Replaces row `rid` of `table` by a copy with `changes` applied
/// (delete + insert through the MVCC API), so the old and the new version
/// share the join key and both sit under it in the base index.
fn update_row(ssb: &mut SsbDb, table: &str, rid: u32, changes: &[(&str, Value)]) {
    let new_row: Vec<Value> = {
        let t = ssb.db.table(table).unwrap().table();
        let mut row: Vec<Value> = (0..t.schema().width()).map(|c| t.value(rid, c)).collect();
        for (col, v) in changes {
            row[t.schema().col(col).unwrap()] = v.clone();
        }
        row
    };
    ssb.db.delete_row(table, rid).unwrap();
    ssb.db.insert_row(table, &new_row).unwrap();
}

/// The value of column `col` in row `rid` of `table`.
fn column_of(ssb: &SsbDb, table: &str, col: &str, rid: u32) -> Value {
    let t = ssb.db.table(table).unwrap().table();
    t.value(rid, t.schema().col(col).unwrap())
}

/// Maps every `key` value of `table` to its `col` value.
fn key_to(ssb: &SsbDb, table: &str, key: &str, col: &str) -> BTreeMap<Value, Value> {
    let t = ssb.db.table(table).unwrap().table();
    let (k, c) = (t.schema().col(key).unwrap(), t.schema().col(col).unwrap());
    (0..t.row_count() as u32)
        .map(|r| (t.value(r, k), t.value(r, c)))
        .collect()
}

#[test]
fn assisting_dimension_versions_fill_from_the_visible_version() {
    // Q4.1 probes `date` through its base index and `supplier` through a
    // materialized σ as assisting dimensions; Q3.1 probes both as
    // materialized σs carrying the updated columns. After an update each
    // key has two versions, and the join buffer must fill a row from the
    // one version visible at the query's snapshot — under the surviving-row
    // compaction between assists — on every engine and execution mode.
    let mut ssb = SsbDb::generate(0.01, 57);
    let (q41, q31) = (queries::q4_1(), queries::q3_1());
    let opts = PlanOptions::default();
    prepare_indexes(&mut ssb.db, &q41, &opts).unwrap();
    prepare_indexes(&mut ssb.db, &q31, &opts).unwrap();
    let s0 = ssb.db.snapshot();

    // Move the first AMERICA supplier to ASIA: it leaves Q4.1 and joins
    // Q3.1 under a new nation.
    let supp_rid = {
        let supp = ssb.db.table("supplier").unwrap().table();
        let region = supp.schema().col("s_region").unwrap();
        (0..supp.row_count() as u32)
            .find(|&r| supp.value(r, region) == Value::str("AMERICA"))
            .expect("some supplier is in AMERICA")
    };
    let moved_supp = column_of(&ssb, "supplier", "s_suppkey", supp_rid);

    // Shift the year of the order date of a fact row Q4.1 keeps at both
    // snapshots, so the date version that fills it decides its group.
    let c_region = key_to(&ssb, "customer", "c_custkey", "c_region");
    let s_region = key_to(&ssb, "supplier", "s_suppkey", "s_region");
    let mfgr = key_to(&ssb, "part", "p_partkey", "p_mfgr");
    let order_date = {
        let lo = ssb.db.table("lineorder").unwrap().table();
        let col = |name| lo.schema().col(name).unwrap();
        let (cust, supp, part, date) = (
            col("lo_custkey"),
            col("lo_suppkey"),
            col("lo_partkey"),
            col("lo_orderdate"),
        );
        let america = Value::str("AMERICA");
        (0..lo.row_count() as u32)
            .find(|&r| {
                let s = lo.value(r, supp);
                s != moved_supp
                    && c_region[&lo.value(r, cust)] == america
                    && s_region[&s] == america
                    && [Value::str("MFGR#1"), Value::str("MFGR#2")]
                        .contains(&mfgr[&lo.value(r, part)])
            })
            .map(|r| lo.value(r, date))
            .expect("Q4.1 keeps some fact row")
    };
    let date_rid = {
        let date = ssb.db.table("date").unwrap().table();
        let key = date.schema().col("d_datekey").unwrap();
        (0..date.row_count() as u32)
            .find(|&r| date.value(r, key) == order_date)
            .expect("the order date exists")
    };
    let Value::Int(year) = column_of(&ssb, "date", "d_year", date_rid) else {
        panic!("d_year is an Int column");
    };
    let new_year = Value::Int(if year == 1997 { 1996 } else { year + 1 });
    update_row(&mut ssb, "date", date_rid, &[("d_year", new_year)]);
    update_row(
        &mut ssb,
        "supplier",
        supp_rid,
        &[
            ("s_region", Value::str("ASIA")),
            ("s_nation", Value::str("CHINA")),
        ],
    );
    let s1 = ssb.db.snapshot();

    let db = Arc::new(ssb.db);
    let engine = QpptEngine::new(&db);
    let pool = WorkerPool::new(2, 4);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in [&q41, &q31] {
        let before = run_reference(&db, q, s0).unwrap().canonicalized();
        let after = run_reference(&db, q, s1).unwrap().canonicalized();
        assert_ne!(before, after, "{}: the updates must move its groups", q.id);
        for (snap, oracle) in [(s0, &before), (s1, &after)] {
            for batch in [false, true] {
                let o = opts.with_batch_exec(batch);
                let seq = engine.run_at(q, &o, snap).unwrap().0.canonicalized();
                assert_eq!(&seq, oracle, "{} sequential batch={batch}", q.id);
                let par = pooled
                    .run_at(q, &o.with_parallelism(2), snap, 0)
                    .unwrap()
                    .0
                    .canonicalized();
                assert_eq!(&par, oracle, "{} pooled(2) batch={batch}", q.id);
            }
        }
    }
    pool.shutdown();
}
