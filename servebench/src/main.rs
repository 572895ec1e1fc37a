//! `servebench` — the repository's end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload adhoc|dashboard|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! It hosts the system in-process on loopback (one `qppt-server` engine,
//! or a 2-shard fleet behind a `qppt-router`) over SSB at sf 0.2 generated
//! from `--seed`, and drives it from one closed-loop client thread per
//! core, each on its own connection opened before the clock starts. The
//! program only ever receives the generated request lines. After a
//! warm-up that runs the workload's own stream until the cache-tier hit
//! ratios are steady, it times a window of `--seconds`, then checks the
//! recorded answer digests against the sequential oracle (see `check`).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics:
//! `setup_s` (median of three full set-ups: generation, index build,
//! listeners up, clients connected), `qps`, `p50_ms`, `p99_ms` (client
//! send to `END`, medians over five segments of the window; see
//! [`Segmented`]) and `peak_rss_mb` (`VmHWM` right after the window).
//! With `--trace 1` the time is split between an untraced and a traced
//! window, the traced window's requests are replayed through each
//! layer's public functions, and the last line carries the per-layer
//! metrics (see `layers`). Spans are written to `servebench/out/`.
//!
//! A wrong answer makes the result `"correct": false` and the exit code
//! non-zero. `README.md` next to this crate describes the workloads and
//! which layer metric should move which end-to-end metric.

mod check;
mod drive;
mod host;
mod layers;
mod stats;
mod stream;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use qppt_core::prepare_indexes;
use qppt_server::detected_cores;

use crate::drive::{warm_up, LoadGen};
use crate::host::{peak_rss_mb, pool_threads, Host, SetupTimes};
use crate::layers::{per_layer, replay, Inputs, Metric, Snapshot};
use crate::stats::{median, Segmented, Tally};
use crate::stream::{ClientStream, Workload};

/// SSB scale factor of every workload.
const SF: f64 = 0.2;

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Warm-up round length and cap.
const WARM_ROUND: Duration = Duration::from_millis(500);
const WARM_MAX_ROUNDS: usize = 12;

/// Equal segments of the timed window; see [`Segmented`].
const SEGMENTS: usize = 5;

/// Fresh texts re-computed by the oracle after the window.
const ORACLE_SAMPLE: usize = 48;

/// Oracle answers cross-checked against the reference executor (routed).
const REFERENCE_CHECKS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace").as_deref() {
            Ok("0") | Err(_) => false,
            Ok("1") => true,
            Ok(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
        },
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        eprintln!(
            "usage: servebench --workload adhoc|dashboard|routed --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let w = args.workload;
    let clients = detected_cores();
    let window = Duration::from_secs(args.seconds);
    eprintln!(
        "servebench {}: sf {SF}, seed {}, {clients} closed-loop clients, {} pool thread(s) per \
         shard, {}s window, trace {}",
        w.name(),
        args.seed,
        pool_threads(w),
        args.seconds,
        args.trace as u8
    );

    // Set-up, several times; the last hosting serves the run.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut host = None;
    for _ in 0..SETUPS {
        if let Some(h) = host.take() {
            Host::stop(h);
        }
        let h = Host::start(w, SF, args.seed, clients);
        setups.push(h.times);
        host = Some(h);
    }
    let mut host = host.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());

    let streams: Vec<ClientStream> = (0..clients)
        .map(|c| ClientStream::new(w, args.seed, c, clients))
        .collect();
    let pool = streams[0].pool().to_vec();
    let mut load = LoadGen::new(&host.addr, std::mem::take(&mut host.clients), streams);
    let mut control = host.control();

    let rounds = warm_up(&mut load, &mut control, WARM_ROUND, WARM_MAX_ROUNDS);
    eprintln!("warm-up: {rounds} round(s) of {WARM_ROUND:?}");
    // A traced run splits its time between an untraced and a traced
    // window, so both kinds of run measure for `--seconds`.
    let window = if args.trace { window / 2 } else { window };
    let untraced_qps = args.trace.then(|| load.run(window, false).qps());
    let before = args.trace.then(|| Snapshot::take(&mut control));
    let phase = load.run(window, args.trace);
    let after = args.trace.then(|| Snapshot::take(&mut control));
    let rss = peak_rss_mb();

    // The correctness anchor.
    let oracle_db = if w == Workload::Routed {
        let mut ssb = qppt_ssb::SsbDb::generate(SF, args.seed);
        for q in qppt_ssb::queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &qppt_core::PlanOptions::default())
                .expect("SSB prepares");
        }
        std::sync::Arc::new(ssb.db)
    } else {
        host.shards[0].db.clone()
    };
    let reference = if w == Workload::Routed {
        REFERENCE_CHECKS
    } else {
        0
    };
    let checked = check::check(
        &oracle_db,
        &pool,
        &phase.recs,
        &phase.fresh_lines,
        args.seed,
        ORACLE_SAMPLE,
        reference,
    );
    drop(oracle_db);

    let errors = phase.recs.iter().filter(|r| !r.ok).count() as u64;
    let mut tally = Tally {
        attempted: phase.recs.len() as u64,
        failed: errors + checked.mismatched,
    };
    let mut correct = checked.mismatched == 0 && checked.reference_mismatched == 0;

    let samples: Vec<(f64, f64)> = phase
        .recs
        .iter()
        .filter(|r| r.ok)
        .map(|r| ((r.start - phase.start).as_secs_f64(), r.lat_us))
        .collect();
    let latency = Segmented::of(&samples, window.as_secs_f64(), SEGMENTS);
    println!(
        "{}: {} attempted, {} failed (fail_frac {:.6}: {} error replies, {} wrong answers); \
         {} responses checked against {} oracle answers, {}/{} reference cross-checks agree; \
         repeat share {:.4}",
        w.name(),
        tally.attempted,
        tally.failed,
        tally.fail_frac(),
        errors,
        checked.mismatched,
        checked.responses,
        checked.oracle_queries,
        checked.reference_checked - checked.reference_mismatched,
        checked.reference_checked,
        phase.repeat_share,
    );
    if let Some(l) = latency {
        println!(
            "latency over {} samples in {SEGMENTS} segments: p50 {:.3} ms, p{} {:.3} ms",
            l.n,
            l.p50 / 1e3,
            l.tail_p,
            l.tail / 1e3
        );
    }

    let metrics: Vec<Metric> = if args.trace {
        let served: HashMap<u64, u64> = phase
            .recs
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.key, r.digest))
            .collect();
        let shard_only = (w != Workload::Routed).then_some(&served);
        let rp = replay(load.epoch(), &host.shards[0], &phase, &pool, shard_only);
        tally.failed += rp.mismatched;
        correct &= rp.mismatched == 0;
        let layer = per_layer(&Inputs {
            workload: w,
            window: &phase,
            untraced_qps: untraced_qps.expect("traced runs time an untraced window"),
            before: before.as_ref().expect("snapshot before"),
            after: after.as_ref().expect("snapshot after"),
            replay: &rp,
            setups: &setups,
            index_bytes: host.index_bytes(),
        });
        let mut spans = rp.spans.expect("replay spans");
        if let Some(client_spans) = phase.spans {
            spans.absorb(client_spans);
        }
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        match spans.write_tsv(&out) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.spans().len(), out.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", out.display()),
        }
        for (name, v, unit) in &layer {
            println!("  {name:<28} {v:>14.4} {unit}");
        }
        layer
    } else {
        let (p50, tail) = latency.map_or((0.0, 0.0), |l| (l.p50, l.tail));
        let e2e: Vec<Metric> = vec![
            ("setup_s".into(), setup_s, "s"),
            ("qps".into(), latency.map_or(0.0, |l| l.qps), "1/s"),
            ("p50_ms".into(), p50 / 1e3, "ms"),
            ("p99_ms".into(), tail / 1e3, "ms"),
            ("peak_rss_mb".into(), rss, "MB"),
        ];
        for (name, v, unit) in &e2e {
            println!("  {name:<12} {v:>12.4} {unit}");
        }
        e2e
    };
    host.stop();

    if latency.is_none() {
        eprintln!("too few answered requests in the window for a tail percentile");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
