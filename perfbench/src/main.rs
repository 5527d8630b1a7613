//! End-to-end and per-layer benchmark of the opm workspace.
//!
//! ```text
//! bash perfbench/run.sh \
//!     --workload <serve_hit|serve_miss|frac_history|newton_chain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` for what each workload and metric means.

mod frac;
mod newton;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stats::{cpu_steal_ticks, median, peak_rss_mib, process_cpu_s, quantile};
use trace::Tracer;
use workload::{Counts, Workload};

const WORKLOADS: [&str; 4] = ["serve_hit", "serve_miss", "frac_history", "newton_chain"];
/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// `err_db` is taken over the first ops only, so it does not depend on
/// how many ops fit in the run.
const ERR_OPS: u64 = 8;
/// Share of a traced run spent on the untraced reference pass that
/// `trace.overhead_pct` compares against.
const UNTRACED_SHARE: f64 = 0.3;
/// Least share of op wall time the layer spans must account for, so the
/// breakdown cannot silently lose a layer.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(a: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match a.workload.as_str() {
        "serve_hit" => Box::new(serve::Serve::setup(a.seed, true, a.trace)?),
        "serve_miss" => Box::new(serve::Serve::setup(a.seed, false, a.trace)?),
        "frac_history" => Box::new(frac::Frac::setup(a.seed)?),
        "newton_chain" => Box::new(newton::Newton::setup(a.seed)?),
        _ => unreachable!("validated in parse_args"),
    })
}

/// A closed-loop pass: one op after another until `budget` is spent.
struct Pass {
    latencies_ms: Vec<f64>,
    worst_rel_err: f64,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    steal: f64,
    next_op: u64,
}

fn closed_loop(w: &mut dyn Workload, first_op: u64, budget: Duration) -> Pass {
    let cpu0 = process_cpu_s();
    let steal0 = cpu_steal_ticks();
    let start = Instant::now();
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        worst_rel_err: 0.0,
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        steal: 0.0,
        next_op: first_op,
    };
    while start.elapsed() < budget {
        let i = pass.next_op;
        let r = w.op(i);
        pass.attempted += 1;
        pass.next_op += 1;
        match r.check {
            Ok(e) => {
                pass.latencies_ms.push(r.wall_ms);
                if i < first_op + ERR_OPS {
                    pass.worst_rel_err = pass.worst_rel_err.max(e);
                }
            }
            Err(msg) => {
                pass.failed += 1;
                eprintln!("op {i} failed: {msg}");
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    let steal1 = cpu_steal_ticks();
    pass.steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    pass
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        );
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{m}}}}}"#
    )
}

fn hit_ratio(before: (f64, f64), after: (f64, f64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    hits / (hits + misses)
}

fn untraced(a: &Args) -> Result<String, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // The previous instance (and its daemon) is gone before the next
        // set-up starts.
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(a)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    let counters0 = w.cache_counters().transpose()?;
    let pass = closed_loop(&mut *w, 0, Duration::from_secs_f64(a.seconds));
    let mut correct = pass.failed == 0 && !pass.latencies_ms.is_empty();
    if let (Some(c0), Some(want)) = (counters0, w.expected_hit_ratio()) {
        let c1 = w.cache_counters().expect("serving workloads count")?;
        let ratio = hit_ratio(c0, c1);
        if ratio != want {
            eprintln!("cache hit ratio {ratio}, expected {want}");
            correct = false;
        }
    }
    let done = pass.latencies_ms.len();
    let mut lat = pass.latencies_ms.clone();
    let (p50, p90) = if done > 0 {
        (median(&mut lat), quantile(&mut lat, 0.9))
    } else {
        (f64::NAN, f64::NAN)
    };
    let err_db = 20.0 * pass.worst_rel_err.log10();
    correct &= err_db.is_finite();
    let metrics: Metrics = vec![
        ("setup_s", median(&mut setups), "s"),
        ("ops_per_s", done as f64 / pass.wall_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p90_ms", p90, "ms"),
        (
            "cpu_ms_per_op",
            pass.cpu_s * 1e3 / pass.attempted.max(1) as f64,
            "ms",
        ),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
        ("err_db", err_db, "dB"),
    ];
    println!(
        "{} seed {}: {done} ops in {:.2} s ({} samples beyond p90), solver threads {}, \
         nproc {}, host steal {:.1}%",
        a.workload,
        a.seed,
        pass.wall_s,
        done - (0.9 * done as f64).ceil() as usize,
        std::env::var("OPM_THREADS").unwrap_or_default(),
        nproc(),
        100.0 * pass.steal,
    );
    drop(w);
    Ok(result_line(correct, pass.attempted, pass.failed, &metrics))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Ops attempted and failed in the traced run.
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Traced op `i`; a rejected output counts as a failed op.
fn traced_op(w: &mut dyn Workload, i: u64, tr: &mut Tracer, tally: &mut Tally) -> Option<Counts> {
    tr.begin_op(i);
    tally.attempted += 1;
    match w.traced_op(i, tr) {
        Ok(counts) => Some(counts),
        Err(msg) => {
            tally.failed += 1;
            eprintln!("traced op {i} failed: {msg}");
            None
        }
    }
}

/// The exact counts of one op of each distinct input, by input.
fn count_rotation(
    w: &mut dyn Workload,
    first_op: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> BTreeMap<u64, Counts> {
    let rotation = w.rotation();
    (first_op..first_op + rotation)
        .filter_map(|i| traced_op(w, i, tr, tally).map(|c| (i % rotation, c)))
        .collect()
}

fn traced(a: &Args) -> Result<String, String> {
    let mut w = setup(a)?;
    let reference = closed_loop(
        &mut *w,
        0,
        Duration::from_secs_f64(a.seconds * UNTRACED_SHARE),
    );
    let counters0 = w.cache_counters().transpose()?;

    let mut tr = Tracer::new();
    let mut tally = Tally {
        attempted: reference.attempted,
        failed: reference.failed,
    };
    let mut next = reference.next_op;
    let counts = count_rotation(&mut *w, next, &mut tr, &mut tally);
    next += w.rotation();
    let budget = Duration::from_secs_f64(a.seconds * (1.0 - UNTRACED_SHARE));
    let start = Instant::now();
    while start.elapsed() < budget {
        traced_op(&mut *w, next, &mut tr, &mut tally);
        next += 1;
    }
    // The exact counts must repeat bit for bit on a second pass over the
    // same inputs.
    let repeat = count_rotation(&mut *w, next, &mut Tracer::new(), &mut tally);
    let mut correct = tally.failed == 0;
    let exact = |c: &BTreeMap<u64, Counts>| c.values().map(Counts::exact).collect::<Vec<_>>();
    if exact(&repeat) != exact(&counts) {
        eprintln!("exact counts differ between passes: {counts:?} vs {repeat:?}");
        correct = false;
    }

    let hit_ratio = match (counters0, w.expected_hit_ratio()) {
        (Some(c0), Some(want)) => {
            let ratio = hit_ratio(c0, w.cache_counters().expect("serving workloads count")?);
            if ratio != want {
                eprintln!("cache hit ratio {ratio}, expected {want}");
                correct = false;
            }
            ratio
        }
        _ => 0.0,
    };

    let ops = tr.durations_ms("op");
    let n_ops = ops.len() as f64;
    let wall_total: f64 = ops.iter().sum();
    let self_ms = tr.self_ms_by_name();
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / n_ops;
    let coverage = (wall_total - self_ms.get("op").copied().unwrap_or(0.0)) / wall_total;
    if coverage.is_nan() || coverage < MIN_COVERAGE {
        eprintln!("the layer spans cover {coverage} of the op time, below {MIN_COVERAGE}");
        correct = false;
    }

    // Each socket round trip paired with the in-process replay of the
    // same body.
    let posts = tr.durations_ms("serve.post");
    let transport_ms = if posts.is_empty() {
        0.0
    } else {
        median(
            &mut posts
                .iter()
                .zip(&ops)
                .map(|(p, o)| p - o)
                .collect::<Vec<_>>(),
        )
    };
    let mut traced_lat = if posts.is_empty() { ops.clone() } else { posts };
    let mut untraced_lat = reference.latencies_ms.clone();
    let overhead_pct = if untraced_lat.is_empty() {
        f64::NAN
    } else {
        100.0 * (median(&mut traced_lat) / median(&mut untraced_lat) - 1.0)
    };

    let k = counts.len() as f64;
    let mean = |f: &dyn Fn(&Counts) -> f64| counts.values().map(f).sum::<f64>() / k;
    let metrics: Metrics = vec![
        ("api.parse_ms", per_op("api.parse"), "ms"),
        (
            "circuits.from_netlist_ms",
            per_op("circuits.from_netlist"),
            "ms",
        ),
        ("cache.plan_key_ms", per_op("cache.plan_key"), "ms"),
        ("cache.hit_ratio", hit_ratio, "ratio"),
        ("plan.build_ms", per_op("plan.build"), "ms"),
        (
            "plan.num_symbolic",
            mean(&|c| c.num_symbolic as f64),
            "count",
        ),
        ("plan.num_numeric", mean(&|c| c.num_numeric as f64), "count"),
        ("plan.factor_cols", mean(&|c| c.factor_cols as f64), "count"),
        (
            "plan.supernode_coverage",
            mean(&|c| c.supernode_coverage),
            "ratio",
        ),
        ("sweep.solve_ms", per_op("sweep.solve"), "ms"),
        ("sweep.windows_per_op", mean(&|c| c.windows as f64), "count"),
        (
            "fracnum.history_macs_per_op",
            w.history_macs_per_op(),
            "MAC",
        ),
        ("newton.solve_ms", per_op("newton.solve"), "ms"),
        (
            "newton.iters_per_op",
            mean(&|c| c.newton_iters as f64),
            "count",
        ),
        (
            "newton.refactors_per_step",
            mean(&|c| c.newton_refactors as f64 / c.columns as f64),
            "ratio",
        ),
        (
            "newton.fresh_fallbacks",
            mean(&|c| c.fresh_fallbacks as f64),
            "count",
        ),
        ("json.result_ms", per_op("json.result"), "ms"),
        (
            "json.response_kb",
            mean(&|c| c.response_bytes as f64 / 1024.0),
            "KiB",
        ),
        ("serve.transport_ms", transport_ms, "ms"),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    let path =
        std::path::PathBuf::from(format!(".bench_trace/{}-seed{}.jsonl", a.workload, a.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} seed {}: {} traced ops, spans in {}, solver threads {}, nproc {}",
        a.workload,
        a.seed,
        ops.len(),
        path.display(),
        std::env::var("OPM_THREADS").unwrap_or_default(),
        nproc(),
    );
    drop(w);
    Ok(result_line(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every solve runs on one worker thread, so the figures do not
    // depend on the host's core count (recorded with each run).
    std::env::set_var("OPM_THREADS", "1");
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
