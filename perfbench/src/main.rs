//! `dust-perfbench`: the DUST workspace's benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload hot_fleet --seed 42 --seconds 60 --trace 0
//! ```
//!
//! Runs one workload (`hot_fleet`, `quiet_fleet` or `placement_churn`)
//! through the workspace's public API for `--seconds`, checks its outputs
//! and prints, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, from untraced repetitions only; with
//! `--trace 1` they are the per-layer ones, read from the workspace
//! profiler and obs counters of separate traced repetitions. Earlier
//! lines give the host fingerprint, every metric, and the deterministic
//! work counts of one repetition.

mod alloc;
mod churn;
mod fleet;
mod host;
mod prof;
mod stats;

use fleet::Fleet;
use stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics `(name, unit)`, reported by every workload from
/// untraced repetitions.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_speed", "x"),
    ("rounds_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload on a
/// traced run; a layer the workload bypasses reads 0. Counts and times
/// are per repetition.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.refresh_ms", "ms"),
    ("topology.rows_migrated", "count"),
    ("topology.rows_invalidated", "count"),
    ("topology.full_invalidations", "count"),
    ("topology.price_ms", "ms"),
    ("cost.row_price.self_ms", "ms"),
    ("cost.rows_priced", "count"),
    ("cost.cache_hits", "count"),
    ("cost.cache_misses", "count"),
    ("cost.cache_hit_ratio", "ratio"),
    ("lp.solve_ms", "ms"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.transport.pivots", "count"),
    ("lp.warm_pivots", "count"),
    ("lp.cold_pivots", "count"),
    ("lp.warm_rejects", "count"),
    ("lp.transport.solve.self_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.assignments", "count"),
    ("core.placements_infeasible", "count"),
    ("core.cold_round_ms_p50", "ms"),
    ("core.beta_sum", "beta"),
    ("proto.manager_tick.self_ms", "ms"),
    ("proto.placement_round.self_ms", "ms"),
    ("proto.stat_ingest.self_ms", "ms"),
    ("proto.offers_sent", "count"),
    ("proto.offer_retransmits", "count"),
    ("proto.delta_rounds", "count"),
    ("proto.flows_rehomed", "count"),
    ("proto.offer_confirm_ratio", "ratio"),
    ("telemetry.points", "count"),
    ("telemetry.query_ms", "ms"),
    ("telemetry.points_per_query", "count"),
    ("sim.events", "count"),
    ("sim.transfers_applied", "count"),
    ("sim.telemetry_batch.self_ms", "ms"),
    ("sim.resource_walk.self_ms", "ms"),
    ("sim.cpu_relief_pct", "%"),
    ("obs.trace_overhead", "x"),
    ("alloc.per_round", "count"),
    ("alloc.per_event", "count"),
    ("fail_rate", "ratio"),
];

/// Deterministic work counts of one repetition, by name.
pub type Work = BTreeMap<String, u64>;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (see each workload for which).
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub breaches: Vec<String>,
    /// Metric values by name, end-to-end and per-layer.
    pub values: Values,
    /// Work counts of the first timed repetition.
    pub work: Work,
    /// Sample counts and other context for the reader.
    pub notes: Vec<String>,
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Repetitions run before timing starts: they fill caches and page in the
/// allocator's arenas. Their outputs and work counts are checked too.
const WARMUP: usize = 1;

/// The repetitions of one run.
pub struct Reps<R> {
    /// Checked, not timed.
    pub warm: Vec<R>,
    /// Timed and untraced: every end-to-end number comes from these.
    pub plain: Vec<R>,
    /// Traced (`--trace 1` only): the per-layer numbers come from these.
    pub traced: Vec<R>,
}

impl<R> Reps<R> {
    /// Run `rep(index, traced)` for about `seconds`: a warm-up, then at
    /// least three timed repetitions. With `trace`, untraced and traced
    /// repetitions alternate after the warm-up, at least two of each, so
    /// both sample the same moments of a host whose speed drifts.
    pub fn run(seconds: f64, trace: bool, mut rep: impl FnMut(usize, bool) -> R) -> Reps<R> {
        let traced_at = |i: usize| trace && i >= WARMUP && (i - WARMUP) % 2 == 1;
        let min = if trace { 4 } else { 3 };
        let mut reps = Reps { warm: Vec::new(), plain: Vec::new(), traced: Vec::new() };
        for (i, r) in
            repeat(seconds, WARMUP + min, |i| rep(i, traced_at(i))).into_iter().enumerate()
        {
            match (i < WARMUP, traced_at(i)) {
                (true, _) => reps.warm.push(r),
                (false, false) => reps.plain.push(r),
                (false, true) => reps.traced.push(r),
            }
        }
        reps
    }

    /// Every repetition, traced or not.
    pub fn all(&self) -> impl Iterator<Item = &R> {
        self.warm.iter().chain(&self.plain).chain(&self.traced)
    }

    /// Add a breach unless the untraced repetitions did the same work, the
    /// traced ones did too, and tracing left the work counts named in
    /// `outputs` unchanged.
    pub fn check_work(
        &self,
        label: &str,
        work: impl Fn(&R) -> &Work,
        outputs: &[&str],
        breaches: &mut Vec<String>,
    ) {
        let untraced: Vec<&Work> = self.warm.iter().chain(&self.plain).map(&work).collect();
        same_work(label, &untraced, breaches);
        same_work(
            &format!("{label} traced"),
            &self.traced.iter().map(&work).collect::<Vec<_>>(),
            breaches,
        );
        if let (Some(p), Some(t)) = (self.plain.first().map(&work), self.traced.first().map(&work))
        {
            for key in outputs.iter().filter(|k| p.get(**k) != t.get(**k)) {
                breaches.push(format!("{label}: tracing changed {key}"));
            }
        }
    }
}

/// Run `rep` at least `min` times, then again while one more run, as long
/// as the mean so far, still ends within `seconds`.
fn repeat<T>(seconds: f64, min: usize, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let mean = if out.is_empty() { 0.0 } else { spent / out.len() as f64 };
        if out.len() >= min && spent + mean > seconds {
            return out;
        }
        out.push(rep(out.len()));
    }
}

/// The per-key median of traced repetitions' per-layer values.
pub fn layer_medians<'a>(layers: impl Iterator<Item = &'a Values>) -> Values {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layer in layers {
        for (k, v) in layer {
            all.entry(k).or_default().push(*v);
        }
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Relative tolerance for allocation counts in [`same_work`]. The
/// process-wide count can move by one between repetitions of one seed,
/// because the two-thread pricing pool splits its jobs by timing. One
/// extra allocation per round or per thousand events still exceeds this.
const ALLOC_TOL: f64 = 1e-4;

/// Add a breach for every repetition whose work counts differ from the
/// first one's: exactly, or for `alloc.*` counts by more than [`ALLOC_TOL`].
fn same_work(label: &str, reps: &[&Work], breaches: &mut Vec<String>) {
    let Some(first) = reps.first() else { return };
    let agree = |k: &str, a: Option<&u64>, b: Option<&u64>| match (a, b) {
        (Some(&a), Some(&b)) if k.starts_with("alloc.") => {
            a.abs_diff(b) as f64 <= ALLOC_TOL * a.max(b) as f64
        }
        _ => a == b,
    };
    for (i, w) in reps.iter().enumerate().skip(1) {
        if let Some(k) = first.keys().chain(w.keys()).find(|k| !agree(k, first.get(*k), w.get(*k)))
        {
            breaches.push(format!(
                "{label}: repetition {i} did other work than repetition 0 ({k}: {:?} vs {:?})",
                w.get(k),
                first.get(k)
            ));
        }
    }
}

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["hot_fleet", "quiet_fleet", "placement_churn"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: dust-perfbench --workload hot_fleet|quiet_fleet|placement_churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0f64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("dust-perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    println!("host {}", host::fingerprint_json());
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut out = match args.workload {
        "hot_fleet" => fleet::run(Fleet::Hot, args.seed, args.seconds, args.trace),
        "quiet_fleet" => fleet::run(Fleet::Quiet, args.seed, args.seconds, args.trace),
        _ => churn::run(args.seed, args.seconds, args.trace),
    };
    let fail_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.values.insert("fail_rate", fail_rate);
    out.values.insert("success_ratio", 1.0 - fail_rate);
    match host::peak_rss_mb() {
        Some(mb) => {
            out.values.insert("peak_rss_mb", mb);
        }
        None => out.breaches.push("peak RSS unreadable".to_string()),
    }

    for note in &out.notes {
        println!("note {note}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name:<30} {v:>16.6} {unit}");
    }
    let work: Vec<String> =
        out.work.iter().map(|(k, n)| format!("{}: {n}", host::json_str(k))).collect();
    println!("work {{{}}}", work.join(", "));

    let chosen = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(chosen.len());
    for (name, unit) in chosen {
        // a layer the workload bypasses reads 0
        let v = out.values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            out.breaches.push(format!("{name} is not a number"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    for b in &out.breaches {
        eprintln!("CHECK FAILED {b}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.breaches.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
