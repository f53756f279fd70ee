//! Traced repetitions: the obs handle they record into, and the
//! workspace profiler's folded-stack artifact
//! (`ObsHandle::profile_report`) read back into per-scope numbers.

use crate::{Values, Work};
use dust::obs::ObsHandle;
use std::collections::BTreeMap;

/// A handle recording metrics and the profile for a traced repetition;
/// the no-op handle otherwise.
pub fn obs_handle(traced: bool, seed: u64) -> ObsHandle {
    if !traced {
        return ObsHandle::disabled();
    }
    let obs = ObsHandle::recording(seed);
    obs.enable_profiling();
    obs
}

/// Add every profiler scope count and every obs counter of a traced
/// repetition to its work counts, and return the per-layer values of the
/// pricing and solver layers, which every workload can reach.
pub fn pricing_and_solver(obs: &ObsHandle, prof: &Profile, work: &mut Work) -> Values {
    for (path, n) in prof.counts() {
        work.insert(format!("scope.{path}"), *n);
    }
    if let Some(m) = obs.metrics() {
        for (name, n) in m.counters() {
            work.insert(format!("counter.{name}"), n);
        }
    }
    let c = |name: &str| obs.counter(name) as f64;
    let (hits, misses) = (c("cost.cache_hits"), c("cost.cache_misses"));
    Values::from([
        ("cost.row_price.self_ms", prof.self_ms("cost.row_price")),
        ("cost.rows_priced", c("cost.rows_priced")),
        ("cost.cache_hits", hits),
        ("cost.cache_misses", misses),
        ("cost.cache_hit_ratio", ratio(hits, hits + misses)),
        ("lp.transport.pivots", c("lp.transport.pivots")),
        ("lp.warm_pivots", c("lp.warm_pivots")),
        ("lp.cold_pivots", c("lp.cold_pivots")),
        ("lp.warm_rejects", c("lp.warm_rejects")),
        ("lp.transport.solve.self_ms", prof.self_ms("lp.transport.solve")),
    ])
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One traced run's profile, keyed by folded path (`a;b;c`).
#[derive(Debug, Default)]
pub struct Profile {
    counts: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
}

impl Profile {
    /// Parse the profile attached to `obs`; empty when profiling is off.
    pub fn of(obs: &ObsHandle) -> Profile {
        let mut p = Profile::default();
        for line in obs.profile_report().unwrap_or_default().lines() {
            let mut parts = line.split(' ');
            let (Some(kind), Some(path), Some(n)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(n) = n.parse::<u64>() else { continue };
            match kind {
                "count" => p.counts.insert(path.to_string(), n),
                "self" => p.self_ns.insert(path.to_string(), n),
                _ => None,
            };
        }
        p
    }

    /// Invocation count of every path: deterministic per seed.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Self-time of scope `name` in ms, summed over every path it ends.
    pub fn self_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.self_ns.iter().filter(|(p, _)| leaf(p) == name).map(|(_, n)| n).sum();
        ns as f64 / 1e6
    }

    /// Total time of scope `name` in ms: its self-time plus that of every
    /// scope nested under it.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(p, _)| p.split(';').any(|s| s == name))
            .map(|(_, n)| n)
            .sum();
        ns as f64 / 1e6
    }
}

fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}
