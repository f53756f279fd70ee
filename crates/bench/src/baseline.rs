//! The committed performance baseline (`BENCH_seed.json`) and its
//! comparison logic.
//!
//! `dust-perf emit` measures the named scenarios and writes one JSON
//! document; the repository commits the result as `BENCH_seed.json`.
//! `dust-perf compare` reruns the same scenarios on the current tree and
//! fails when the candidate regresses:
//!
//! * **Deterministic fields** (`events_processed`, `nodes`,
//!   `peak_queue_len`, `federation_points`) must match **exactly** —
//!   they are machine-independent, so any drift means the simulation
//!   itself changed and the baseline must be consciously refreshed.
//! * **Throughput** (`events_per_sec`, `rounds_per_sec`) may regress at
//!   most `tolerance` (default 20 %) — these are wall-clock numbers and
//!   inherit machine noise.
//! * **Same-machine ratios** (`speedup_vs_exact`, `warm_speedup_vs_cold`)
//!   cancel machine speed out of the comparison; each must stay at or
//!   above its committed floor.
//!
//! The JSON is hand-rolled (the workspace is std-only) with a fixed
//! field order, so two emits of the same tree on the same machine differ
//! only in measured throughput.

/// One named scenario's perf record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPerf {
    /// Stable scenario name, e.g. `scale_fleet_k90`.
    pub name: String,
    /// Fleet size (deterministic).
    pub nodes: u64,
    /// Simulation events processed (deterministic — see
    /// `SimReport::events_processed`).
    pub events_processed: u64,
    /// Peak pending events in the queue (deterministic allocation-pressure
    /// proxy for the event loop's working set).
    pub peak_queue_len: u64,
    /// Total recorded metric points across the federation (deterministic
    /// peak-RSS proxy: the run's dominant retained allocation).
    pub federation_points: u64,
    /// Simulation throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Placement rounds per wall-clock second (0 when the scenario's
    /// control plane is idle).
    pub rounds_per_sec: f64,
    /// Partitioned-solve objective gap vs the exact optimum, in percent
    /// (0 for scenarios without a partitioned solve).
    pub objective_gap_pct: f64,
    /// Committed ceiling for `objective_gap_pct` (0 disables the gate).
    pub max_gap_pct: f64,
    /// Partitioned-solve wall-clock speedup over the exact whole-problem
    /// solve, same machine (0 for scenarios without a partitioned solve).
    pub speedup_vs_exact: f64,
    /// Committed floor for `speedup_vs_exact` (0 disables the gate).
    pub min_exact_speedup: f64,
    /// Warm-started steady-state re-placement throughput over cold-solve
    /// throughput on the same drifting instance, same machine (0 for
    /// scenarios without a warm loop).
    pub warm_speedup_vs_cold: f64,
    /// Committed floor for `warm_speedup_vs_cold` (0 disables the gate).
    pub min_warm_speedup: f64,
    /// Per-phase self-time from one profiled run, as
    /// `name:ms;name:ms;…` sorted by self-time descending (empty when
    /// the emitter did not profile). Wall-clock like the throughput
    /// fields — never compared exactly, only used to *attribute* a
    /// throughput regression to the phases that grew.
    pub phase_self_ms: String,
}

/// A whole baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// Format version.
    pub version: u32,
    /// Per-scenario records.
    pub scenarios: Vec<ScenarioPerf>,
}

/// Current format version. Version 5 dropped `speedup_vs_tick` and
/// `min_speedup` with the tick core they measured against; older
/// documents that carry them still parse, the two keys ignored. Version
/// 4 added the warm-start fields
/// (`warm_speedup_vs_cold`/`min_warm_speedup`). Version 3 added
/// `phase_self_ms` (per-phase self-time from a profiled run, used to
/// attribute throughput regressions). Version 2 added the
/// partition-quality fields (`objective_gap_pct`/`max_gap_pct`,
/// `speedup_vs_exact`/`min_exact_speedup`). Older documents still parse,
/// with the missing fields defaulting to 0 / empty (gates and
/// attribution off).
pub const BASELINE_VERSION: u32 = 5;

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "0.00".into()
    }
}

/// Parse a `name:ms;name:ms;…` phase string (tolerant: malformed
/// segments are skipped, an empty string yields an empty list).
fn parse_phases(s: &str) -> Vec<(&str, f64)> {
    s.split(';')
        .filter_map(|seg| {
            let (name, ms) = seg.rsplit_once(':')?;
            Some((name, ms.parse().ok()?))
        })
        .collect()
}

/// Name the phases whose self-time grew the most from `baseline` to
/// `candidate` — the attribution suffix appended to a throughput
/// failure. Empty when either side carries no phase data or nothing
/// grew.
fn phase_attribution(baseline: &str, candidate: &str) -> String {
    let b = parse_phases(baseline);
    let c = parse_phases(candidate);
    if b.is_empty() || c.is_empty() {
        return String::new();
    }
    let mut grew: Vec<(&str, f64, f64)> = c
        .iter()
        .filter_map(|(name, cms)| {
            let bms = b.iter().find(|(n, _)| n == name).map_or(0.0, |(_, m)| *m);
            (*cms > bms).then_some((*name, cms - bms, *cms))
        })
        .collect();
    grew.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
    if grew.is_empty() {
        return String::new();
    }
    let top: Vec<String> = grew
        .iter()
        .take(3)
        .map(|(name, delta, cms)| format!("{name} (+{delta:.2} ms self, now {cms:.2} ms)"))
        .collect();
    format!("; slowest-growing phases: {}", top.join(", "))
}

impl BenchBaseline {
    /// Render as stable, human-diffable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
            out.push_str(&format!("      \"nodes\": {},\n", s.nodes));
            out.push_str(&format!("      \"events_processed\": {},\n", s.events_processed));
            out.push_str(&format!("      \"peak_queue_len\": {},\n", s.peak_queue_len));
            out.push_str(&format!("      \"federation_points\": {},\n", s.federation_points));
            out.push_str(&format!("      \"events_per_sec\": {},\n", fmt_f64(s.events_per_sec)));
            out.push_str(&format!("      \"rounds_per_sec\": {},\n", fmt_f64(s.rounds_per_sec)));
            out.push_str(&format!(
                "      \"objective_gap_pct\": {},\n",
                fmt_f64(s.objective_gap_pct)
            ));
            out.push_str(&format!("      \"max_gap_pct\": {},\n", fmt_f64(s.max_gap_pct)));
            out.push_str(&format!(
                "      \"speedup_vs_exact\": {},\n",
                fmt_f64(s.speedup_vs_exact)
            ));
            out.push_str(&format!(
                "      \"min_exact_speedup\": {},\n",
                fmt_f64(s.min_exact_speedup)
            ));
            out.push_str(&format!(
                "      \"warm_speedup_vs_cold\": {},\n",
                fmt_f64(s.warm_speedup_vs_cold)
            ));
            out.push_str(&format!(
                "      \"min_warm_speedup\": {},\n",
                fmt_f64(s.min_warm_speedup)
            ));
            out.push_str(&format!("      \"phase_self_ms\": \"{}\"\n", s.phase_self_ms));
            out.push_str(if i + 1 == self.scenarios.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a document produced by [`BenchBaseline::to_json`]. The parser
    /// is line-oriented over that fixed shape — it accepts any field
    /// order inside a scenario object but not arbitrary JSON.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut version: Option<u32> = None;
        let mut scenarios = Vec::new();
        let mut cur: Option<ScenarioPerf> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim().trim_end_matches(',');
            let err = |m: &str| format!("line {}: {m}: {raw:?}", lineno + 1);
            if line == "{"
                || line == "["
                || line == "\"scenarios\": ["
                || line == "]"
                || line == "}"
            {
                if line == "{" && version.is_some() {
                    cur = Some(ScenarioPerf {
                        name: String::new(),
                        nodes: 0,
                        events_processed: 0,
                        peak_queue_len: 0,
                        federation_points: 0,
                        events_per_sec: 0.0,
                        rounds_per_sec: 0.0,
                        objective_gap_pct: 0.0,
                        max_gap_pct: 0.0,
                        speedup_vs_exact: 0.0,
                        min_exact_speedup: 0.0,
                        warm_speedup_vs_cold: 0.0,
                        min_warm_speedup: 0.0,
                        phase_self_ms: String::new(),
                    });
                }
                if line == "}" {
                    if let Some(s) = cur.take() {
                        if s.name.is_empty() {
                            return Err(err("scenario without a name"));
                        }
                        scenarios.push(s);
                    }
                }
                continue;
            }
            let Some((key, value)) = line.split_once(':') else { continue };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match (key, &mut cur) {
                ("version", None) => {
                    version = Some(value.parse().map_err(|_| err("version must be an integer"))?);
                }
                ("name", Some(s)) => s.name = value.trim_matches('"').to_string(),
                ("nodes", Some(s)) => {
                    s.nodes = value.parse().map_err(|_| err("bad integer"))?;
                }
                ("events_processed", Some(s)) => {
                    s.events_processed = value.parse().map_err(|_| err("bad integer"))?;
                }
                ("peak_queue_len", Some(s)) => {
                    s.peak_queue_len = value.parse().map_err(|_| err("bad integer"))?;
                }
                ("federation_points", Some(s)) => {
                    s.federation_points = value.parse().map_err(|_| err("bad integer"))?;
                }
                ("events_per_sec", Some(s)) => {
                    s.events_per_sec = value.parse().map_err(|_| err("bad number"))?;
                }
                ("rounds_per_sec", Some(s)) => {
                    s.rounds_per_sec = value.parse().map_err(|_| err("bad number"))?;
                }
                // v1–v4 gated the removed tick core; nothing reads these
                ("speedup_vs_tick" | "min_speedup", Some(_)) => {
                    value.parse::<f64>().map_err(|_| err("bad number"))?;
                }
                ("objective_gap_pct", Some(s)) => {
                    s.objective_gap_pct = value.parse().map_err(|_| err("bad number"))?;
                }
                ("max_gap_pct", Some(s)) => {
                    s.max_gap_pct = value.parse().map_err(|_| err("bad number"))?;
                }
                ("speedup_vs_exact", Some(s)) => {
                    s.speedup_vs_exact = value.parse().map_err(|_| err("bad number"))?;
                }
                ("min_exact_speedup", Some(s)) => {
                    s.min_exact_speedup = value.parse().map_err(|_| err("bad number"))?;
                }
                ("warm_speedup_vs_cold", Some(s)) => {
                    s.warm_speedup_vs_cold = value.parse().map_err(|_| err("bad number"))?;
                }
                ("min_warm_speedup", Some(s)) => {
                    s.min_warm_speedup = value.parse().map_err(|_| err("bad number"))?;
                }
                ("phase_self_ms", Some(s)) => {
                    s.phase_self_ms = value.trim_matches('"').to_string();
                }
                ("scenarios", _) => {}
                (other, _) => return Err(err(&format!("unexpected key {other:?}"))),
            }
        }
        let version = version.ok_or("missing version")?;
        if version == 0 || version > BASELINE_VERSION {
            return Err(format!("unsupported baseline version {version}"));
        }
        if scenarios.is_empty() {
            return Err("baseline has no scenarios".into());
        }
        Ok(BenchBaseline { version, scenarios })
    }

    /// Compare `candidate` against this baseline. Returns the list of
    /// failures (empty = pass). `tolerance` is the allowed fractional
    /// throughput regression, e.g. `0.2` for 20 %.
    pub fn compare(&self, candidate: &BenchBaseline, tolerance: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for b in &self.scenarios {
            let Some(c) = candidate.scenarios.iter().find(|s| s.name == b.name) else {
                failures.push(format!("{}: missing from candidate", b.name));
                continue;
            };
            for (field, bv, cv) in [
                ("nodes", b.nodes, c.nodes),
                ("events_processed", b.events_processed, c.events_processed),
                ("peak_queue_len", b.peak_queue_len, c.peak_queue_len),
                ("federation_points", b.federation_points, c.federation_points),
            ] {
                if bv != cv {
                    failures.push(format!(
                        "{}: deterministic field {field} drifted: baseline {bv}, candidate {cv} \
                         (simulation behaviour changed; refresh BENCH_seed.json deliberately)",
                        b.name
                    ));
                }
            }
            let attribution = phase_attribution(&b.phase_self_ms, &c.phase_self_ms);
            let floor = b.events_per_sec * (1.0 - tolerance);
            if c.events_per_sec < floor {
                failures.push(format!(
                    "{}: events/sec regressed beyond {:.0} %: baseline {:.0}, candidate {:.0} \
                     (floor {:.0}){attribution}",
                    b.name,
                    tolerance * 100.0,
                    b.events_per_sec,
                    c.events_per_sec,
                    floor
                ));
            }
            if b.rounds_per_sec > 0.0 {
                let floor = b.rounds_per_sec * (1.0 - tolerance);
                if c.rounds_per_sec < floor {
                    failures.push(format!(
                        "{}: rounds/sec regressed beyond {:.0} %: baseline {:.2}, \
                         candidate {:.2}{attribution}",
                        b.name,
                        tolerance * 100.0,
                        b.rounds_per_sec,
                        c.rounds_per_sec
                    ));
                }
            }
            if b.max_gap_pct > 0.0 && c.objective_gap_pct > b.max_gap_pct {
                failures.push(format!(
                    "{}: partitioned objective gap exceeds the committed ceiling: \
                     {:.2} % > {:.2} %{attribution}",
                    b.name, c.objective_gap_pct, b.max_gap_pct
                ));
            }
            if b.min_exact_speedup > 0.0 && c.speedup_vs_exact < b.min_exact_speedup {
                failures.push(format!(
                    "{}: partitioned speedup over the exact solve fell below the committed \
                     floor: {:.2}x < {:.2}x{attribution}",
                    b.name, c.speedup_vs_exact, b.min_exact_speedup
                ));
            }
            if b.min_warm_speedup > 0.0 && c.warm_speedup_vs_cold < b.min_warm_speedup {
                failures.push(format!(
                    "{}: warm-start speedup over the cold solve fell below the committed \
                     floor: {:.2}x < {:.2}x{attribution}",
                    b.name, c.warm_speedup_vs_cold, b.min_warm_speedup
                ));
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchBaseline {
        BenchBaseline {
            version: BASELINE_VERSION,
            scenarios: vec![
                ScenarioPerf {
                    name: "scale_fleet_k90".into(),
                    nodes: 10_125,
                    events_processed: 121_589,
                    peak_queue_len: 3,
                    federation_points: 2_063_457,
                    events_per_sec: 500_000.0,
                    rounds_per_sec: 0.2,
                    objective_gap_pct: 0.0,
                    max_gap_pct: 0.0,
                    speedup_vs_exact: 0.0,
                    min_exact_speedup: 0.0,
                    warm_speedup_vs_cold: 0.0,
                    min_warm_speedup: 0.0,
                    phase_self_ms: "sim.event.stat_emission:120.00;sim.resource_walk:80.00;\
                                    sim.telemetry_batch:40.00"
                        .into(),
                },
                ScenarioPerf {
                    name: "testbed_chaos".into(),
                    nodes: 6,
                    events_processed: 1_800,
                    peak_queue_len: 12,
                    federation_points: 2_160,
                    events_per_sec: 90_000.0,
                    rounds_per_sec: 11.0,
                    objective_gap_pct: 0.0,
                    max_gap_pct: 0.0,
                    speedup_vs_exact: 0.0,
                    min_exact_speedup: 0.0,
                    warm_speedup_vs_cold: 0.0,
                    min_warm_speedup: 0.0,
                    phase_self_ms: "proto.manager_tick:12.00;cost.price_rows:5.00".into(),
                },
                ScenarioPerf {
                    name: "partition_fat_tree".into(),
                    nodes: 5_120,
                    events_processed: 0,
                    peak_queue_len: 4,
                    federation_points: 0,
                    events_per_sec: 0.0,
                    rounds_per_sec: 0.4,
                    objective_gap_pct: 2.1,
                    max_gap_pct: 5.0,
                    speedup_vs_exact: 4.5,
                    min_exact_speedup: 3.0,
                    warm_speedup_vs_cold: 4.0,
                    min_warm_speedup: 3.0,
                    phase_self_ms: "lp.partition.solve:300.00;lp.partition.deal:40.00".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let parsed = BenchBaseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed.version, b.version);
        assert_eq!(parsed.scenarios.len(), 3);
        assert_eq!(parsed.scenarios[0].name, "scale_fleet_k90");
        assert_eq!(parsed.scenarios[0].events_processed, 121_589);
        assert_eq!(parsed.scenarios[1].rounds_per_sec, 11.0);
        assert_eq!(parsed.scenarios[2].objective_gap_pct, 2.1);
        assert_eq!(parsed.scenarios[2].max_gap_pct, 5.0);
        assert_eq!(parsed.scenarios[2].speedup_vs_exact, 4.5);
        assert_eq!(parsed.scenarios[2].min_exact_speedup, 3.0);
        assert_eq!(
            parsed.scenarios[2].phase_self_ms, "lp.partition.solve:300.00;lp.partition.deal:40.00",
            "phase strings (which contain colons) must survive the line parser"
        );
        assert_eq!(parsed.scenarios[0].phase_self_ms, b.scenarios[0].phase_self_ms);
    }

    #[test]
    fn version_2_documents_still_parse_with_empty_phases() {
        let mut v2 = sample();
        v2.version = 2;
        for s in &mut v2.scenarios {
            s.phase_self_ms = String::new();
        }
        // drop the phase_self_ms lines entirely, as a real v2 file has
        let json: String = v2
            .to_json()
            .lines()
            .filter(|l| !l.contains("phase_self_ms"))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = BenchBaseline::parse(&json).unwrap();
        assert_eq!(parsed.version, 2);
        assert!(parsed.scenarios.iter().all(|s| s.phase_self_ms.is_empty()));
    }

    #[test]
    fn version_1_documents_still_parse_with_gates_off() {
        let v1 = "{\n  \"version\": 1,\n  \"scenarios\": [\n    {\n      \
                  \"name\": \"scale_fleet_k90\",\n      \"nodes\": 10125,\n      \
                  \"events_processed\": 121589,\n      \"peak_queue_len\": 3,\n      \
                  \"federation_points\": 2035125,\n      \"events_per_sec\": 523537.28,\n      \
                  \"rounds_per_sec\": 8.61,\n      \"speedup_vs_tick\": 7.41,\n      \
                  \"min_speedup\": 5.00\n    }\n  ]\n}\n";
        let parsed = BenchBaseline::parse(v1).unwrap();
        assert_eq!(parsed.version, 1);
        assert_eq!(parsed.scenarios[0].max_gap_pct, 0.0, "v1 leaves the gap gate off");
        assert_eq!(parsed.scenarios[0].min_exact_speedup, 0.0);
    }

    #[test]
    fn identical_runs_pass() {
        let b = sample();
        assert!(b.compare(&sample(), 0.2).is_empty());
    }

    #[test]
    fn throughput_within_tolerance_passes() {
        let b = sample();
        let mut c = sample();
        c.scenarios[0].events_per_sec = 420_000.0; // -16 %
        assert!(b.compare(&c, 0.2).is_empty());
    }

    #[test]
    fn throughput_regression_fails() {
        let b = sample();
        let mut c = sample();
        c.scenarios[0].events_per_sec = 350_000.0; // -30 %
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("events/sec regressed"), "{f:?}");
        // identical phase data: nothing grew, so no attribution suffix
        assert!(!f[0].contains("slowest-growing"), "{f:?}");
    }

    #[test]
    fn throughput_regression_names_the_phases_that_grew() {
        let b = sample();
        let mut c = sample();
        c.scenarios[0].events_per_sec = 350_000.0; // -30 %
        c.scenarios[0].phase_self_ms = "sim.event.stat_emission:121.00;\
                                        sim.resource_walk:290.00;sim.telemetry_batch:40.00"
            .into();
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("slowest-growing phases:"), "{f:?}");
        // the biggest delta leads: resource_walk grew 80 → 290 ms
        assert!(f[0].contains("sim.resource_walk (+210.00 ms self, now 290.00 ms)"), "{f:?}");
        let walk = f[0].find("sim.resource_walk").unwrap();
        let stat = f[0].rfind("sim.event.stat_emission").unwrap();
        assert!(walk < stat, "phases must be ordered by delta: {f:?}");
        // a brand-new phase counts as grown from zero
        let mut c = sample();
        c.scenarios[0].rounds_per_sec = 0.01;
        c.scenarios[0].phase_self_ms = "cost.row_price:55.00".into();
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("cost.row_price (+55.00 ms self"), "{f:?}");
        // no phase data on the candidate: the failure stands, unattributed
        let mut c = sample();
        c.scenarios[0].events_per_sec = 1.0;
        c.scenarios[0].phase_self_ms = String::new();
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(!f[0].contains("slowest-growing"), "{f:?}");
    }

    #[test]
    fn deterministic_drift_fails_regardless_of_speed() {
        let b = sample();
        let mut c = sample();
        c.scenarios[0].events_processed += 1;
        c.scenarios[0].events_per_sec *= 10.0;
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("events_processed drifted"), "{f:?}");
    }

    #[test]
    fn version_4_speedup_fields_parse_and_gate_nothing() {
        // a v4 document carries the tick-core speedup gate after
        // rounds_per_sec; a candidate below its old floor still passes
        let v4 = |speedup: &str| -> String {
            sample()
                .to_json()
                .replace("\"version\": 5", "\"version\": 4")
                .lines()
                .flat_map(|l| {
                    let mut out = vec![format!("{l}\n")];
                    if l.contains("\"rounds_per_sec\"") {
                        out.push(format!("      \"speedup_vs_tick\": {speedup},\n"));
                        out.push("      \"min_speedup\": 5.00,\n".into());
                    }
                    out
                })
                .collect()
        };
        let base = BenchBaseline::parse(&v4("16.29")).unwrap();
        assert_eq!(base.version, 4);
        assert_eq!(base.scenarios, sample().scenarios, "the two keys are dropped");
        let cand = BenchBaseline::parse(&v4("1.00")).unwrap();
        assert!(base.compare(&cand, 0.2).is_empty());
        let bad = v4("fast");
        assert!(BenchBaseline::parse(&bad).unwrap_err().contains("bad number"));
    }

    #[test]
    fn gap_ceiling_is_enforced() {
        let b = sample();
        let mut c = sample();
        c.scenarios[2].objective_gap_pct = 7.3;
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("objective gap exceeds"), "{f:?}");
        // scenarios without a committed ceiling may drift freely
        let mut c = sample();
        c.scenarios[0].objective_gap_pct = 40.0;
        assert!(b.compare(&c, 0.2).is_empty());
    }

    #[test]
    fn version_3_documents_still_parse_with_warm_gates_off() {
        let mut v3 = sample();
        v3.version = 3;
        for s in &mut v3.scenarios {
            s.warm_speedup_vs_cold = 0.0;
            s.min_warm_speedup = 0.0;
        }
        // drop the warm lines entirely, as a real v3 file has
        let json: String = v3
            .to_json()
            .lines()
            .filter(|l| !l.contains("warm_speedup_vs_cold") && !l.contains("min_warm_speedup"))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = BenchBaseline::parse(&json).unwrap();
        assert_eq!(parsed.version, 3);
        assert!(parsed.scenarios.iter().all(|s| s.min_warm_speedup == 0.0));
    }

    #[test]
    fn warm_speedup_floor_is_enforced() {
        let b = sample();
        let mut c = sample();
        c.scenarios[2].warm_speedup_vs_cold = 1.4;
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("warm-start speedup over the cold solve"), "{f:?}");
        // scenarios without a committed floor may drift freely
        let mut c = sample();
        c.scenarios[0].warm_speedup_vs_cold = 0.1;
        assert!(b.compare(&c, 0.2).is_empty());
    }

    #[test]
    fn gate_failures_carry_phase_attribution() {
        // the attribution suffix is not just for throughput failures:
        // gap, exact-speedup, and warm-speedup gate failures name the
        // phases that grew too
        let b = sample();
        let mut c = sample();
        c.scenarios[2].warm_speedup_vs_cold = 1.0;
        c.scenarios[2].phase_self_ms = "lp.partition.solve:900.00;lp.partition.deal:40.00".into();
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("warm-start speedup"), "{f:?}");
        assert!(f[0].contains("slowest-growing phases:"), "{f:?}");
        assert!(f[0].contains("lp.partition.solve (+600.00 ms self"), "{f:?}");
        let mut c = sample();
        c.scenarios[2].objective_gap_pct = 9.0;
        c.scenarios[2].phase_self_ms = "lp.partition.solve:310.00;lp.partition.deal:40.00".into();
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("objective gap exceeds"), "{f:?}");
        assert!(f[0].contains("slowest-growing phases:"), "{f:?}");
    }

    #[test]
    fn exact_speedup_floor_is_enforced() {
        let b = sample();
        let mut c = sample();
        c.scenarios[2].speedup_vs_exact = 1.2;
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("speedup over the exact solve"), "{f:?}");
    }

    #[test]
    fn missing_scenario_fails() {
        let b = sample();
        let mut c = sample();
        c.scenarios.remove(1);
        let f = b.compare(&c, 0.2);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("missing from candidate"), "{f:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchBaseline::parse("").is_err());
        assert!(BenchBaseline::parse("{\n  \"version\": 99\n}\n").is_err());
        let mangled = sample().to_json().replace("\"events_per_sec\"", "\"events_per_min\"");
        assert!(BenchBaseline::parse(&mangled).is_err());
    }
}
