//! The two simulation workloads.
//!
//! * `hot_fleet`: a k=16 fat-tree whose 128 edge switches run the
//!   standard ten-agent deployment on testbed hardware, with DPU-class
//!   aggregation and core switches as candidates. Offload demand exceeds
//!   candidate capacity, so the Manager keeps re-placing and every layer
//!   from STAT ingest to agent move and telemetry sample runs inside one
//!   timed `Simulation::run`.
//! * `quiet_fleet`: the k=90 `scale_fleet` (10 125 appliances with 400
//!   agents each) where no node is Busy: telemetry writes, reads and STAT
//!   ingest do the work and the solver never runs.
//!
//! One repetition builds a fresh simulation (timed as set-up), runs it
//! (timed), then refreshes a fleet dashboard over the run's federation a
//! fixed number of times (each refresh timed).

use crate::prof::{obs_handle, pricing_and_solver, ratio, Profile};
use crate::stats::{median, quantile};
use crate::{alloc, layer_medians, Outcome, Reps, Values, Work, WARMUP};
use dust::prelude::*;
use dust::sim::DriftConfig;
use dust::topology::Link;
use std::hint::black_box;
use std::time::Instant;

/// The series a fleet dashboard shows per node.
const SERIES: [&str; 3] = ["device-cpu", "device-mem", "monitor-cpu"];
/// Builds timed per repetition (the last one is run); the median over all
/// timed repetitions is `setup_s`. Sampling set-up throughout the run
/// keeps one slow moment of the host from deciding it.
const SETUPS_PER_REP: usize = 3;

/// Which simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    Hot,
    Quiet,
}

impl Fleet {
    fn name(self) -> &'static str {
        match self {
            Fleet::Hot => "hot_fleet",
            Fleet::Quiet => "quiet_fleet",
        }
    }

    fn duration_ms(self) -> u64 {
        match self {
            Fleet::Hot => 300_000,
            Fleet::Quiet => 60_000,
        }
    }

    /// Dashboard refreshes per repetition: enough that every run pools
    /// well over a hundred latency samples.
    fn queries(self) -> usize {
        match self {
            Fleet::Hot => 256,
            Fleet::Quiet => 24,
        }
    }

    /// The dashboard's trailing window, in sample periods. On `hot_fleet`
    /// it spans most of the run, so one query reads enough points to time
    /// steadily; on `quiet_fleet` 64 periods already read about 2 M.
    fn window_samples(self) -> u64 {
        match self {
            Fleet::Hot => 256,
            Fleet::Quiet => 64,
        }
    }

    /// Telemetry sample period, ms (the `scale_fleet` value for
    /// `quiet_fleet`).
    fn sample_period_ms(self) -> u64 {
        match self {
            Fleet::Hot => 1_000,
            Fleet::Quiet => 150,
        }
    }

    /// Fat-tree port count.
    fn k(self) -> usize {
        match self {
            Fleet::Hot => 16,
            Fleet::Quiet => 90,
        }
    }

    fn build(self, seed: u64, obs: ObsHandle) -> Simulation {
        match self {
            Fleet::Hot => {
                let ft = FatTree::new(self.k(), Link::new(25_000.0, 0.2));
                let edges = ft.tier_nodes(Tier::Edge);
                let nodes = ft
                    .graph
                    .nodes()
                    .map(|n| {
                        if edges.contains(&n) {
                            SimNode::with_standard_agents(n, NodeSpec::aruba_8325())
                        } else {
                            SimNode::bare(n, NodeSpec::dpu())
                        }
                    })
                    .collect();
                Simulation::builder()
                    .graph(ft.graph)
                    .nodes(nodes)
                    .traffic(TrafficModel::testbed())
                    .dust(testbed_dust_config())
                    .duration_ms(self.duration_ms())
                    .sample_period_ms(self.sample_period_ms())
                    .seed(seed)
                    .full_monitoring_offload(false)
                    .drift(DriftConfig::default())
                    .warm_start(true)
                    .delta_placement(0.10, 8)
                    .obs(obs)
                    .build()
                    .expect("hot_fleet knobs are consistent")
            }
            Fleet::Quiet => {
                scale_fleet_sim_on(self.k(), self.duration_ms(), seed, obs, EngineKind::Event)
            }
        }
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: Vec<f64>,
    run_s: f64,
    query_ms: Vec<f64>,
    offers_sent: u64,
    failed: u64,
    /// Work counts and deterministic outputs: must repeat (see `Reps::check_work`).
    work: Work,
    /// Per-layer values (traced repetitions only).
    layer: Values,
    breaches: Vec<String>,
}

/// One dashboard refresh: every node's mean of each [`SERIES`] over the
/// trailing window. Returns the table and the points it read.
fn dashboard(fed: &Federation, start: u64, end: u64) -> (Vec<(NodeId, [f64; 3])>, u64) {
    let mut points = 0u64;
    let rows = fed
        .nodes()
        .into_iter()
        .map(|n| {
            let mut row = [f64::NAN; 3];
            if let Some(db) = fed.store(n) {
                for (slot, name) in row.iter_mut().zip(SERIES) {
                    if let Some(s) = db.series(name) {
                        points += s.range(start, end).len() as u64;
                        *slot = s.mean(start, end).unwrap_or(f64::NAN);
                    }
                }
            }
            (n, row)
        })
        .collect();
    (rows, points)
}

/// Mean edge-switch device CPU in the first tenth of the run against the
/// settled last half, as a percentage reduction.
fn cpu_relief_pct(fleet: Fleet, report: &SimReport) -> f64 {
    let d = fleet.duration_ms();
    let edges = FatTree::new(fleet.k(), Link::new(25_000.0, 0.2)).tier_nodes(Tier::Edge);
    let window = |start: u64, end: u64| -> f64 {
        let v: Vec<f64> =
            edges.iter().filter_map(|&e| report.mean(e, SERIES[0], start, end)).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let early = window(0, d / 10);
    100.0 * (early - window(d / 2, d)) / early
}

fn one_rep(fleet: Fleet, seed: u64, traced: bool) -> Rep {
    let obs = obs_handle(traced, seed);
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REP);
    for _ in 1..SETUPS_PER_REP {
        let t = Instant::now();
        let sim = black_box(fleet.build(seed, ObsHandle::disabled()));
        setup_s.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let t = Instant::now();
    let mut sim = fleet.build(seed, obs.clone());
    setup_s.push(t.elapsed().as_secs_f64());

    let a0 = alloc::count();
    let t = Instant::now();
    let report = {
        let _span = obs.prof_scope("bench.sim_run");
        sim.run()
    };
    let run_s = t.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    let (offers_sent, rounds) = (sim.manager().offers_sent(), sim.manager().placement_rounds());
    drop(sim);

    let end = fleet.duration_ms();
    let start = end - fleet.window_samples() * fleet.sample_period_ms();
    let mut query_ms = Vec::with_capacity(fleet.queries());
    let (mut table, mut points_per_query) = (Vec::new(), 0);
    for _ in 0..fleet.queries() {
        let t = Instant::now();
        let (rows, points) = {
            let _span = obs.prof_scope("bench.query");
            dashboard(black_box(&report.federation), start, end)
        };
        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        (table, points_per_query) = (black_box(rows), points);
    }

    let fed = &report.federation;
    let nodes = fed.nodes();
    let points: u64 =
        nodes.iter().filter_map(|n| fed.store(*n)).map(|db| db.point_count() as u64).sum();
    let mut breaches = Vec::new();
    let missing = table.iter().filter(|(_, r)| r.iter().any(|v| !v.is_finite())).count();
    if missing > 0 || table.len() != nodes.len() {
        breaches.push(format!("dashboard: {missing} of {} nodes lack a series value", table.len()));
    }
    let failed = match fleet {
        Fleet::Hot => {
            if report.orphaned != 0 {
                breaches.push(format!("{} hostings orphaned", report.orphaned));
            }
            if report.transfers_applied == 0 {
                breaches.push("no transfer applied: the fleet never offloaded".to_string());
            }
            report.offers_abandoned + report.orphaned as u64
        }
        Fleet::Quiet => {
            if report.transfers_applied != 0 {
                let n = report.transfers_applied;
                breaches.push(format!("{n} transfers on a fleet with no Busy node"));
            }
            // every node samples every series at t = 0 and once per
            // sample period after it
            let samples = fleet.duration_ms() / fleet.sample_period_ms() + 1;
            let expect = nodes.len() as u64 * SERIES.len() as u64 * samples;
            if points != expect {
                breaches.push(format!("federation holds {points} points, expected {expect}"));
            }
            u64::from(!breaches.is_empty())
        }
    };
    let relief_pct = if fleet == Fleet::Hot { cpu_relief_pct(fleet, &report) } else { 0.0 };
    let checksum: f64 = table.iter().flat_map(|(_, r)| r.iter()).sum();

    let events = report.events_processed;
    let mut work = Work::from([
        ("sim.events".to_string(), events),
        ("sim.placement_rounds".to_string(), rounds),
        ("sim.transfers_applied".to_string(), report.transfers_applied as u64),
        ("telemetry.points".to_string(), points),
        ("telemetry.points_per_query".to_string(), points_per_query),
        ("proto.offers_sent".to_string(), offers_sent),
        ("out.dashboard_checksum_bits".to_string(), checksum.to_bits()),
        ("out.cpu_relief_bits".to_string(), relief_pct.to_bits()),
    ]);
    let mut layer = Values::from([
        ("telemetry.points", points as f64),
        ("telemetry.points_per_query", points_per_query as f64),
        ("sim.events", events as f64),
        ("sim.transfers_applied", report.transfers_applied as f64),
        ("sim.cpu_relief_pct", relief_pct),
    ]);
    if traced {
        let prof = Profile::of(&obs);
        layer.extend(pricing_and_solver(&obs, &prof, &mut work));
        let c = |name: &str| obs.counter(name) as f64;
        layer.extend([
            ("topology.refresh_ms", prof.total_ms("cost.refresh")),
            ("topology.rows_migrated", c("cost.rows_migrated")),
            ("topology.rows_invalidated", c("cost.rows_invalidated")),
            ("topology.full_invalidations", c("cost.full_invalidations")),
            ("topology.price_ms", prof.total_ms("cost.price_rows")),
            ("lp.solve_ms", prof.total_ms("lp.transport.solve")),
            (
                "lp.warm_hit_ratio",
                ratio(c("lp.warm_solves"), c("lp.warm_solves") + c("lp.warm_rejects")),
            ),
            ("core.placements_infeasible", c("core.placements_infeasible")),
            ("proto.manager_tick.self_ms", prof.self_ms("proto.manager_tick")),
            ("proto.placement_round.self_ms", prof.self_ms("proto.placement_round")),
            ("proto.stat_ingest.self_ms", prof.self_ms("proto.stat_ingest")),
            ("proto.offers_sent", c("proto.offers_sent")),
            ("proto.offer_retransmits", c("proto.offer_retransmits")),
            ("proto.delta_rounds", c("proto.delta_rounds")),
            ("proto.flows_rehomed", c("proto.flows_rehomed")),
            (
                "proto.offer_confirm_ratio",
                ratio(c("proto.offers_confirmed"), c("proto.offers_sent")),
            ),
            ("sim.telemetry_batch.self_ms", prof.self_ms("sim.telemetry_batch")),
            ("sim.resource_walk.self_ms", prof.self_ms("sim.resource_walk")),
        ]);
    } else {
        work.insert("alloc.run".to_string(), allocs);
        layer.insert("alloc.per_event", allocs as f64 / events.max(1) as f64);
        layer.insert("alloc.per_round", allocs as f64 / rounds.max(1) as f64);
    }
    Rep { setup_s, run_s, query_ms, offers_sent, failed, work, layer, breaches }
}

/// Run `fleet` for about `seconds` and summarise.
pub fn run(fleet: Fleet, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let reps = Reps::run(seconds, trace, |_, traced| one_rep(fleet, seed, traced));
    let mut out = Outcome::default();
    for r in reps.all() {
        out.attempted += match fleet {
            Fleet::Hot => r.offers_sent,
            Fleet::Quiet => 1,
        };
        out.failed += r.failed;
        out.breaches.extend(r.breaches.iter().map(|b| format!("{}: {b}", fleet.name())));
    }
    let outputs = ["sim.events", "sim.transfers_applied", "out.dashboard_checksum_bits"];
    reps.check_work(fleet.name(), |r| &r.work, &outputs, &mut out.breaches);

    let plain = &reps.plain;
    let run_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let queries: Vec<f64> = plain.iter().flat_map(|r| r.query_ms.iter().copied()).collect();
    let setup_s: Vec<f64> = plain.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let first = &plain[0];
    let v = &mut out.values;
    v.extend(first.layer.iter().map(|(k, x)| (*k, *x)));
    v.extend(layer_medians(reps.traced.iter().map(|r| &r.layer)));
    v.insert("setup_s", median(&setup_s));
    v.insert("sim_speed", fleet.duration_ms() as f64 / 1e3 / run_s);
    v.insert("rounds_per_s", first.work["sim.placement_rounds"] as f64 / run_s);
    v.insert("latency_ms_p50", median(&queries));
    v.insert("latency_ms_p90", quantile(&queries, 0.9));
    v.insert("telemetry.query_ms", median(&queries));
    if !reps.traced.is_empty() {
        let traced_s = median(&reps.traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
        v.insert("obs.trace_overhead", traced_s / run_s);
    }
    let p90 = quantile(&queries, 0.9);
    out.notes.push(format!(
        "{} timed repetitions of {} simulated s ({WARMUP} warm-up, {} traced); \
         {} dashboard samples, {} above p90",
        plain.len(),
        fleet.duration_ms() / 1000,
        reps.traced.len(),
        queries.len(),
        queries.iter().filter(|&&q| q > p90).count(),
    ));
    let walls: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    out.notes.push(format!("Simulation::run wall s: {}", walls.join(" ")));
    out.work = first.work.clone();
    out
}
