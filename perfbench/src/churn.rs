//! `placement_churn`: the Manager's decision loop without the simulator,
//! as a closed loop of back-to-back placement rounds.
//!
//! A k=24 fat-tree with seeded random node states, 2-hop routes priced by
//! the hop-bounded DP, one shared two-thread `CostEngine`. Each round
//! drifts two seeded links, refreshes the engine's row cache and runs the
//! transportation LP warm-started from the previous round's basis. Every
//! 16th round swaps in freshly drawn node states, so the Busy/candidate
//! sets change and that round solves cold. One repetition is 128 rounds
//! from a fresh engine, so its work counts repeat exactly.

use crate::prof::{obs_handle, pricing_and_solver, ratio, Profile};
use crate::stats::{median, quantile};
use crate::{alloc, layer_medians, Outcome, Reps, Values, Work, WARMUP};
use dust::prelude::*;
use dust::topology::EdgeId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 24;
const ROUNDS: u64 = 128;
const REDRAW_EVERY: u64 = 16;
const DRIFT_LINKS: usize = 2;
/// `CostEngine::refresh` falls back to full invalidation above this
/// dirty-link fraction.
const MAX_DIRTY: f64 = 0.25;
const THREADS: usize = 2;
/// What one round stands for in `sim_speed`: the Manager's placement
/// period (the simulator's default `placement_period_ms`).
const ROUND_PERIOD_S: f64 = 5.0;
/// Set-ups timed per repetition; the median over all timed repetitions is
/// `setup_s`. Sampling set-up throughout the run keeps one slow moment of
/// the host from deciding it.
const SETUPS_PER_REP: usize = 8;
/// Relative tolerance of the warm-against-cold objective check and of the
/// supply/capacity checks.
const TOL: f64 = 1e-9;

/// The generated inputs: a configuration, a network state, and the node
/// states each redraw swaps in.
struct Setup {
    cfg: DustConfig,
    base: Nmdb,
    redraws: Vec<Vec<NodeState>>,
}

fn setup(seed: u64) -> Setup {
    let cfg =
        DustConfig::paper_defaults().with_max_hop(Some(2)).with_engine(PathEngine::HopBoundedDp);
    let graph = FatTree::with_default_links(K).graph;
    let params = ScenarioParams::default();
    let base = random_nmdb(&graph, &cfg, &params, seed);
    let redraws = (1..ROUNDS / REDRAW_EVERY)
        .map(|c| random_nmdb(&graph, &cfg, &params, mix(seed, c)).states)
        .collect();
    Setup { cfg, base, redraws }
}

fn mix(seed: u64, n: u64) -> u64 {
    seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Retune the utilization of [`DRIFT_LINKS`] seeded links.
fn drift(g: &mut Graph, seed: u64, round: u64) {
    let mut rng = SplitMix64::new(mix(seed, round));
    let edges = g.edge_count() as u64;
    for _ in 0..DRIFT_LINKS {
        let e = EdgeId(rng.below(edges) as u32);
        g.link_mut(e).utilization = rng.range_f64(0.05, 0.95);
    }
}

/// The first violated supply (`Σⱼ x_ij = Cs_i`) or capacity
/// (`Σᵢ x_ij ≤ Cd_j`) constraint of `p`, if any.
fn check_constraints(db: &Nmdb, cfg: &DustConfig, p: &Placement) -> Option<String> {
    let near = |a: f64, b: f64| (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0);
    let mut out: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut into: BTreeMap<NodeId, f64> = BTreeMap::new();
    for a in &p.assignments {
        *out.entry(a.from).or_default() += a.amount;
        *into.entry(a.to).or_default() += a.amount;
    }
    for &i in &p.busy {
        let (sent, cs) = (out.get(&i).copied().unwrap_or(0.0), db.cs(i, cfg));
        if !near(sent, cs) {
            return Some(format!("supply of {i:?}: placed {sent}, excess {cs}"));
        }
    }
    for (&j, &got) in &into {
        let cd = db.cd(j, cfg);
        if got > cd && !near(got, cd) {
            return Some(format!("capacity of {j:?}: placed {got}, capacity {cd}"));
        }
    }
    None
}

/// One round's measurements.
struct Round {
    ms: f64,
    warm_offered: bool,
    warm_used: bool,
    refresh_ms: f64,
    price_ms: f64,
    solve_ms: f64,
    extract_ms: f64,
}

struct Rep {
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    failed: u64,
    /// Work counts and deterministic outputs: must repeat (see `Reps::check_work`).
    work: Work,
    layer: Values,
    breaches: Vec<String>,
}

fn one_rep(s: &Setup, seed: u64, rep: usize, traced: bool) -> Rep {
    let setup_s = (0..SETUPS_PER_REP)
        .map(|_| {
            let t = Instant::now();
            black_box(setup(seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let obs = obs_handle(traced, seed);
    // a warm round of this repetition re-solves cold after it, untimed
    let check_round =
        REDRAW_EVERY * (rep as u64 % (ROUNDS / REDRAW_EVERY)) + 1 + rep as u64 % (REDRAW_EVERY - 1);
    let engine = CostEngine::with_threads(THREADS).with_obs(obs.clone());
    let mut db = s.base.clone();
    let mut last: Option<Placement> = None;
    let mut rounds = Vec::with_capacity(ROUNDS as usize);
    let (mut failed, mut allocs, mut beta_sum, mut assignments, mut infeasible) = (0, 0, 0.0, 0, 0);
    let (mut migrated, mut invalidated, mut full) = (0, 0, 0);
    let mut breaches = Vec::new();
    for r in 0..ROUNDS {
        if r > 0 && r % REDRAW_EVERY == 0 {
            db.states.clone_from(&s.redraws[(r / REDRAW_EVERY - 1) as usize]);
        }
        if r > 0 {
            drift(&mut db.graph, seed, r);
        }
        let a0 = alloc::count();
        let t0 = Instant::now();
        let span = obs.prof_scope("bench.round");
        let stats = {
            let _span = obs.prof_scope("bench.refresh");
            engine.refresh(&mut db.graph, MAX_DIRTY)
        };
        let t1 = Instant::now();
        let warm = last.as_ref().map(|p| &p.warm).filter(|w| !w.is_empty());
        let mut req = PlacementRequest::new(&db, &s.cfg).engine(&engine).obs(obs.clone());
        if let Some(w) = warm {
            req = req.warm_start(w);
        }
        let res = {
            let _span = obs.prof_scope("bench.run_lp");
            req.run_lp()
        };
        let t2 = Instant::now();
        drop(span);
        allocs += alloc::count() - a0;
        migrated += stats.migrated;
        invalidated += stats.invalidated;
        full += usize::from(stats.full);
        let p = match res {
            Ok(p) if p.status == PlacementStatus::Optimal => p,
            Ok(p) => {
                failed += 1;
                infeasible += u64::from(p.status == PlacementStatus::Infeasible);
                breaches.push(format!("round {r}: status {:?}", p.status));
                last = None;
                continue;
            }
            Err(e) => {
                failed += 1;
                breaches.push(format!("round {r}: {e}"));
                last = None;
                continue;
            }
        };
        if let Some(b) = check_constraints(&db, &s.cfg, &p) {
            breaches.push(format!("round {r}: {b}"));
        }
        if r == check_round && !traced {
            let fresh = CostEngine::with_threads(THREADS);
            match PlacementRequest::new(&db, &s.cfg).engine(&fresh).run_lp() {
                Ok(c) if (c.beta - p.beta).abs() <= TOL * c.beta.abs().max(1.0) => {}
                Ok(c) => breaches.push(format!(
                    "round {r}: warm objective {} but cold re-solve gives {}",
                    p.beta, c.beta
                )),
                Err(e) => breaches.push(format!("round {r}: cold re-solve failed: {e}")),
            }
        }
        let (wall, lp) = ((t2 - t0).as_secs_f64() * 1e3, (t2 - t1).as_secs_f64() * 1e3);
        let (price, solve) = (p.cost_time.as_secs_f64() * 1e3, p.solve_time.as_secs_f64() * 1e3);
        rounds.push(Round {
            ms: wall,
            warm_offered: warm.is_some(),
            warm_used: p.warm_used,
            refresh_ms: (t1 - t0).as_secs_f64() * 1e3,
            price_ms: price,
            solve_ms: solve,
            extract_ms: lp - price - solve,
        });
        beta_sum += p.beta;
        assignments += p.assignments.len() as u64;
        last = Some(p);
    }

    let warm_used = rounds.iter().filter(|r| r.warm_used).count();
    let mut work = Work::from([
        ("core.rounds_optimal".to_string(), rounds.len() as u64),
        ("core.assignments".to_string(), assignments),
        ("core.warm_used".to_string(), warm_used as u64),
        ("topology.rows_migrated".to_string(), migrated as u64),
        ("topology.rows_invalidated".to_string(), invalidated as u64),
        ("topology.full_invalidations".to_string(), full as u64),
        ("out.beta_sum_bits".to_string(), beta_sum.to_bits()),
    ]);
    let offered = rounds.iter().filter(|r| r.warm_offered).count();
    let mut layer = Values::from([
        ("core.beta_sum", beta_sum),
        ("core.assignments", assignments as f64),
        ("core.placements_infeasible", infeasible as f64),
        ("topology.rows_migrated", migrated as f64),
        ("topology.rows_invalidated", invalidated as f64),
        ("topology.full_invalidations", full as f64),
        ("lp.warm_hit_ratio", ratio(warm_used as f64, offered as f64)),
    ]);
    if traced {
        layer.extend(pricing_and_solver(&obs, &Profile::of(&obs), &mut work));
    } else {
        work.insert("alloc.rounds".to_string(), allocs);
        layer.insert("alloc.per_round", allocs as f64 / ROUNDS as f64);
    }
    Rep { setup_s, rounds, failed, work, layer, breaches }
}

/// Run `placement_churn` for about `seconds` and summarise.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let s = setup(seed);
    let reps = Reps::run(seconds, trace, |i, traced| one_rep(&s, seed, i, traced));
    let mut out = Outcome::default();
    for r in reps.all() {
        out.attempted += ROUNDS;
        out.failed += r.failed;
        out.breaches.extend(r.breaches.iter().map(|b| format!("placement_churn: {b}")));
    }
    let outputs = ["core.assignments", "out.beta_sum_bits"];
    reps.check_work("placement_churn", |r| &r.work, &outputs, &mut out.breaches);

    let plain = &reps.plain;
    let ms: Vec<f64> = plain.iter().flat_map(|r| r.rounds.iter().map(|x| x.ms)).collect();
    let cold: Vec<f64> =
        plain.iter().flat_map(|r| r.rounds.iter().filter(|x| !x.warm_used).map(|x| x.ms)).collect();
    let setup_s: Vec<f64> = plain.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    // per-repetition sums, median over repetitions
    let per_rep = |reps: &[Rep], f: fn(&Round) -> f64| -> f64 {
        median(&reps.iter().map(|r| r.rounds.iter().map(f).sum()).collect::<Vec<_>>())
    };
    let rep_ms = per_rep(plain, |x| x.ms);
    let rounds_per_s = ROUNDS as f64 / (rep_ms / 1e3);
    let v = &mut out.values;
    v.extend(plain[0].layer.iter().map(|(k, x)| (*k, *x)));
    v.extend(layer_medians(reps.traced.iter().map(|r| &r.layer)));
    v.insert("setup_s", median(&setup_s));
    v.insert("sim_speed", rounds_per_s * ROUND_PERIOD_S);
    v.insert("rounds_per_s", rounds_per_s);
    v.insert("latency_ms_p50", median(&ms));
    v.insert("latency_ms_p90", quantile(&ms, 0.9));
    v.insert("core.cold_round_ms_p50", median(&cold));
    v.insert("topology.refresh_ms", per_rep(plain, |x| x.refresh_ms));
    v.insert("topology.price_ms", per_rep(plain, |x| x.price_ms));
    v.insert("lp.solve_ms", per_rep(plain, |x| x.solve_ms));
    v.insert("core.extract_ms", per_rep(plain, |x| x.extract_ms));
    if !reps.traced.is_empty() {
        v.insert("obs.trace_overhead", per_rep(&reps.traced, |x| x.ms) / rep_ms);
    }
    let p90 = quantile(&ms, 0.9);
    out.notes.push(format!(
        "{} timed repetitions of {ROUNDS} rounds ({WARMUP} warm-up, {} traced): {} round samples, \
         {} above p90, {} cold",
        plain.len(),
        reps.traced.len(),
        ms.len(),
        ms.iter().filter(|&&x| x > p90).count(),
        cold.len(),
    ));
    let sums: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.1}", r.rounds.iter().map(|x| x.ms).sum::<f64>()))
        .collect();
    out.notes.push(format!("repetition round-time sums, ms: {}", sums.join(" ")));
    out.work = plain[0].work.clone();
    out
}
