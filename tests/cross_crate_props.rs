//! Cross-crate seeded tests: invariants that only hold when every layer
//! cooperates (topology costs → LP optimum → placement → protocol).

use dust::lp::{solve, Cmp, Problem, Status};
use dust::prelude::*;
use dust::topology::SplitMix64;

/// Rebuild a placement as an explicit LP from first principles and check
/// the optimizer's β matches.
fn beta_via_raw_lp(nmdb: &Nmdb, cfg: &DustConfig) -> Option<f64> {
    let busy = nmdb.busy_nodes(cfg);
    let cands = nmdb.candidate_nodes(cfg);
    if busy.is_empty() {
        return Some(0.0);
    }
    let data: Vec<f64> = busy.iter().map(|&b| nmdb.state(b).data_mb).collect();
    let costs =
        CostMatrix::build(&nmdb.graph, &busy, &cands, &data, cfg.max_hop, PathEngine::HopBoundedDp);
    let mut p = Problem::new();
    let mut vars = Vec::new();
    for r in 0..busy.len() {
        for c in 0..cands.len() {
            let t = costs.at(r, c);
            vars.push(t.is_finite().then(|| p.add_nonneg(t)));
        }
    }
    for (r, &b) in busy.iter().enumerate() {
        let terms: Vec<_> =
            (0..cands.len()).filter_map(|c| vars[r * cands.len() + c].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Eq, nmdb.cs(b, cfg));
    }
    for (c, &o) in cands.iter().enumerate() {
        let terms: Vec<_> =
            (0..busy.len()).filter_map(|r| vars[r * cands.len() + c].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Le, nmdb.cd(o, cfg));
    }
    let s = solve(&p);
    (s.status == Status::Optimal).then_some(s.objective)
}

/// The full placement pipeline equals a hand-built LP of Eq. 3.
#[test]
fn placement_equals_first_principles_lp() {
    for outer in 0..16u64 {
        let seed = SplitMix64::new(outer).next_u64();
        let ft = FatTree::with_default_links(4);
        let cfg = DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp);
        let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed);
        let p = PlacementRequest::new(&nmdb, &cfg).run_lp().unwrap();
        let raw = beta_via_raw_lp(&nmdb, &cfg);
        match (p.status, raw) {
            (PlacementStatus::Optimal, Some(beta)) => {
                assert!(
                    (p.beta - beta).abs() <= 1e-5 * (1.0 + beta.abs()),
                    "seed {seed}: pipeline {} vs raw LP {}",
                    p.beta,
                    beta
                );
            }
            (PlacementStatus::Infeasible, None) => {}
            (PlacementStatus::NoBusyNodes, Some(b)) => assert!(b.abs() < 1e-9, "seed {seed}"),
            (a, b) => panic!("seed {seed}: status mismatch {a:?} vs {b:?}"),
        }
    }
}

/// Applying an optimal placement to the NMDB de-busies every node
/// without overloading any candidate.
#[test]
fn applying_placement_debusies_network() {
    for outer in 0..16u64 {
        let seed = SplitMix64::new(1000 + outer).next_u64();
        let ft = FatTree::with_default_links(4);
        let cfg = DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp);
        let mut nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed);
        let p = PlacementRequest::new(&nmdb, &cfg).run_lp().unwrap();
        if p.status != PlacementStatus::Optimal {
            continue;
        }
        for a in &p.assignments {
            nmdb.apply_transfer(a.from, a.to, a.amount);
        }
        for n in nmdb.graph.nodes() {
            let u = nmdb.state(n).utilization;
            assert!(
                u <= cfg.c_max + 1e-6 || nmdb.role(n, &cfg) != Role::Busy || u - cfg.c_max < 1e-6,
                "seed {seed}: node {n:?} still busy at {u}"
            );
            assert!(u <= 100.0 + 1e-9, "seed {seed}");
        }
        // ex-candidates must not exceed CO_max (constraint 3a post-state)
        for &o in &p.candidates {
            assert!(
                nmdb.state(o).utilization <= cfg.co_max + 1e-6,
                "seed {seed}: candidate {o:?} overloaded to {}",
                nmdb.state(o).utilization
            );
        }
    }
}

/// Protocol-driven placement (Manager assembling its own NMDB from
/// STATs) agrees with direct optimization on the same state.
#[test]
fn manager_snapshot_matches_direct_optimization() {
    for seed in 0u64..16 {
        let ft = FatTree::with_default_links(2); // 5 switches: quick
        let cfg = DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp);
        let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed);
        let mut manager =
            Manager::new(ft.graph.clone(), cfg, SolverBackend::Transportation, 1_000, 4_000)
                .unwrap();
        let mut clients: Vec<Client> =
            ft.graph.nodes().map(|n| Client::new(n, true, 100.0)).collect();
        for c in clients.iter_mut() {
            let reg = c.register(0);
            for env in manager.handle(0, &reg) {
                c.handle(0, &env.msg);
            }
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let st = nmdb.state(NodeId(i as u32));
            c.observe(st.utilization, st.data_mb);
            for m in c.tick(1_000) {
                manager.handle(1_000, &m);
            }
        }
        let direct = PlacementRequest::new(&nmdb, &cfg).run_lp().unwrap();
        let (via_manager, _) = manager.run_placement(1_001);
        // link utilizations differ (manager snapshot clones the topology as
        // built), so only compare status and totals — the graph is shared.
        assert_eq!(direct.status, via_manager.status, "seed {seed}");
        if direct.status == PlacementStatus::Optimal {
            assert!(
                (direct.total_offloaded() - via_manager.total_offloaded()).abs() < 1e-6,
                "seed {seed}"
            );
        }
    }
}
