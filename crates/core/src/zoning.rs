//! Zoned placement — the paper's scaling recommendation implemented.
//!
//! §V-B: "we suggest dividing large-scale networks into zones containing a
//! maximum of 80 nodes. This approach has an acceptable optimization cost
//! of 0.8 seconds for a max-hop value of 7". This module partitions a
//! network into bounded-size zones, runs the exact placement *inside* each
//! zone independently, and then (optionally) sweeps leftover excess across
//! zone borders with the ILP on the residual instance — keeping per-solve
//! cost bounded while recovering most of the global optimum.
//!
//! Two partitioners are provided: fat-tree pod-aware zoning (pods plus the
//! core layer) and a topology-agnostic BFS grower for arbitrary graphs.

use crate::config::DustConfig;
use crate::error::DustError;
use crate::optimizer::{Assignment, PlacementStatus, SolverBackend};
use crate::request::PlacementRequest;
use crate::state::{Nmdb, NodeState};
use dust_topology::{CostEngine, FatTree, Graph, NodeId};
use std::time::{Duration, Instant};

/// A partition of the node set into zones.
#[derive(Debug, Clone)]
pub struct Zoning {
    /// `zone_of[v]` = zone index of node `v`.
    pub zone_of: Vec<usize>,
    /// Node lists per zone.
    pub zones: Vec<Vec<NodeId>>,
}

impl Zoning {
    /// Build from a membership vector.
    ///
    /// # Panics
    /// Panics if zone indices are not dense `0..zones`.
    pub fn from_membership(zone_of: Vec<usize>) -> Self {
        let n_zones = zone_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut zones = vec![Vec::new(); n_zones];
        for (i, &z) in zone_of.iter().enumerate() {
            zones[z].push(NodeId(i as u32));
        }
        assert!(
            zones.iter().all(|z| !z.is_empty()),
            "zone indices must be dense (an intermediate zone is empty)"
        );
        Zoning { zone_of, zones }
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Size of the largest zone.
    pub fn max_zone_size(&self) -> usize {
        self.zones.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Pod-aware zoning for fat-trees: each pod is a zone, and the core layer
/// is distributed round-robin over the pod zones so every zone contains
/// usable transit capacity. Zones of a `k`-port fat-tree have
/// `k + k/4` nodes — e.g. 68 for 64-k, under the paper's 80-node budget.
pub fn zone_fat_tree(ft: &FatTree) -> Zoning {
    let n = ft.graph.node_count();
    let mut zone_of = vec![0usize; n];
    let mut core_cursor = 0usize;
    for (v, z) in zone_of.iter_mut().enumerate() {
        match ft.pods[v] {
            Some(p) => *z = p,
            None => {
                *z = core_cursor % ft.k;
                core_cursor += 1;
            }
        }
    }
    Zoning::from_membership(zone_of)
}

/// Topology-agnostic zoning: grow zones by BFS from unassigned seeds until
/// `max_zone_size` nodes, then start the next zone. Produces connected
/// zones on connected graphs.
///
/// # Panics
/// Panics if `max_zone_size == 0`.
pub fn zone_by_bfs(g: &Graph, max_zone_size: usize) -> Zoning {
    assert!(max_zone_size > 0, "zones must hold at least one node");
    let n = g.node_count();
    let mut zone_of = vec![usize::MAX; n];
    let mut next_zone = 0usize;
    for seed in 0..n {
        if zone_of[seed] != usize::MAX {
            continue;
        }
        // BFS from the seed over unassigned nodes only
        let mut queue = std::collections::VecDeque::from([NodeId(seed as u32)]);
        zone_of[seed] = next_zone;
        let mut size = 1usize;
        while let Some(v) = queue.pop_front() {
            if size >= max_zone_size {
                break;
            }
            for &(w, _) in g.neighbors(v) {
                if size >= max_zone_size {
                    break;
                }
                if zone_of[w.index()] == usize::MAX {
                    zone_of[w.index()] = next_zone;
                    size += 1;
                    queue.push_back(w);
                }
            }
        }
        next_zone += 1;
    }
    Zoning::from_membership(zone_of)
}

/// Result of a zoned placement round.
#[derive(Debug, Clone)]
pub struct ZonedPlacement {
    /// Accepted intra-zone assignments.
    pub assignments: Vec<Assignment>,
    /// Objective contribution of the accepted assignments.
    pub beta: f64,
    /// Excess that could not be placed inside its own zone, per busy node
    /// (before the optional cross-zone sweep).
    pub intra_residual: Vec<(NodeId, f64)>,
    /// Excess left even after the cross-zone sweep (empty when the sweep
    /// is disabled: then equals `intra_residual`).
    pub final_residual: Vec<(NodeId, f64)>,
    /// Wall time of the *slowest single zone solve* — the latency bound
    /// when zones run in parallel on the DUST-Manager (§V-B motivation).
    pub max_zone_time: Duration,
    /// Sum of all zone solve times (sequential cost).
    pub total_time: Duration,
    /// Zones that had busy nodes.
    pub active_zones: usize,
}

impl ZonedPlacement {
    /// Fraction of total excess that failed to place, percent — comparable
    /// with the heuristic's HFR.
    pub fn residual_rate_percent(&self, total_cs: f64) -> f64 {
        let unplaced: f64 = self.final_residual.iter().map(|(_, r)| r).sum();
        // explicit branch: f64::max(-0.0, 0.0) may keep the negative zero
        if total_cs <= 0.0 || unplaced <= 0.0 {
            0.0
        } else {
            100.0 * unplaced / total_cs
        }
    }
}

/// The zoned placement behind
/// [`PlacementRequest::run_zoned`](crate::PlacementRequest::run_zoned):
/// the exact placement independently inside every zone, then (if
/// `cross_zone_sweep`) one global solve restricted to residual busy nodes
/// and leftover candidate capacity.
///
/// Every zone solve sees the *full* graph for routing (relay through
/// foreign nodes is free per the paper's zero-relay-cost assumption) but
/// only its own zone's busy/candidate sets — the |V_b|·|V_o| cost term
/// that dominates (§IV-D) shrinks quadratically with zoning. All zone
/// solves (and the sweep) price rows through `engine`; masked per-zone
/// snapshots clone the graph, which shares the epoch stamp, so a Busy row
/// priced in one zone solve is a cache hit in the sweep.
pub(crate) fn solve(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    zoning: &Zoning,
    backend: SolverBackend,
    cross_zone_sweep: bool,
    engine: &CostEngine,
) -> Result<ZonedPlacement, DustError> {
    cfg.validate().map_err(DustError::BadConfig)?;
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut beta = 0.0;
    let mut intra_residual: Vec<(NodeId, f64)> = Vec::new();
    let mut max_zone_time = Duration::ZERO;
    let mut total_time = Duration::ZERO;
    let mut active_zones = 0usize;
    // capacity consumed per candidate (for the sweep)
    let mut consumed = vec![0.0f64; nmdb.graph.node_count()];

    for zone in &zoning.zones {
        // Mask the NMDB: nodes outside the zone become non-offloading so
        // they are neither busy nor candidates, but still relay routes.
        let in_zone: Vec<bool> = {
            let mut v = vec![false; nmdb.graph.node_count()];
            for n in zone {
                v[n.index()] = true;
            }
            v
        };
        let masked_states: Vec<NodeState> = nmdb
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| if in_zone[i] { *s } else { s.non_offloading() })
            .collect();
        let masked = Nmdb::new(nmdb.graph.clone(), masked_states);
        if masked.busy_nodes(cfg).is_empty() {
            continue;
        }
        active_zones += 1;

        let t = Instant::now();
        let p = PlacementRequest::new(&masked, cfg).backend(backend).engine(engine).run_lp()?;
        let dt = t.elapsed();
        max_zone_time = max_zone_time.max(dt);
        total_time += dt;

        match p.status {
            PlacementStatus::Optimal => {
                for a in &p.assignments {
                    consumed[a.to.index()] += a.amount;
                }
                beta += p.beta;
                assignments.extend(p.assignments);
            }
            PlacementStatus::Infeasible => {
                // Zone-level infeasibility: try a per-busy-node partial
                // placement is out of scope for the exact solver; record
                // the whole zone's excess as residual for the sweep.
                for b in masked.busy_nodes(cfg) {
                    intra_residual.push((b, masked.cs(b, cfg)));
                }
            }
            PlacementStatus::NoBusyNodes => unreachable!("checked above"),
        }
    }

    // Cross-zone sweep: one ILP over the residual busy nodes and the
    // network-wide leftover candidate capacity.
    let final_residual = if cross_zone_sweep && !intra_residual.is_empty() {
        let sweep_states: Vec<NodeState> = nmdb
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let id = NodeId(i as u32);
                if let Some((_, r)) = intra_residual.iter().find(|(b, _)| *b == id) {
                    // keep the node busy with exactly its residual excess
                    NodeState::new((cfg.c_max + r).min(100.0), s.data_mb)
                } else if s.offload_capable && s.utilization <= cfg.co_max {
                    // shrink candidate capacity by what zones consumed
                    NodeState::new((s.utilization + consumed[i]).min(100.0), s.data_mb)
                } else {
                    s.non_offloading()
                }
            })
            .collect();
        let sweep_db = Nmdb::new(nmdb.graph.clone(), sweep_states);
        let t = Instant::now();
        let p = PlacementRequest::new(&sweep_db, cfg).backend(backend).engine(engine).run_lp()?;
        let dt = t.elapsed();
        max_zone_time = max_zone_time.max(dt);
        total_time += dt;
        if p.status == PlacementStatus::Optimal {
            beta += p.beta;
            assignments.extend(p.assignments);
            Vec::new()
        } else {
            intra_residual.clone()
        }
    } else {
        intra_residual.clone()
    };

    Ok(ZonedPlacement {
        assignments,
        beta,
        intra_residual,
        final_residual,
        max_zone_time,
        total_time,
        active_zones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Placement;
    use crate::scenario::{random_nmdb, ScenarioParams};
    use dust_topology::{topologies, Link, PathEngine};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp)
    }

    fn exact(nmdb: &Nmdb, cfg: &DustConfig) -> Placement {
        PlacementRequest::new(nmdb, cfg).run_lp().unwrap()
    }

    fn per_zone(nmdb: &Nmdb, cfg: &DustConfig, zoning: &Zoning, sweep: bool) -> ZonedPlacement {
        PlacementRequest::new(nmdb, cfg).zoned(zoning, sweep).run_zoned().unwrap()
    }

    #[test]
    fn fat_tree_zoning_respects_budget() {
        for k in [4usize, 8, 16] {
            let ft = FatTree::with_default_links(k);
            let z = zone_fat_tree(&ft);
            assert_eq!(z.zone_count(), k, "one zone per pod");
            assert_eq!(z.max_zone_size(), k + k / 4, "pod + its core share");
            assert!(z.max_zone_size() <= 80 || k > 64, "paper's 80-node budget");
            // every node assigned exactly once
            let total: usize = z.zones.iter().map(Vec::len).sum();
            assert_eq!(total, ft.node_count());
        }
    }

    #[test]
    fn bfs_zoning_covers_everything_within_budget() {
        let g = topologies::ring(50, Link::default());
        let z = zone_by_bfs(&g, 12);
        assert!(z.max_zone_size() <= 12);
        let total: usize = z.zones.iter().map(Vec::len).sum();
        assert_eq!(total, 50);
        // membership consistent with lists
        for (zi, zone) in z.zones.iter().enumerate() {
            for n in zone {
                assert_eq!(z.zone_of[n.index()], zi);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_zone_size_rejected() {
        let g = topologies::ring(4, Link::default());
        zone_by_bfs(&g, 0);
    }

    #[test]
    fn zoned_equals_global_when_one_zone() {
        let ft = FatTree::with_default_links(4);
        let c = cfg();
        let nmdb = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), 5);
        let zoning = Zoning::from_membership(vec![0; ft.node_count()]);
        let global = exact(&nmdb, &c);
        let zoned = per_zone(&nmdb, &c, &zoning, false);
        if global.status == PlacementStatus::Optimal {
            assert!((zoned.beta - global.beta).abs() < 1e-6 * (1.0 + global.beta.abs()));
            assert!(zoned.final_residual.is_empty());
        }
    }

    #[test]
    fn zoned_beta_never_beats_global() {
        // restricting candidates to a zone can only worsen (or match) the
        // optimum whenever both fully place
        let ft = FatTree::with_default_links(4);
        let c = cfg();
        let zoning = zone_fat_tree(&ft);
        let mut compared = 0;
        for seed in 0..30u64 {
            let nmdb = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
            let global = exact(&nmdb, &c);
            let zoned = per_zone(&nmdb, &c, &zoning, false);
            if global.status == PlacementStatus::Optimal && zoned.final_residual.is_empty() {
                assert!(
                    zoned.beta >= global.beta - 1e-6 * (1.0 + global.beta.abs()),
                    "seed {seed}: zoned {} < global {}",
                    zoned.beta,
                    global.beta
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "need at least one comparable scenario");
    }

    #[test]
    fn cross_zone_sweep_reduces_residual() {
        // construct a state where one pod is overloaded beyond its own
        // spare capacity, forcing cross-zone placement
        let ft = FatTree::with_default_links(4);
        let c = cfg();
        let zoning = zone_fat_tree(&ft);
        let pod0: Vec<NodeId> = zoning.zones[0].clone();
        let states: Vec<NodeState> = ft
            .graph
            .nodes()
            .map(|n| {
                if pod0.contains(&n) {
                    NodeState::new(95.0, 50.0) // every pod-0 node busy
                } else {
                    NodeState::new(10.0, 10.0) // everyone else idle
                }
            })
            .collect();
        let nmdb = Nmdb::new(ft.graph.clone(), states);
        let without = per_zone(&nmdb, &c, &zoning, false);
        assert!(!without.final_residual.is_empty(), "pod 0 must be unable to place internally");
        let with = per_zone(&nmdb, &c, &zoning, true);
        assert!(with.final_residual.is_empty(), "sweep must place the leftovers");
        let total_cs = nmdb.total_cs(&c);
        assert_eq!(with.residual_rate_percent(total_cs), 0.0);
        assert!(without.residual_rate_percent(total_cs) > 0.0);
    }

    #[test]
    fn zoned_assignments_respect_capacity_globally() {
        let ft = FatTree::with_default_links(8);
        let c = cfg();
        let zoning = zone_fat_tree(&ft);
        let nmdb = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), 11);
        let z = per_zone(&nmdb, &c, &zoning, true);
        for n in nmdb.graph.nodes() {
            let got: f64 = z.assignments.iter().filter(|a| a.to == n).map(|a| a.amount).sum();
            assert!(
                got <= nmdb.cd(n, &c) + 1e-6,
                "{n:?} absorbed {got} beyond Cd {}",
                nmdb.cd(n, &c)
            );
        }
        // every busy node's placed + residual == its Cs
        for b in nmdb.busy_nodes(&c) {
            let placed: f64 = z.assignments.iter().filter(|a| a.from == b).map(|a| a.amount).sum();
            let resid: f64 = z.final_residual.iter().filter(|(n, _)| *n == b).map(|(_, r)| r).sum();
            assert!(
                (placed + resid - nmdb.cs(b, &c)).abs() < 1e-6,
                "{b:?}: placed {placed} + residual {resid} != Cs {}",
                nmdb.cs(b, &c)
            );
        }
    }

    #[test]
    fn max_zone_time_bounds_parallel_latency() {
        let ft = FatTree::with_default_links(8);
        let c = cfg();
        let zoning = zone_fat_tree(&ft);
        let nmdb = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), 3);
        let z = per_zone(&nmdb, &c, &zoning, false);
        assert!(z.max_zone_time <= z.total_time);
        if z.active_zones > 1 {
            assert!(z.max_zone_time < z.total_time);
        }
    }
}
