//! Integral placement: offloading *indivisible* monitoring agents.
//!
//! The paper's published model (Eq. 3) relaxes `x_ij` to continuous
//! capacity-percent. In a real deployment the unit of offloading is a
//! whole monitor agent (§V-A moves entire agents); this module solves that
//! integer version with the branch-and-bound layer of `dust-lp`:
//!
//! ```text
//! min  Σ_u Σ_j w_u · T_rmin(owner(u), j) · y_uj
//! s.t. Σ_{u: owner(u)=i, j} w_u · y_uj ≥ Cs_i       (de-busy every i)
//!      Σ_u w_u · y_uj ≤ Cd_j                        (capacity, Eq. 3a)
//!      Σ_j y_uj ≤ 1,  y_uj ∈ {0,1}                  (a unit moves once)
//! ```
//!
//! The continuous optimum of Eq. 3 is a lower bound on this objective;
//! tests pin that dominance.

use crate::config::DustConfig;
use crate::error::DustError;
use crate::state::Nmdb;
use dust_lp::{solve_mip_with, Cmp, MipOptions, Problem, Status, Var};
use dust_topology::{CostEngine, NodeId};

/// One indivisible unit of monitoring workload (e.g. a monitor agent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkUnit {
    /// The Busy node this unit currently runs on.
    pub owner: NodeId,
    /// Device-level CPU share of the unit, capacity-percent.
    pub weight: f64,
}

/// One accepted integral move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitAssignment {
    /// Index into the input `units` slice.
    pub unit: usize,
    /// Destination node.
    pub to: NodeId,
}

/// Result of an integral placement.
#[derive(Debug, Clone)]
pub struct IntegralPlacement {
    /// Whether a feasible integral placement exists.
    pub feasible: bool,
    /// Unit moves (empty when infeasible).
    pub moves: Vec<UnitAssignment>,
    /// Objective `Σ w_u · T_rmin · y` (NaN when infeasible).
    pub beta: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

/// The agent-level integral placement behind
/// [`PlacementRequest::run_integral`](crate::PlacementRequest::run_integral).
///
/// `units` lists the movable workload of *every* busy node; units owned by
/// non-busy nodes are ignored. Infeasible when no subset of unit moves can
/// bring every Busy node to or below `C_max` within candidate capacities.
/// The `T_rmin` matrix is priced through `engine`; a unit weight that is
/// not finite and non-negative is a [`DustError::BadConfig`].
pub(crate) fn solve(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    units: &[WorkUnit],
    engine: &CostEngine,
) -> Result<IntegralPlacement, DustError> {
    cfg.validate().map_err(DustError::BadConfig)?;
    let busy = nmdb.busy_nodes(cfg);
    let candidates = nmdb.candidate_nodes(cfg);
    if busy.is_empty() {
        return Ok(IntegralPlacement { feasible: true, moves: Vec::new(), beta: 0.0, nodes: 0 });
    }
    for u in units {
        if !(u.weight.is_finite() && u.weight >= 0.0) {
            return Err(DustError::BadConfig(format!(
                "unit weight must be finite and >= 0, got {}",
                u.weight
            )));
        }
    }
    let data: Vec<f64> = busy.iter().map(|&b| nmdb.state(b).data_mb).collect();
    let costs =
        engine.build_matrix(&nmdb.graph, &busy, &candidates, &data, cfg.max_hop, cfg.path_engine);
    let busy_row = |n: NodeId| busy.iter().position(|&b| b == n);

    // units that belong to busy nodes, in input order
    let movable: Vec<(usize, &WorkUnit, usize)> = units
        .iter()
        .enumerate()
        .filter_map(|(i, u)| busy_row(u.owner).map(|row| (i, u, row)))
        .collect();

    let mut p = Problem::new();
    // y[(movable idx, candidate idx)]
    let mut y: Vec<Vec<Option<Var>>> = Vec::with_capacity(movable.len());
    for &(_, u, row) in &movable {
        let mut per_cand = Vec::with_capacity(candidates.len());
        for c in 0..candidates.len() {
            let t = costs.at(row, c);
            if t.is_finite() {
                per_cand.push(Some(p.add_bool(u.weight * t)));
            } else {
                per_cand.push(None);
            }
        }
        y.push(per_cand);
    }
    // each unit moves at most once
    for row in &y {
        let terms: Vec<_> = row.iter().flatten().map(|&v| (v, 1.0)).collect();
        if !terms.is_empty() {
            p.add_constraint(&terms, Cmp::Le, 1.0);
        }
    }
    // de-busy every busy node: Σ moved weight ≥ Cs_i
    for &b in &busy {
        let cs = nmdb.cs(b, cfg);
        let terms: Vec<_> = movable
            .iter()
            .zip(&y)
            .filter(|((_, u, _), _)| u.owner == b)
            .flat_map(|((_, u, _), row)| row.iter().flatten().map(move |&v| (v, u.weight)))
            .collect();
        if terms.is_empty() && cs > 1e-9 {
            return Ok(IntegralPlacement {
                feasible: false,
                moves: Vec::new(),
                beta: f64::NAN,
                nodes: 0,
            });
        }
        p.add_constraint(&terms, Cmp::Ge, cs);
    }
    // candidate capacity (Eq. 3a)
    for (c, &o) in candidates.iter().enumerate() {
        let terms: Vec<_> = movable
            .iter()
            .zip(&y)
            .filter_map(|((_, u, _), row)| row[c].map(|v| (v, u.weight)))
            .collect();
        if !terms.is_empty() {
            p.add_constraint(&terms, Cmp::Le, nmdb.cd(o, cfg));
        }
    }

    let sol = solve_mip_with(&p, MipOptions::default(), &dust_obs::ObsHandle::disabled());
    if sol.status != Status::Optimal {
        return Ok(IntegralPlacement {
            feasible: false,
            moves: Vec::new(),
            beta: f64::NAN,
            nodes: sol.nodes,
        });
    }
    let mut moves = Vec::new();
    for (m, ((i, _, _), row)) in movable.iter().zip(&y).enumerate() {
        let _ = m;
        for (c, v) in row.iter().enumerate() {
            if let Some(v) = v {
                if sol.x[v.index()] > 0.5 {
                    moves.push(UnitAssignment { unit: *i, to: candidates[c] });
                }
            }
        }
    }
    Ok(IntegralPlacement { feasible: true, moves, beta: sol.objective, nodes: sol.nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{PlacementStatus, SolverBackend};
    use crate::state::NodeState;
    use crate::PlacementRequest;
    use dust_topology::{topologies, Link, PathEngine};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp)
    }

    fn integral(db: &Nmdb, cfg: &DustConfig, units: &[WorkUnit]) -> IntegralPlacement {
        PlacementRequest::new(db, cfg).integral(units).run_integral().unwrap()
    }

    /// 0 (busy, Cs = 10) — 1 (candidate, Cd = 30).
    fn simple() -> Nmdb {
        let g = topologies::line(2, Link::default());
        Nmdb::new(g, vec![NodeState::new(90.0, 100.0), NodeState::new(20.0, 10.0)])
    }

    fn units_of(owner: u32, weights: &[f64]) -> Vec<WorkUnit> {
        weights.iter().map(|&w| WorkUnit { owner: NodeId(owner), weight: w }).collect()
    }

    #[test]
    fn moves_exactly_enough_units() {
        let db = simple();
        // units 6+6+3: must move at least 10 → optimal subset {6, 6} (12)
        // or {6, 3} = 9 < 10 infeasible subset... {6,6}=12 or {6,6,3}=15
        let units = units_of(0, &[6.0, 6.0, 3.0]);
        let r = integral(&db, &cfg(), &units);
        assert!(r.feasible);
        let moved: f64 = r.moves.iter().map(|m| units[m.unit].weight).sum();
        assert!(moved >= 10.0, "moved {moved}");
        assert!((moved - 12.0).abs() < 1e-9, "cheapest covering subset is 6+6");
    }

    #[test]
    fn integral_beta_at_least_continuous() {
        let db = simple();
        let c = cfg();
        let cont =
            PlacementRequest::new(&db, &c).backend(SolverBackend::Transportation).run_lp().unwrap();
        assert_eq!(cont.status, PlacementStatus::Optimal);
        let units = units_of(0, &[4.0, 4.0, 4.0]);
        let r = integral(&db, &c, &units);
        assert!(r.feasible);
        // continuous moves exactly 10; integral must move 12 (3 × 4) at the
        // same per-unit cost → strictly larger beta
        assert!(r.beta >= cont.beta - 1e-9, "integral {} < continuous {}", r.beta, cont.beta);
        assert!(r.beta > cont.beta, "rounding up must cost more here");
    }

    #[test]
    fn infeasible_when_units_cannot_cover_excess() {
        let db = simple();
        // only 4 points of movable weight but Cs = 10
        let r = integral(&db, &cfg(), &units_of(0, &[2.0, 2.0]));
        assert!(!r.feasible);
    }

    #[test]
    fn infeasible_when_capacity_too_small() {
        let g = topologies::line(2, Link::default());
        // Cs = 19, Cd = 1: continuous also infeasible
        let db = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        let r = integral(&db, &cfg(), &units_of(0, &[19.0]));
        assert!(!r.feasible);
    }

    #[test]
    fn no_busy_nodes_is_trivially_feasible() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(10.0, 1.0), NodeState::new(10.0, 1.0)]);
        let r = integral(&db, &cfg(), &units_of(0, &[5.0]));
        assert!(r.feasible);
        assert!(r.moves.is_empty());
    }

    #[test]
    fn splits_units_across_candidates() {
        // star: busy hub, two candidates with 6 spare each; units 5+5 must split
        let g = topologies::star(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 50.0), NodeState::new(44.0, 1.0), NodeState::new(44.0, 1.0)],
        );
        let r = integral(&db, &cfg(), &units_of(0, &[5.0, 5.0]));
        assert!(r.feasible);
        assert_eq!(r.moves.len(), 2);
        let dests: Vec<NodeId> = r.moves.iter().map(|m| m.to).collect();
        assert_ne!(dests[0], dests[1], "6-point candidates cannot both fit 10");
    }

    #[test]
    fn units_of_foreign_owners_ignored() {
        let db = simple();
        let mut units = units_of(0, &[10.0]);
        units.push(WorkUnit { owner: NodeId(1), weight: 99.0 }); // candidate's own unit
        let r = integral(&db, &cfg(), &units);
        assert!(r.feasible);
        assert!(r.moves.iter().all(|m| m.unit == 0), "only the busy node's unit moves");
    }

    #[test]
    fn two_busy_nodes_share_capacity_integrally() {
        // line 0-1-2: ends busy (Cs 5 each), middle candidate Cd 10 → exactly fits
        let g = topologies::line(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(85.0, 10.0), NodeState::new(40.0, 1.0), NodeState::new(85.0, 10.0)],
        );
        let mut units = units_of(0, &[5.0]);
        units.extend(units_of(2, &[5.0]));
        let r = integral(&db, &cfg(), &units);
        assert!(r.feasible);
        assert_eq!(r.moves.len(), 2);
        assert!(r.moves.iter().all(|m| m.to == NodeId(1)));
    }
}
