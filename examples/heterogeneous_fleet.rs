//! Heterogeneous fleet: DPUs, servers, and switches with different
//! platform capacities (the κ coefficient of §IV-A's industry note), plus
//! the *integral* agent-level placement — whole monitor agents, not
//! fractional capacity — solved by branch-and-bound.
//!
//! ```sh
//! cargo run -p dust --example heterogeneous_fleet
//! ```

use dust::prelude::*;
use dust::topology::topologies;

fn main() {
    // Leaf-spine fabric: 2 spines, 3 leaves, 2 servers per leaf.
    let graph = topologies::leaf_spine(2, 3, 2, Link::new(25_000.0, 0.3));
    println!("leaf-spine fabric: {} nodes / {} links", graph.node_count(), graph.edge_count());

    // Node mix: the first leaf (node 2) is overloaded. Servers are beefier
    // platforms: one offloaded percent only costs them κ = 0.4; one spine
    // runs legacy firmware and refuses offloading entirely.
    let states: Vec<NodeState> = graph
        .nodes()
        .map(|n| match n.0 {
            0 => NodeState::new(30.0, 5.0),                  // spine 0: candidate
            1 => NodeState::new(30.0, 5.0).non_offloading(), // spine 1: legacy
            2 => NodeState::new(90.0, 220.0),                // leaf 0: Busy, Cs = 10
            3 | 4 => NodeState::new(60.0, 5.0),              // other leaves: neutral
            _ => NodeState::new(20.0, 2.0).with_capacity_factor(0.4), // servers
        })
        .collect();
    let nmdb = Nmdb::new(graph, states);
    let cfg = DustConfig::paper_defaults(); // C_max 80, CO_max 50

    println!("\n-- roles --");
    for n in nmdb.graph.nodes() {
        println!(
            "  node {}  util {:5.1}%  κ {:.1}  {:?}  (Cs {:.1} / Cd {:.1})",
            n.0,
            nmdb.state(n).utilization,
            nmdb.state(n).capacity_factor,
            nmdb.role(n, &cfg),
            nmdb.cs(n, &cfg),
            nmdb.cd(n, &cfg),
        );
    }

    // Continuous placement: κ = 0.4 servers absorb 2.5x their headroom in
    // source units, so they dominate the solution.
    let p = PlacementRequest::new(&nmdb, &cfg).run_lp().expect("valid config");
    println!("\n-- continuous placement ({:?}) --", p.status);
    for a in &p.assignments {
        println!(
            "  move {:5.2}% from {} to {} (T_rmin {:.5}s)",
            a.amount, a.from.0, a.to.0, a.t_rmin
        );
    }
    println!("  beta = {:.6}", p.beta);

    // Integral placement: the Busy leaf's excess is made of indivisible
    // monitor agents with distinct weights.
    let agents = MonitorAgent::standard_deployment();
    let units: Vec<WorkUnit> = agents
        .iter()
        .map(|a| WorkUnit {
            owner: NodeId(2),
            // device-level share on the 8-core leaf at 20 % traffic
            weight: a.kind.cpu_percent(0.2) / 8.0,
        })
        .collect();
    let total: f64 = units.iter().map(|u| u.weight).sum();
    println!(
        "\n-- integral placement: {} agents, {:.1}% total device share, Cs = {:.1}% --",
        units.len(),
        total,
        nmdb.cs(NodeId(2), &cfg)
    );
    let r =
        PlacementRequest::new(&nmdb, &cfg).integral(&units).run_integral().expect("valid units");
    if r.feasible {
        let mut moved = 0.0;
        for m in &r.moves {
            let a = &agents[m.unit];
            println!(
                "  agent {:24} ({:4.2}%) → node {}",
                a.kind.name(),
                units[m.unit].weight,
                m.to.0
            );
            moved += units[m.unit].weight;
        }
        println!(
            "  moved {:.2}% in {} units (continuous optimum would move exactly {:.2}%)",
            moved,
            r.moves.len(),
            nmdb.cs(NodeId(2), &cfg)
        );
        println!("  integral beta = {:.6} (continuous beta = {:.6})", r.beta, p.beta);
    } else {
        println!("  no integral placement exists");
    }
}
