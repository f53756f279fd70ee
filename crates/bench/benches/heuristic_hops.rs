//! Ablation 3 (DESIGN.md): Algorithm 1's one-hop restriction vs the
//! generalized h-hop heuristic — runtime cost of extra reach (its HFR
//! benefit is reported by `experiments fig11`).

use dust::prelude::*;
use dust_bench::harness::Runner;
use dust_bench::{experiment_config, experiment_params};

fn main() {
    let group = Runner::group("heuristic-reach");
    for &k in &[8usize, 16] {
        let ft = FatTree::with_default_links(k);
        let cfg = experiment_config().with_engine(PathEngine::HopBoundedDp);
        let nmdb = random_nmdb(&ft.graph, &cfg, &experiment_params(), 3);
        for hops in [1usize, 2, 4] {
            group.bench(&format!("hops-{hops}/{k}"), || {
                PlacementRequest::new(&nmdb, &cfg).heuristic_hops(hops).run_heuristic()
            });
        }
    }
}
