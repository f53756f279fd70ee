//! End-to-end placement benchmark: the full optimization round
//! (role classification → `T_rmin` matrix → LP → route extraction) on
//! random fat-tree states, per LP backend and per routing engine.

use dust::prelude::*;
use dust_bench::harness::Runner;
use dust_bench::{experiment_config, experiment_params};

fn main() {
    let group = Runner::group("placement-round");
    for &k in &[4usize, 8] {
        let ft = FatTree::with_default_links(k);
        let cfg_dp =
            experiment_config().with_engine(PathEngine::HopBoundedDp).with_max_hop(Some(6));
        let nmdb = random_nmdb(&ft.graph, &cfg_dp, &experiment_params(), 7);
        group.bench(&format!("transportation-dp/{k}"), || {
            PlacementRequest::new(&nmdb, &cfg_dp).backend(SolverBackend::Transportation).run_lp()
        });
        group.bench(&format!("simplex-dp/{k}"), || {
            PlacementRequest::new(&nmdb, &cfg_dp).backend(SolverBackend::Simplex).run_lp()
        });
        let cfg_enum = cfg_dp.with_engine(PathEngine::Enumerate);
        group.bench(&format!("transportation-enum/{k}"), || {
            PlacementRequest::new(&nmdb, &cfg_enum).backend(SolverBackend::Transportation).run_lp()
        });
    }
}
