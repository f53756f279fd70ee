//! # DUST — Resource-Aware Telemetry Offloading
//!
//! A from-scratch Rust implementation of the DUST system (Sharifian et
//! al., IPDPS-W 2024): dynamic, distributed, hardware-agnostic offloading
//! of in-device network-telemetry workloads from overloaded nodes to
//! under-utilized ones, over controllable minimum-response-time routes.
//!
//! This facade re-exports the whole workspace under stable module names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`obs`] | `dust-obs` | metrics registry, deterministic event tracing, trace digests |
//! | [`topology`] | `dust-topology` | graphs, fat-trees, bounded path enumeration, `T_rmin` costs |
//! | [`lp`] | `dust-lp` | simplex, transportation solver, branch-and-bound |
//! | [`core`] | `dust-core` | thresholds, roles, NMDB, the placement ILP, Algorithm 1, HFR, `Δ_io` |
//! | [`proto`] | `dust-proto` | Manager/Client state machines and every §III message |
//! | [`telemetry`] | `dust-telemetry` | monitor agents, TSDB, Gorilla compression, federation |
//! | [`sim`] | `dust-sim` | the discrete-event testbed with Fig. 1 / Fig. 6 scenarios |
//!
//! # Quickstart
//!
//! ```
//! use dust::prelude::*;
//!
//! // a 4-port fat-tree: the paper's small-scale network (20 switches)
//! let ft = FatTree::with_default_links(4);
//! let cfg = DustConfig::paper_defaults();
//! let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), 42);
//!
//! // exact placement (the paper's ILP) through the unified builder,
//! // priced by the parallel memoizing cost engine …
//! let report = PlacementRequest::new(&nmdb, &cfg)
//!     .backend(SolverBackend::Transportation)
//!     .threads(4)
//!     .solve();
//!
//! // … and Algorithm 1, with its failure rate
//! let h = PlacementRequest::new(&nmdb, &cfg).heuristic().run_heuristic().unwrap();
//! assert!(h.hfr_percent() >= 0.0);
//! # let _ = report;
//! ```

#![warn(missing_docs)]

pub use dust_core as core;
pub use dust_lp as lp;
pub use dust_obs as obs;
pub use dust_proto as proto;
pub use dust_sim as sim;
pub use dust_telemetry as telemetry;
pub use dust_topology as topology;

/// One-stop imports for applications.
pub mod prelude {
    pub use dust_core::{
        classify, classify_iteration, estimate_io_rate, io_rate_sweep, random_nmdb,
        scenario_stream, zone_by_bfs, zone_fat_tree, Assignment, DustConfig, DustError,
        HeuristicOutcome, IntegralPlacement, IoRatePoint, Nmdb, NodeState, Placement,
        PlacementReport, PlacementRequest, PlacementStatus, ReportOutcome, Role, ScenarioParams,
        SolvePath, SolverBackend, SuccessClass, SuccessTally, WorkUnit, ZonedPlacement, Zoning,
    };
    pub use dust_obs::{
        build_spans, FlightRecorder, FlowId, Histogram, MetricsRegistry, ObsHandle, SloBreach,
        SloEngine, SloKind, SloSpec, SpanForest, SpanOutcome, Trace, TraceAssert, TraceEvent,
    };
    pub use dust_proto::{Client, ClientMsg, Envelope, Manager, ManagerMsg, Priority, RequestId};
    pub use dust_sim::{
        chaos_ladder, chaos_run, fig1_curve, fig6_contrast, registry, Scenario, ScenarioKnobs,
        ScenarioRun, StormConfig,
    };
    pub use dust_sim::{
        chaos_with_faults, chaos_with_faults_observed, chaos_with_slo, evaluate_flows, fleet,
        scale_fleet_sim_on, testbed_dust_config, testbed_nodes, testbed_observed, testbed_topology,
        ChaosResult, EngineKind, FaultConfig, FaultProfile, FlowOutcome, NodeSpec, SimBuilder,
        SimConfig, SimNode, SimReport, Simulation, TelemetryFlow, TrafficModel, Transport,
    };
    pub use dust_telemetry::{
        aggregate_load, compress, decompress, AgentKind, Federation, MonitorAgent, Series, Tsdb,
    };
    pub use dust_topology::{
        paper_sizes, CostEngine, CostMatrix, FatTree, Graph, Link, NodeId, Path, PathEngine,
        SplitMix64, Tier,
    };
}
