//! Telemetry flow transport model.
//!
//! Once a hosting arrangement is active, the Busy node streams its
//! monitoring data `D_i` to the Offload-destination every update interval
//! over the controllable route the optimizer picked. This module models
//! that transport: offloaded telemetry rides each link's *leftover*
//! capacity at the lowest QoS class (§III-C — it "is assigned the lowest
//! priority value" and "can be safely discarded in the event of network
//! congestion"), shared max-min-style among flows crossing the link.
//!
//! Note the deliberate asymmetry with the planner: the optimizer prices
//! routes with the paper's `Tr = D / Lu` (Eq. 1, utilized bandwidth),
//! while transport here is constrained by *available* bandwidth and QoS.
//! Comparing predicted vs delivered times quantifies that modeling gap —
//! see `planner_vs_transport_times` below.

use dust_proto::qos::{admit, ClassifiedLoad, Priority};
use dust_topology::{EdgeId, Graph, NodeId, Path};

/// One active telemetry stream from a Busy node to its host.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFlow {
    /// Monitored (Busy) node producing the data.
    pub owner: NodeId,
    /// Offload-destination consuming it.
    pub host: NodeId,
    /// The controllable route the placement chose.
    pub route: Path,
    /// Monitoring data volume per update interval, Mb.
    pub data_mb: f64,
}

/// Delivered performance of one flow over one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// Rate the flow tried to send, Mbps.
    pub offered_mbps: f64,
    /// Rate the network admitted end-to-end, Mbps.
    pub admitted_mbps: f64,
    /// Time to deliver the interval's data at the admitted rate, seconds
    /// (`f64::INFINITY` when fully starved).
    pub transfer_time_s: f64,
    /// Fraction of the offered telemetry discarded under congestion.
    pub dropped_fraction: f64,
}

/// Evaluate all flows against the current link state.
///
/// Per link, the data-plane load (`capacity × utilization`) is admitted at
/// [`Priority::DataPlane`] and the telemetry flows crossing the link
/// compete at [`Priority::OffloadedTelemetry`]; each flow's end-to-end
/// admitted rate is the minimum of its per-link shares (its bottleneck).
///
/// `interval_ms` is the update interval: a flow offers
/// `data_mb / interval_s` Mbps.
///
/// # Panics
/// Panics if `interval_ms == 0`.
pub fn evaluate_flows(g: &Graph, flows: &[TelemetryFlow], interval_ms: u64) -> Vec<FlowOutcome> {
    assert!(interval_ms > 0, "update interval must be positive");
    let interval_s = interval_ms as f64 / 1e3;

    // offered rate per flow
    let offered: Vec<f64> = flows.iter().map(|f| f.data_mb / interval_s).collect();

    // per-link: which flows cross it
    let mut crossing: std::collections::HashMap<EdgeId, Vec<usize>> = Default::default();
    for (i, f) in flows.iter().enumerate() {
        debug_assert_eq!(f.route.nodes.first(), Some(&f.owner), "route starts at the owner");
        debug_assert_eq!(f.route.nodes.last(), Some(&f.host), "route ends at the host");
        for &e in &f.route.edges {
            crossing.entry(e).or_default().push(i);
        }
    }

    // per-flow admitted rate = min over links of its QoS share
    let mut admitted: Vec<f64> = offered.clone();
    for (&e, flow_ids) in &crossing {
        let link = &g.edge(e).link;
        let mut loads = vec![ClassifiedLoad {
            priority: Priority::DataPlane,
            mbps: link.lu(), // data plane in transit
        }];
        for &i in flow_ids {
            loads.push(ClassifiedLoad { priority: Priority::OffloadedTelemetry, mbps: offered[i] });
        }
        let granted = admit(&loads, link.capacity_mbps);
        for (slot, &i) in flow_ids.iter().enumerate() {
            admitted[i] = admitted[i].min(granted[slot + 1]);
        }
    }

    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let adm = admitted[i];
            let transfer_time_s = if adm > 0.0 { f.data_mb / adm } else { f64::INFINITY };
            let dropped =
                if offered[i] > 0.0 { (1.0 - adm / offered[i]).clamp(0.0, 1.0) } else { 0.0 };
            FlowOutcome {
                offered_mbps: offered[i],
                admitted_mbps: adm,
                transfer_time_s,
                dropped_fraction: dropped,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_topology::{min_inv_lu_dp_path, topologies, Link};

    fn flow_over(g: &Graph, a: NodeId, b: NodeId, data_mb: f64) -> TelemetryFlow {
        let (_, route) = min_inv_lu_dp_path(g, a, b, None).expect("route exists");
        TelemetryFlow { owner: a, host: b, route, data_mb }
    }

    #[test]
    fn uncongested_flow_fully_admitted() {
        // 10 Gbps at 50 % leaves 5 Gbps headroom; a 100 Mb/s flow sails
        let g = topologies::line(3, Link::new(10_000.0, 0.5));
        let f = flow_over(&g, NodeId(0), NodeId(2), 100.0);
        let out = evaluate_flows(&g, &[f], 1_000);
        assert_eq!(out[0].offered_mbps, 100.0);
        assert_eq!(out[0].admitted_mbps, 100.0);
        assert_eq!(out[0].dropped_fraction, 0.0);
        assert!((out[0].transfer_time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn congested_link_squeezes_telemetry() {
        // 1 Gbps link 95 % utilized: only 50 Mbps left for telemetry
        let g = topologies::line(2, Link::new(1_000.0, 0.95));
        let f = flow_over(&g, NodeId(0), NodeId(1), 100.0); // offers 100 Mbps
        let out = evaluate_flows(&g, &[f], 1_000);
        assert!((out[0].admitted_mbps - 50.0).abs() < 1e-9);
        assert!((out[0].dropped_fraction - 0.5).abs() < 1e-9);
        assert!((out[0].transfer_time_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fully_saturated_link_starves_flow() {
        let g = topologies::line(2, Link::new(1_000.0, 1.0));
        let f = flow_over(&g, NodeId(0), NodeId(1), 10.0);
        let out = evaluate_flows(&g, &[f], 1_000);
        assert_eq!(out[0].admitted_mbps, 0.0);
        assert_eq!(out[0].dropped_fraction, 1.0);
        assert!(out[0].transfer_time_s.is_infinite());
    }

    #[test]
    fn competing_flows_share_proportionally() {
        // two flows over the same 60 %-utilized 1 Gbps link: 400 Mbps left,
        // offers 300 + 100 → shares 300·(400/400)=… all fits exactly
        let g = topologies::line(2, Link::new(1_000.0, 0.6));
        let f1 = flow_over(&g, NodeId(0), NodeId(1), 300.0);
        let f2 = flow_over(&g, NodeId(0), NodeId(1), 100.0);
        let out = evaluate_flows(&g, &[f1, f2], 1_000);
        assert!((out[0].admitted_mbps - 300.0).abs() < 1e-9);
        assert!((out[1].admitted_mbps - 100.0).abs() < 1e-9);
        // now shrink headroom to 200 Mbps: proportional split 150/50
        let g2 = topologies::line(2, Link::new(1_000.0, 0.8));
        let f1 = flow_over(&g2, NodeId(0), NodeId(1), 300.0);
        let f2 = flow_over(&g2, NodeId(0), NodeId(1), 100.0);
        let out = evaluate_flows(&g2, &[f1, f2], 1_000);
        assert!((out[0].admitted_mbps - 150.0).abs() < 1e-9);
        assert!((out[1].admitted_mbps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_is_end_to_end_minimum() {
        // route with a fat first hop and a thin second hop
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.1));
        g.add_edge(NodeId(1), NodeId(2), Link::new(100.0, 0.5)); // 50 Mbps left
        let f = flow_over(&g, NodeId(0), NodeId(2), 100.0);
        let out = evaluate_flows(&g, &[f], 1_000);
        assert!((out[0].admitted_mbps - 50.0).abs() < 1e-9);
    }

    use dust_topology::Graph;

    #[test]
    fn planner_vs_transport_times() {
        // The planner's Tr (Eq. 1, D/Lu) and the transport's delivery time
        // (D/available) coincide exactly at 50 % utilization and diverge
        // elsewhere — quantifying the paper's cost-proxy choice.
        let make = |util: f64| topologies::line(2, Link::new(1_000.0, util));
        for (util, expect_ratio) in [(0.5, 1.0), (0.25, 3.0), (0.75, 1.0 / 3.0)] {
            let g = make(util);
            let f = flow_over(&g, NodeId(0), NodeId(1), 10.0);
            let planner_time = f.route.response_time(&g, 10.0); // D / Lu
                                                                // 1 ms interval = burst mode: offered >> available, so the
                                                                // admitted rate is exactly the link's headroom
            let out = evaluate_flows(&g, &[f], 1);
            let ratio = planner_time / out[0].transfer_time_s;
            assert!(
                (ratio - expect_ratio).abs() < 1e-9,
                "util {util}: ratio {ratio} vs {expect_ratio}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let g = topologies::line(2, Link::default());
        evaluate_flows(&g, &[], 0);
    }

    #[test]
    fn empty_flow_set_is_empty() {
        let g = topologies::line(2, Link::default());
        assert!(evaluate_flows(&g, &[], 1000).is_empty());
    }
}
