//! The simulation loop.
//!
//! Pops the typed `SimEvent` sequence in `(time, seq)` order and
//! dispatches each event to its [`Simulation`] handler. What it keeps
//! out of the handlers is *how* per-event work is computed, never *what*
//! happens:
//!
//! * **Lazy link application.** [`TrafficModel::apply_to_links`] is a
//!   pure function of `(seed, time)`, and the simulation's own graph copy
//!   is only ever read by flow evaluation at sample points. So a STAT
//!   emission just records its time, and the link state is applied on
//!   demand — an O(E) pass per *flow-bearing sample* instead of per
//!   emission, and never when no telemetry flow is routed.
//! * **Epoch-keyed node caches.** Per-agent CPU/memory walks are cached
//!   per node, keyed on [`SimNode::agents_epoch`] and the traffic
//!   fraction's bit pattern; only the burst-window arithmetic (a pure
//!   function of the cached sum and `now`) runs per event. The shared
//!   `*_from_raw` helpers on [`SimNode`] keep the arithmetic
//!   bit-identical with the uncached path. Each cache miss opens a
//!   `sim.node_recompute` profiler scope, so the memoization's work is
//!   an exact count: one recompute per node per agent epoch and traffic
//!   level.
//! * **Arena-style buffers.** STAT emission reuses one message buffer
//!   ([`dust_proto::Client::tick_into`]); the telemetry flow set is
//!   rebuilt only when the transfer ledger's version moves; liveness is
//!   a flat bitmap instead of a hash probe per node.
//!
//! # Debug oracles
//!
//! Every cache above has an uncached reference it must equal. In debug
//! builds (so in every test run) each cache hit is checked against it
//! bit-for-bit: node aggregates against [`SimNode::raw_agent_cpu`],
//! [`SimNode::data_mb`] and [`SimNode::device_mem_percent`], the liveness
//! bitmap against `Simulation::alive`, and the flow arena against a
//! fresh build from the transfer ledger. A mutation that forgets to bump
//! an epoch or a version fails the first test that reads the stale
//! entry. Release builds skip the checks.
//!
//! [`TrafficModel::apply_to_links`]: crate::traffic::TrafficModel::apply_to_links

use crate::engine::EventQueue;
use crate::flows::{evaluate_flows, TelemetryFlow};
use crate::node::SimNode;
use crate::runner::{SimEvent, SimReport, Simulation};
use dust_obs::ObsHandle;
use dust_proto::ClientMsg;

/// Per-node cached aggregates, invalidated by agent-ledger epoch (and
/// traffic fraction for the CPU/data sums, which depend on it).
#[derive(Debug, Clone, Default)]
struct NodeCache {
    /// Key of `raw_cpu`/`data_mb`: `(agents_epoch, traffic.to_bits())`.
    raw_key: Option<(u64, u64)>,
    raw_cpu: f64,
    data_mb: f64,
    /// Key of `mem_percent`: `agents_epoch` (memory is traffic-blind).
    mem_key: Option<u64>,
    mem_percent: f64,
}

/// Hot state owned by the event loop, outside the `Simulation` so the
/// borrow checker lets handlers mutate both independently.
struct HotState {
    cache: Vec<NodeCache>,
    /// `alive[i]` mirrors `!sim.dead.contains(node i)`.
    alive: Vec<bool>,
    /// Reused STAT/keepalive buffer.
    stat_buf: Vec<ClientMsg>,
    /// Flow arena: rebuilt only when `sim.active_version` moves.
    flows: Vec<TelemetryFlow>,
    flows_version: Option<u64>,
    /// Time of the latest STAT emission — the link state the graph
    /// *should* carry, applied lazily before flow evaluation.
    links_pending: Option<u64>,
    /// Time whose link state is actually applied to the graph.
    links_applied: Option<u64>,
}

impl HotState {
    fn new(n: usize) -> Self {
        HotState {
            cache: vec![NodeCache::default(); n],
            alive: vec![true; n],
            stat_buf: Vec::new(),
            flows: Vec::new(),
            flows_version: None,
            links_pending: None,
            links_applied: None,
        }
    }

    /// Refresh node `i`'s cached aggregates for `traffic` and return
    /// `(raw_cpu, data_mb)`. A miss is one `sim.node_recompute` scope.
    fn raw(&mut self, node: &SimNode, i: usize, traffic: f64, obs: &ObsHandle) -> (f64, f64) {
        let key = (node.agents_epoch(), traffic.to_bits());
        let c = &mut self.cache[i];
        if c.raw_key != Some(key) {
            let _prof = obs.prof_scope("sim.node_recompute");
            c.raw_cpu = node.raw_agent_cpu(traffic);
            c.data_mb = node.data_mb(traffic);
            c.raw_key = Some(key);
        } else {
            debug_assert!(
                c.raw_cpu.to_bits() == node.raw_agent_cpu(traffic).to_bits()
                    && c.data_mb.to_bits() == node.data_mb(traffic).to_bits(),
                "stale node cache for {:?}: an agent mutation skipped the epoch bump",
                node.id
            );
        }
        (c.raw_cpu, c.data_mb)
    }

    /// Cached [`SimNode::device_mem_percent`].
    fn mem(&mut self, node: &SimNode, i: usize) -> f64 {
        let key = node.agents_epoch();
        let c = &mut self.cache[i];
        if c.mem_key != Some(key) {
            c.mem_percent = node.device_mem_percent();
            c.mem_key = Some(key);
        } else {
            debug_assert!(
                c.mem_percent.to_bits() == node.device_mem_percent().to_bits(),
                "stale memory cache for {:?}: an agent mutation skipped the epoch bump",
                node.id
            );
        }
        c.mem_percent
    }
}

/// The telemetry flows the transfer ledger routes: every active transfer
/// with data and a planned route.
fn ledger_flows(sim: &Simulation) -> impl Iterator<Item = TelemetryFlow> + '_ {
    sim.active.values().filter(|t| t.data_mb > 0.0).filter_map(|t| {
        t.route.as_ref().map(|r| TelemetryFlow {
            owner: t.owner,
            host: t.host,
            route: r.clone(),
            data_mb: t.data_mb,
        })
    })
}

/// Run `sim` to completion; the body of [`Simulation::run`].
pub(crate) fn run_event(sim: &mut Simulation) -> SimReport {
    let mut report = Simulation::empty_report();
    let mut q: EventQueue<SimEvent> = EventQueue::new();
    let mut hot = HotState::new(sim.nodes.len());
    for d in &sim.dead {
        hot.alive[d.index()] = false;
    }
    sim.seed_queue(&mut q, &mut report);

    while let Some(ev) = q.pop() {
        let now = ev.at_ms;
        if now > sim.cfg.duration_ms {
            break;
        }
        report.events_processed += 1;
        report.peak_queue_len = report.peak_queue_len.max(q.len());
        sim.obs.set_now(now);
        let _prof = sim.obs.prof_scope(ev.event.scope_name());
        match ev.event {
            SimEvent::StatEmission => {
                let traffic = sim.traffic.fraction(now);
                // This emission's link state is due on the graph, but
                // nothing below reads it: note the time and move on.
                hot.links_pending = Some(now);
                let walk = sim.obs.prof_scope("sim.resource_walk");
                for i in 0..sim.nodes.len() {
                    debug_assert_eq!(hot.alive[i], sim.alive(sim.nodes[i].id), "liveness bitmap");
                    if !hot.alive[i] {
                        continue;
                    }
                    let (raw, data) = hot.raw(&sim.nodes[i], i, traffic, &sim.obs);
                    let cpu = sim.nodes[i].device_cpu_from_raw(raw, now);
                    sim.clients[i].observe(cpu, data);
                    sim.clients[i].tick_into(now, &mut hot.stat_buf);
                    for msg in hot.stat_buf.drain(..) {
                        sim.send_to_manager(now, msg, &mut q, &mut report);
                    }
                }
                drop(walk);
                q.schedule_in(sim.cfg.update_interval_ms, SimEvent::StatEmission);
            }
            SimEvent::OfferMaintenance => {
                sim.handle_offer_maintenance(now, &mut q, &mut report);
            }
            SimEvent::PlacementRound => {
                sim.handle_placement_round(now, &mut q, &mut report);
            }
            SimEvent::TelemetrySample => {
                let traffic = sim.traffic.fraction(now);
                let batch = sim.obs.prof_scope("sim.telemetry_batch");
                for i in 0..sim.nodes.len() {
                    let (raw, _) = hot.raw(&sim.nodes[i], i, traffic, &sim.obs);
                    let mem = hot.mem(&sim.nodes[i], i);
                    let n = &sim.nodes[i];
                    let cpu = n.device_cpu_from_raw(raw, now);
                    let db = report.federation.store_mut(n.id);
                    db.append("device-cpu", now, cpu);
                    db.append("device-mem", now, mem);
                    db.append("monitor-cpu", now, SimNode::monitoring_cpu_from_raw(raw, now));
                    if sim.obs.is_enabled() {
                        sim.obs.observe("sim.node.cpu_percent", cpu);
                        sim.obs.observe("sim.node.mem_percent", mem);
                    }
                }
                drop(batch);
                if sim.obs.is_enabled() {
                    sim.obs.gauge_set("sim.active_transfers", sim.active.len() as f64);
                }
                if sim.slo.is_some() {
                    q.schedule(now, SimEvent::SloEvaluation);
                }
                if hot.flows_version != Some(sim.active_version) {
                    hot.flows.clear();
                    hot.flows.extend(ledger_flows(sim));
                    hot.flows_version = Some(sim.active_version);
                } else {
                    debug_assert!(
                        hot.flows.iter().cloned().eq(ledger_flows(sim)),
                        "stale flow arena: a ledger change skipped the version bump"
                    );
                }
                if !hot.flows.is_empty() {
                    // flows read link utilizations: reconcile the graph
                    // with the latest STAT emission's link state first
                    if hot.links_applied != hot.links_pending {
                        if let Some(t) = hot.links_pending {
                            sim.traffic.apply_to_links(
                                &mut sim.graph,
                                t,
                                sim.cfg.link_jitter,
                                sim.cfg.seed,
                            );
                        }
                        hot.links_applied = hot.links_pending;
                    }
                    let outs = evaluate_flows(&sim.graph, &hot.flows, sim.cfg.update_interval_ms);
                    for (f, o) in hot.flows.iter().zip(&outs) {
                        let db = report.federation.store_mut(f.owner);
                        db.append("telemetry-admitted-mbps", now, o.admitted_mbps);
                        db.append("telemetry-dropped", now, o.dropped_fraction);
                    }
                }
                sim.handle_storm_check(now, &mut q);
                q.schedule_in(sim.cfg.sample_period_ms, SimEvent::TelemetrySample);
            }
            SimEvent::SloEvaluation => {
                sim.handle_slo_evaluation(now);
            }
            SimEvent::DriftTick => {
                sim.handle_drift(now, &mut q);
            }
            SimEvent::NodeKill(n) => {
                sim.handle_kill(now, n);
                hot.alive[n.index()] = false;
            }
            SimEvent::NodeRevive(n) => {
                sim.handle_revive(now, n, &mut q, &mut report);
                hot.alive[n.index()] = true;
            }
            SimEvent::DeliverClient(env) => {
                sim.deliver_manager_msg(now, env, &mut q, &mut report);
            }
            SimEvent::DeliverManager(msg) => {
                sim.deliver_client_msg(now, &msg, &mut q, &mut report);
            }
        }
        report.end_ms = now;
    }
    sim.finish_report(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineKind;
    use crate::scenarios::scale_fleet_sim_on;
    use dust_obs::ObsHandle;

    /// Total invocations of scope `name` over every path it appears
    /// under, read off the profile artifact's `count` lines.
    fn scope_count(profile: &str, name: &str) -> u64 {
        profile
            .lines()
            .filter_map(|l| l.strip_prefix("count "))
            .filter_map(|l| l.rsplit_once(' '))
            .filter(|(path, _)| path.rsplit(';').next() == Some(name))
            .map(|(_, n)| n.parse::<u64>().expect("count lines end in an integer"))
            .sum()
    }

    /// The exact work-count gate on the node caches: under constant
    /// traffic and a quiet control plane no agent list ever changes, so
    /// each node's aggregates are computed once and every later STAT
    /// emission and telemetry sample is a cache hit. A memoization that
    /// misses recomputes on every event and fails this on any host.
    #[test]
    fn scale_fleet_recomputes_each_node_once() {
        let obs = ObsHandle::recording(1);
        obs.enable_profiling();
        let mut sim = scale_fleet_sim_on(8, 3_000, 1, obs.clone(), EngineKind::Event);
        let report = sim.run();
        assert_eq!(sim.nodes().len(), 80, "k = 8 fat-tree");
        assert_eq!(report.events_processed, 427);
        let profile = obs.profile_report().expect("profiling enabled");
        assert_eq!(scope_count(&profile, "sim.node_recompute"), 80, "{profile}");
    }
}
