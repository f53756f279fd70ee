//! End-to-end DUST simulation: protocol, placement, and resource model
//! wired onto the discrete-event engine.
//!
//! One [`Simulation`] owns the topology, a [`SimNode`] resource model and a
//! [`dust_proto::Client`] state machine per device, and a
//! [`dust_proto::Manager`]. Traffic evolves per the [`TrafficModel`],
//! clients report STATs, the Manager runs placement rounds, and accepted
//! offloads *physically move monitor agents* between nodes — so measured
//! CPU/memory series (recorded into a [`Federation`]) reproduce the Fig. 6
//! deltas mechanistically. Node failures can be injected to exercise the
//! keepalive → REP replica-substitution path (§III-C).
//!
//! Every control-plane envelope crosses the [`Transport`] fault gate
//! ([`SimConfig::faults`]): it may be dropped, duplicated, or delayed with
//! jitter, per direction, deterministically per seed. An ideal direction
//! delivers inline (identical to a direct call); any fault profile routes
//! the copies through the event queue as [`SimEvent::DeliverClient`] /
//! [`SimEvent::DeliverManager`] events, so delayed copies interleave with
//! the periodic events exactly as wall-clock delivery would.
//!
//! The event loop itself lives in [`crate::event`]: it pops the typed
//! `SimEvent` sequence — STAT emission, offer expiry/backoff
//! maintenance, fault-injected delivery, transfer completion, node
//! kill/revive, and SLO evaluation — and calls the handlers below. Its
//! outputs are pinned by the golden trace digests and by the values in
//! `tests/engine_parity.rs`, recorded while a second, uncached reference
//! loop still produced them bit-for-bit.

use crate::engine::EventQueue;
use crate::node::SimNode;
use crate::traffic::TrafficModel;
use crate::transport::{Direction, FaultConfig, Transport};
use dust_core::{DustConfig, SolverBackend};
use dust_obs::{ObsHandle, SloBreach, SloEngine, TraceEvent};
use dust_proto::{Client, ClientMsg, Envelope, Manager, ManagerMsg, RequestId};
use dust_telemetry::{Federation, IntSampling};
use dust_topology::{EdgeId, Graph, NodeId, Path, SplitMix64};
use std::collections::{BTreeMap, HashSet};

/// Correlated failure-storm parameters: overload-induced cascades on top
/// of the scheduled `kill_at`/`revive_at` injections.
///
/// At every telemetry sample point at or after `start_ms`, any live node
/// whose device CPU is at or above `cpu_threshold` is scheduled to crash
/// `cascade_delay_ms` later — modeling a zone outage where the surviving
/// members buckle under the load shed onto them. Each node cascades at
/// most once, and the storm stops after `max_cascades` kills so a run
/// cannot annihilate its own fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormConfig {
    /// Device CPU (percent) at which a node joins the cascade.
    pub cpu_threshold: f64,
    /// Storm checks only fire at/after this time, ms.
    pub start_ms: u64,
    /// Delay between threshold crossing and the node's crash, ms.
    pub cascade_delay_ms: u64,
    /// Total cascade-kill budget for the run.
    pub max_cascades: usize,
}

/// Continuous-churn parameters: seeded link-capacity and agent-rate
/// drift applied at a fixed cadence, so placement never reaches a
/// steady state and the Manager's incremental re-optimization path
/// (warm-started bases, dirty-row re-pricing, delta rounds) has real
/// work every round.
///
/// Link drift retunes `capacity_mbps` — not utilization, which the
/// traffic model owns and overwrites every STAT interval — on *both*
/// the physical graph and the Manager's pricing view, so telemetry
/// flows and `T_rmin` costs move together. Agent drift retunes the
/// per-packet sampling fraction of one seeded node's local agents,
/// shifting the data volume (`D_i`) its STATs report. Every draw comes
/// from a SplitMix64 keyed on `(seed, now)`, so a run is bit-identical
/// across repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Drift cadence, ms.
    pub period_ms: u64,
    /// Links whose capacity is retuned per tick.
    pub links_per_tick: usize,
    /// Maximum relative capacity change per retuned link (`0.3` means a
    /// multiplicative factor drawn from `[0.7, 1.3]`). Must lie in
    /// `[0, 1)` so capacity can never hit zero in one step.
    pub capacity_swing: f64,
    /// Nodes whose local agents' sampling fraction is retuned per tick.
    pub nodes_per_tick: usize,
    /// Retuned sampling fractions are drawn from `[rate_floor, 1.0]`.
    pub rate_floor: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            period_ms: 4_000,
            links_per_tick: 2,
            capacity_swing: 0.3,
            nodes_per_tick: 1,
            rate_floor: 0.4,
        }
    }
}

/// Simulation parameters.
///
/// Prefer [`Simulation::builder`], which validates knob combinations and
/// returns a loud [`dust_core::DustError::BadConfig`] instead of silently
/// accepting inconsistent settings.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Placement thresholds and routing options.
    pub dust: DustConfig,
    /// LP backend for the Manager's optimization engine.
    pub backend: SolverBackend,
    /// STAT cadence handed out in ACKs, ms.
    pub update_interval_ms: u64,
    /// Keepalive silence tolerated before replica substitution, ms.
    pub keepalive_timeout_ms: u64,
    /// How often the Manager runs a placement round, ms.
    pub placement_period_ms: u64,
    /// Metric sampling cadence, ms.
    pub sample_period_ms: u64,
    /// Total simulated time, ms.
    pub duration_ms: u64,
    /// `false` runs the "local monitoring" baseline: the DUST control plane
    /// still gossips, but no placement rounds fire (Fig. 6's comparison).
    pub dust_enabled: bool,
    /// Per-link utilization jitter around the traffic model's base.
    pub link_jitter: f64,
    /// When `true`, an accepted Offload-Request moves the Busy node's
    /// *entire* local monitoring deployment instead of just the granted
    /// capacity budget — the semantics of the paper's testbed experiment
    /// (§V-A offloaded all ten agents; Fig. 6).
    pub full_monitoring_offload: bool,
    /// Fault model for the control plane (drop/duplicate/delay per
    /// direction). [`FaultConfig::ideal`] reproduces the perfect wire.
    pub faults: FaultConfig,
    /// Correlated failure storm (cascading overload kills), if any.
    pub storm: Option<StormConfig>,
    /// Continuous link/agent churn, if any.
    pub drift: Option<DriftConfig>,
    /// Hand the Manager's solver the previous round's optimal basis as a
    /// starting point (identical objectives, fewer pivots).
    pub warm_start: bool,
    /// When set, the Manager runs the delta-placement path: between
    /// periodic full solves, only flows whose `T_rmin` degraded past
    /// this relative threshold are re-homed.
    pub delta_threshold: Option<f64>,
    /// Full-solve cadence for the delta path (every Nth round).
    pub delta_full_every: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dust: DustConfig::paper_defaults(),
            backend: SolverBackend::Transportation,
            update_interval_ms: 1_000,
            keepalive_timeout_ms: 4_000,
            placement_period_ms: 5_000,
            sample_period_ms: 1_000,
            duration_ms: 120_000,
            dust_enabled: true,
            link_jitter: 0.05,
            full_monitoring_offload: false,
            faults: FaultConfig::ideal(),
            storm: None,
            drift: None,
            warm_start: false,
            delta_threshold: None,
            delta_full_every: 8,
            seed: 0,
        }
    }
}

/// The typed events driving a simulation run, processed in `(time, seq)`
/// order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SimEvent {
    /// The fleet's STAT emission point: every live client observes its
    /// node's resources and ticks its protocol machine (registration
    /// retransmits, STATs, keepalives).
    StatEmission,
    /// Manager timer maintenance: offer expiry/backoff retransmits,
    /// keepalive timeouts, replica substitution.
    OfferMaintenance,
    /// Manager placement round (solve + Offload-Requests).
    PlacementRound,
    /// Record metric samples and evaluate telemetry flow transport.
    TelemetrySample,
    /// Online SLO evaluation over the sample just recorded (scheduled
    /// only when an engine is attached).
    SloEvaluation,
    /// Apply one seeded churn step ([`SimConfig::drift`]): retune link
    /// capacities and agent sampling rates.
    DriftTick,
    /// Stop a node (crash): it stops sending anything.
    NodeKill(NodeId),
    /// Restart a dead node.
    NodeRevive(NodeId),
    /// A delayed Manager → client envelope reaches its destination
    /// (transfer completions ride this event: an accepted Offload-Request
    /// lands here and moves agents).
    DeliverClient(Envelope<ManagerMsg>),
    /// A delayed client → Manager message reaches the Manager.
    DeliverManager(ClientMsg),
}

impl SimEvent {
    /// Profiling scope name for this event kind (`dustctl profile`).
    pub(crate) fn scope_name(&self) -> &'static str {
        match self {
            SimEvent::StatEmission => "sim.event.stat_emission",
            SimEvent::OfferMaintenance => "sim.event.offer_maintenance",
            SimEvent::PlacementRound => "sim.event.placement_round",
            SimEvent::TelemetrySample => "sim.event.telemetry_sample",
            SimEvent::SloEvaluation => "sim.event.slo_evaluation",
            SimEvent::DriftTick => "sim.event.drift_tick",
            SimEvent::NodeKill(_) => "sim.event.node_kill",
            SimEvent::NodeRevive(_) => "sim.event.node_revive",
            SimEvent::DeliverClient(_) => "sim.event.deliver_client",
            SimEvent::DeliverManager(_) => "sim.event.deliver_manager",
        }
    }
}

/// Summary of a finished run.
#[derive(Debug)]
pub struct SimReport {
    /// Per-node metric series: `device-cpu`, `device-mem`, `monitor-cpu`
    /// (percent of one core), recorded per [`SimConfig::sample_period_ms`].
    pub federation: Federation,
    /// Placement rounds that produced at least one Offload-Request.
    pub placements_with_assignments: usize,
    /// Offload transfers physically applied (accepted requests).
    pub transfers_applied: usize,
    /// REP replica substitutions applied.
    pub replicas_applied: usize,
    /// Hostings orphaned (destination died, no replacement fit).
    pub orphaned: usize,
    /// When the first transfer was physically applied, ms (None = never):
    /// under loss this measures convergence latency of the handshake.
    pub first_transfer_ms: Option<u64>,
    /// Envelopes that crossed the fault gate (ideal directions bypass it).
    pub msgs_sent: u64,
    /// Envelopes the fault gate dropped.
    pub msgs_dropped: u64,
    /// Extra copies the fault gate injected.
    pub msgs_duplicated: u64,
    /// Offer retransmissions the Manager performed.
    pub offer_retries: u64,
    /// Offers the Manager abandoned after exhausting retries.
    pub offers_abandoned: u64,
    /// Final simulated time, ms.
    pub end_ms: u64,
    /// Units of simulation work processed: queue events popped plus
    /// messages delivered inline on an ideal wire. A determinism
    /// cross-check and the denominator of `dust-bench`'s events/sec.
    pub events_processed: u64,
    /// Peak number of pending events observed in the queue.
    pub peak_queue_len: usize,
    /// Placement rounds the Manager executed.
    pub placement_rounds: u64,
}

impl SimReport {
    /// Mean of a node's recorded series over `[start, end)`.
    pub fn mean(&self, node: NodeId, series: &str, start_ms: u64, end_ms: u64) -> Option<f64> {
        self.federation.store(node)?.series(series)?.mean(start_ms, end_ms)
    }

    /// Maximum of a node's recorded series over `[start, end)`.
    pub fn max(&self, node: NodeId, series: &str, start_ms: u64, end_ms: u64) -> Option<f64> {
        self.federation.store(node)?.series(series)?.max(start_ms, end_ms)
    }
}

/// One accepted transfer tracked by the simulation.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    pub(crate) owner: NodeId,
    pub(crate) host: NodeId,
    /// Route from the Offload-Request or REP.
    pub(crate) route: Option<Path>,
    /// Telemetry volume shipped per update interval, Mb.
    pub(crate) data_mb: f64,
}

/// The wired-up simulation.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) graph: Graph,
    pub(crate) nodes: Vec<SimNode>,
    pub(crate) clients: Vec<Client>,
    pub(crate) manager: Manager,
    pub(crate) traffic: TrafficModel,
    pub(crate) transport: Transport,
    pub(crate) cfg: SimConfig,
    pub(crate) dead: HashSet<NodeId>,
    /// Accepted transfers by request id. A `BTreeMap` so iteration order
    /// (flow evaluation, stale-transfer supersede traces) is a pure
    /// function of contents — identical across runs.
    pub(crate) active: BTreeMap<RequestId, Transfer>,
    /// Bumped whenever `active` changes; the event loop's flow arena
    /// rebuilds only when this moves.
    pub(crate) active_version: u64,
    /// Failure injections: `(when_ms, node)`.
    pub(crate) kills: Vec<(u64, NodeId)>,
    /// Revival injections.
    pub(crate) revives: Vec<(u64, NodeId)>,
    /// Nodes the failure storm has already cascaded (each at most once).
    pub(crate) storm_triggered: HashSet<NodeId>,
    /// Observability sink shared with the Manager and every client
    /// (no-op by default).
    pub(crate) obs: ObsHandle,
    /// Online SLO engine, fed from the event loop (none by default).
    /// A pure observer: it reads Manager counters and node samples but
    /// never feeds back, so a run is bit-identical with or without it.
    pub(crate) slo: Option<SloEngine>,
}

impl Simulation {
    /// Start building a simulation: the validating entry point. See
    /// [`crate::builder::SimBuilder`].
    pub fn builder() -> crate::builder::SimBuilder {
        crate::builder::SimBuilder::new()
    }

    /// Internal constructor behind the builder. Panics on node-count
    /// mismatch; the builder pre-validates and never trips these.
    pub(crate) fn assemble(
        graph: Graph,
        nodes: Vec<SimNode>,
        traffic: TrafficModel,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(nodes.len(), graph.node_count(), "one SimNode per vertex");
        let mut manager = Manager::new(
            graph.clone(),
            cfg.dust,
            cfg.backend,
            cfg.update_interval_ms,
            cfg.keepalive_timeout_ms,
        )
        .expect("builder pre-validated the SimConfig")
        .with_warm_start(cfg.warm_start);
        if let Some(threshold) = cfg.delta_threshold {
            manager = manager
                .with_delta_placement(threshold, cfg.delta_full_every)
                .expect("builder pre-validated the delta knobs");
        }
        let clients =
            nodes.iter().map(|n| Client::new(n.id, true, cfg.dust.co_max + 10.0)).collect();
        let transport = Transport::new(cfg.seed, cfg.faults);
        Simulation {
            graph,
            nodes,
            clients,
            manager,
            traffic,
            transport,
            cfg,
            dead: HashSet::new(),
            active: BTreeMap::new(),
            active_version: 0,
            kills: Vec::new(),
            revives: Vec::new(),
            storm_triggered: HashSet::new(),
            obs: ObsHandle::disabled(),
            slo: None,
        }
    }

    /// Attach an observability handle: the Manager, every client, and
    /// the runner itself record metrics and trace events through it.
    /// Instrumentation never feeds back into simulation decisions, so a
    /// run at a given seed is bit-identical with tracing on or off.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.manager.set_obs(obs.clone());
        for c in &mut self.clients {
            c.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Builder form of [`Simulation::set_obs`].
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.set_obs(obs);
        self
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Attach an online SLO engine. The runner feeds it from the event
    /// loop — protocol counters after Manager activity, CPU samples and
    /// a tick at each [`SimEvent::SloEvaluation`] point, and the
    /// convergence clock when the first transfer lands — and traces every
    /// breach it fires as a [`TraceEvent::SloBreach`] (plus `slo.breaches`
    /// counters), so alerts are part of the digested event stream.
    pub fn set_slo(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// The attached SLO engine, if any (for breach inspection).
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Detach and return the SLO engine (e.g. to render its report).
    pub fn take_slo(&mut self) -> Option<SloEngine> {
        self.slo.take()
    }

    /// Trace and count newly fired SLO breaches (no-op on an empty set).
    fn record_breaches(&self, now: u64, fired: &[SloBreach]) {
        for b in fired {
            self.obs.counter_inc("slo.breaches");
            self.obs.counter_inc(&format!("slo.breach.{}", b.kind));
            self.obs.trace_at(
                now,
                TraceEvent::SloBreach { rule: b.rule, node: b.node_code(), value_m: b.value_m() },
            );
        }
    }

    /// Feed the Manager's cumulative offer counters to the SLO engine
    /// (after Manager ticks and placement rounds, where they can move).
    fn poll_slo_protocol(&mut self, now: u64) {
        if self.slo.is_none() {
            return;
        }
        let sent = self.manager.offers_sent();
        let retries = self.manager.offer_retries();
        let abandons = self.manager.offers_abandoned();
        let fired = self
            .slo
            .as_mut()
            .map(|e| e.on_protocol(now, sent, retries, abandons))
            .unwrap_or_default();
        self.record_breaches(now, &fired);
    }

    /// Schedule a crash of `node` at `at_ms` (builder-internal; callers
    /// use [`crate::builder::SimBuilder::kill_at`]).
    pub(crate) fn inject_failure(&mut self, at_ms: u64, node: NodeId) {
        self.kills.push((at_ms, node));
    }

    /// Schedule a revival of `node` at `at_ms` (builder-internal; callers
    /// use [`crate::builder::SimBuilder::revive_at`]).
    pub(crate) fn inject_revival(&mut self, at_ms: u64, node: NodeId) {
        self.revives.push((at_ms, node));
    }

    pub(crate) fn alive(&self, n: NodeId) -> bool {
        !self.dead.contains(&n)
    }

    /// Pass a Manager → client envelope through the fault gate. An ideal
    /// direction delivers inline; otherwise each surviving copy is queued
    /// at `now + delay`.
    pub(crate) fn send_to_client(
        &mut self,
        now: u64,
        env: Envelope<ManagerMsg>,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        if self.cfg.faults.to_client.is_ideal() {
            if self.obs.is_enabled() {
                self.obs.counter_inc("sim.transport.to_client.sent");
                self.obs.counter_inc("sim.transport.to_client.delivered");
            }
            report.events_processed += 1;
            self.deliver_manager_msg(now, env, q, report);
            return;
        }
        let copies = self.transport.plan(Direction::ToClient);
        self.record_gate(now, Direction::ToClient, &copies);
        for delay in copies {
            q.schedule(now + delay, SimEvent::DeliverClient(env.clone()));
        }
    }

    /// Record one envelope's fate at the fault gate: per-direction
    /// sent/delivered/dropped/duplicated counters (the conservation
    /// identity `delivered + dropped == sent + duplicated` holds per
    /// direction), a delay histogram, and drop/duplicate trace events.
    fn record_gate(&self, now: u64, dir: Direction, copies: &[u64]) {
        if !self.obs.is_enabled() {
            return;
        }
        let to_manager = dir == Direction::ToManager;
        let prefix =
            if to_manager { "sim.transport.to_manager" } else { "sim.transport.to_client" };
        self.obs.counter_add(&format!("{prefix}.sent"), 1);
        self.obs.counter_add(&format!("{prefix}.delivered"), copies.len() as u64);
        if copies.is_empty() {
            self.obs.counter_add(&format!("{prefix}.dropped"), 1);
            self.obs.trace_at(now, TraceEvent::FaultDrop { to_manager });
        } else if copies.len() > 1 {
            self.obs.counter_add(&format!("{prefix}.duplicated"), copies.len() as u64 - 1);
            self.obs.trace_at(now, TraceEvent::FaultDuplicate { to_manager });
        }
        for &d in copies {
            self.obs.observe("sim.transport.delay_ms", d as f64);
        }
    }

    /// Pass a client → Manager message through the fault gate.
    pub(crate) fn send_to_manager(
        &mut self,
        now: u64,
        msg: ClientMsg,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        if self.cfg.faults.to_manager.is_ideal() {
            if self.obs.is_enabled() {
                self.obs.counter_inc("sim.transport.to_manager.sent");
                self.obs.counter_inc("sim.transport.to_manager.delivered");
            }
            report.events_processed += 1;
            self.deliver_client_msg(now, &msg, q, report);
            return;
        }
        let copies = self.transport.plan(Direction::ToManager);
        self.record_gate(now, Direction::ToManager, &copies);
        for delay in copies {
            q.schedule(now + delay, SimEvent::DeliverManager(msg.clone()));
        }
    }

    /// A client message reaches the Manager; replies head back through the
    /// fault gate.
    pub(crate) fn deliver_client_msg(
        &mut self,
        now: u64,
        msg: &ClientMsg,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        for env in self.manager.handle(now, msg) {
            self.send_to_client(now, env, q, report);
        }
    }

    /// Apply a Manager → client envelope: route to the client state machine
    /// and mirror accepted decisions onto the resource model. Duplicate
    /// deliveries re-ACK at the protocol layer but must not move agents
    /// twice — mirroring is guarded by the `active` transfer ledger.
    pub(crate) fn deliver_manager_msg(
        &mut self,
        now: u64,
        env: Envelope<ManagerMsg>,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let to = env.to;
        if !self.alive(to) {
            return; // lost on the wire; keepalive timeout will catch it
        }
        let traffic = self.traffic.fraction(now);
        let reply = self.clients[to.index()].handle(now, &env.msg);
        // Mirror protocol decisions onto the physical model.
        match (&env.msg, &reply) {
            (
                ManagerMsg::OffloadRequest { request, from, amount, data_mb, route },
                Some(ClientMsg::OffloadAck { accept: true, .. }),
            ) if !self.active.contains_key(request) => {
                if self.cfg.full_monitoring_offload {
                    // The Busy node sheds its own agents…
                    let moved = self.nodes[from.index()].offload_all_to(to);
                    self.nodes[to.index()].host_agents(*from, &moved);
                    // …and redirects any workload it was hosting for others
                    // ("an Offload-destination node can redirect the
                    // workload to another node if it becomes busy", §III-B).
                    let redirected = self.nodes[from.index()].take_hosted();
                    for (owner, agent) in redirected {
                        self.nodes[owner.index()].redirect_offloaded(*from, to);
                        self.nodes[to.index()].host_agents(owner, &[agent]);
                    }
                    // keep the transfer ledger pointing at the new host
                    // (redirected flows lose their planned route)
                    for t in self.active.values_mut() {
                        if t.host == *from {
                            t.host = to;
                            t.route = None;
                        }
                    }
                } else {
                    let moved = self.nodes[from.index()].offload_agents_to(to, *amount, traffic);
                    self.nodes[to.index()].host_agents(*from, &moved);
                }
                self.active.insert(
                    *request,
                    Transfer { owner: *from, host: to, route: route.clone(), data_mb: *data_mb },
                );
                self.active_version += 1;
                report.transfers_applied += 1;
                report.first_transfer_ms.get_or_insert(now);
                self.obs.counter_inc("sim.transfers_applied");
                self.obs.trace_at(
                    now,
                    TraceEvent::TransferApplied { request: request.0, from: from.0, to: to.0 },
                );
                let fired =
                    self.slo.as_mut().map(|e| e.on_transfer_applied(now)).unwrap_or_default();
                self.record_breaches(now, &fired);
            }
            (
                ManagerMsg::Rep { request, failed, from, data_mb, route, .. },
                Some(ClientMsg::OffloadAck { accept: true, .. }),
            ) if !self.active.contains_key(request) => {
                // re-home: retarget the owner's offloaded agents and move
                // the hosted copies from the failed node to the new host
                let rehomed = self.nodes[from.index()].rehome_offloaded(*failed, to);
                self.nodes[failed.index()].drop_hosted_for(*from);
                self.nodes[to.index()].host_agents(*from, &rehomed);
                // the transfer that ran owner → failed is gone; its
                // replacement lives under the new request id — dropping
                // the stale entry keeps the flow model truthful
                let stale: Vec<RequestId> = self
                    .active
                    .iter()
                    .filter(|(_, t)| t.owner == *from && t.host == *failed)
                    .map(|(r, _)| *r)
                    .collect();
                for r in stale {
                    self.active.remove(&r);
                    self.obs.counter_inc("sim.transfers_superseded");
                    self.obs.trace_at(now, TraceEvent::TransferSuperseded { request: r.0 });
                }
                self.active.insert(
                    *request,
                    Transfer { owner: *from, host: to, route: route.clone(), data_mb: *data_mb },
                );
                self.active_version += 1;
                report.replicas_applied += 1;
                self.obs.counter_inc("sim.replicas_applied");
                self.obs.trace_at(now, TraceEvent::ReplicaApplied { request: request.0, to: to.0 });
            }
            (ManagerMsg::Release { request }, _) => {
                if let Some(t) = self.active.remove(request) {
                    self.active_version += 1;
                    self.nodes[t.owner.index()].reclaim_from(t.host);
                    self.nodes[t.host.index()].drop_hosted_for(t.owner);
                    self.obs.counter_inc("sim.releases_applied");
                    self.obs.trace_at(
                        now,
                        TraceEvent::ReleaseApplied { request: request.0, node: t.host.0 },
                    );
                }
            }
            _ => {}
        }
        if let Some(r) = reply {
            self.send_to_manager(now, r, q, report);
        }
    }

    /// A fresh, empty report.
    pub(crate) fn empty_report() -> SimReport {
        SimReport {
            federation: Federation::new(),
            placements_with_assignments: 0,
            transfers_applied: 0,
            replicas_applied: 0,
            orphaned: 0,
            first_transfer_ms: None,
            msgs_sent: 0,
            msgs_dropped: 0,
            msgs_duplicated: 0,
            offer_retries: 0,
            offers_abandoned: 0,
            end_ms: 0,
            events_processed: 0,
            peak_queue_len: 0,
            placement_rounds: 0,
        }
    }

    /// Seed the queue: registrations delivered at t = 0, then the
    /// periodic events, then injected kills and revivals — the relative
    /// `seq` order at equal timestamps is part of the determinism
    /// contract.
    pub(crate) fn seed_queue(&mut self, q: &mut EventQueue<SimEvent>, report: &mut SimReport) {
        // Registration at t = 0: every client announces itself. Lost
        // registrations are retransmitted by the client on its next ticks.
        for i in 0..self.clients.len() {
            let reg = self.clients[i].register(0);
            self.send_to_manager(0, reg, q, report);
        }
        q.schedule(self.cfg.update_interval_ms, SimEvent::StatEmission);
        q.schedule(self.cfg.update_interval_ms, SimEvent::OfferMaintenance);
        if self.cfg.dust_enabled {
            q.schedule(self.cfg.placement_period_ms, SimEvent::PlacementRound);
        }
        q.schedule(0, SimEvent::TelemetrySample);
        if let Some(d) = &self.cfg.drift {
            q.schedule(d.period_ms, SimEvent::DriftTick);
        }
        for &(t, n) in &self.kills {
            q.schedule(t, SimEvent::NodeKill(n));
        }
        for &(t, n) in &self.revives {
            q.schedule(t, SimEvent::NodeRevive(n));
        }
    }

    /// Manager timer maintenance (offer expiry/backoff, keepalive
    /// timeouts → REP).
    pub(crate) fn handle_offer_maintenance(
        &mut self,
        now: u64,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let outs = self.manager.tick(now);
        for env in outs {
            self.send_to_client(now, env, q, report);
        }
        self.poll_slo_protocol(now);
        q.schedule_in(self.cfg.update_interval_ms, SimEvent::OfferMaintenance);
    }

    /// One Manager placement round.
    pub(crate) fn handle_placement_round(
        &mut self,
        now: u64,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let (placement, outs) = self.manager.run_placement(now);
        if !outs.is_empty() {
            report.placements_with_assignments += 1;
        }
        let _ = placement;
        for env in outs {
            self.send_to_client(now, env, q, report);
        }
        self.poll_slo_protocol(now);
        q.schedule_in(self.cfg.placement_period_ms, SimEvent::PlacementRound);
    }

    /// Online SLO evaluation over the sample recorded at `now` (the cost
    /// is proportional to fleet size only when an engine is attached, so
    /// the hot path never pays it).
    pub(crate) fn handle_slo_evaluation(&mut self, now: u64) {
        let traffic = self.traffic.fraction(now);
        let samples: Vec<(u32, f64)> = self
            .nodes
            .iter()
            .filter(|n| self.alive(n.id))
            .map(|n| (n.id.0, n.device_cpu_percent(now, traffic)))
            .collect();
        let mut fired = Vec::new();
        if let Some(engine) = self.slo.as_mut() {
            for (node, cpu) in samples {
                fired.extend(engine.on_cpu(now, node, cpu));
            }
            fired.extend(engine.on_tick(now));
        }
        self.record_breaches(now, &fired);
    }

    /// Failure-storm check at a telemetry sample point: nodes are visited
    /// in id order and CPU is computed through the same pure function the
    /// sample loop uses, so the cascade decision sequence is a pure
    /// function of the seed. A triggered node is killed through the
    /// normal [`SimEvent::NodeKill`] path `cascade_delay_ms` later, so the
    /// event loop's liveness bitmap stays in sync.
    pub(crate) fn handle_storm_check(&mut self, now: u64, q: &mut EventQueue<SimEvent>) {
        let Some(storm) = self.cfg.storm else { return };
        if now < storm.start_ms {
            return;
        }
        let traffic = self.traffic.fraction(now);
        for i in 0..self.nodes.len() {
            if self.storm_triggered.len() >= storm.max_cascades {
                break;
            }
            let id = self.nodes[i].id;
            if !self.alive(id) || self.storm_triggered.contains(&id) {
                continue;
            }
            let cpu = self.nodes[i].device_cpu_percent(now, traffic);
            if cpu >= storm.cpu_threshold {
                self.storm_triggered.insert(id);
                self.obs.counter_inc("sim.storm_cascades");
                self.obs.trace_at(
                    now,
                    TraceEvent::StormCascade { node: id.0, cpu_m: (cpu * 1000.0).round() as u64 },
                );
                q.schedule(now + storm.cascade_delay_ms, SimEvent::NodeKill(id));
            }
        }
    }

    /// One churn step ([`SimConfig::drift`]). The RNG is keyed on
    /// `(seed, now)` alone, so the draw sequence is a pure function of
    /// the event time, never of loop-local state.
    ///
    /// Link-capacity drift is written to *both* graph copies. The
    /// simulation's copy feeds telemetry-flow evaluation (utilization is
    /// untouched — the traffic model owns it, and the event loop
    /// re-applies it lazily). The Manager's copy feeds `T_rmin` pricing through
    /// [`dust_topology::Graph::link_mut`], whose dirty journal lets
    /// [`dust_topology::CostEngine::refresh`] re-price only the crossing
    /// rows at the next placement round.
    pub(crate) fn handle_drift(&mut self, now: u64, q: &mut EventQueue<SimEvent>) {
        let Some(drift) = self.cfg.drift else { return };
        let mut rng = SplitMix64::new(self.cfg.seed ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut links = 0u32;
        let edge_count = self.graph.edge_count();
        for _ in 0..drift.links_per_tick.min(edge_count) {
            let e = EdgeId(rng.below(edge_count as u64) as u32);
            let factor = rng.range_f64(1.0 - drift.capacity_swing, 1.0 + drift.capacity_swing);
            // random walk with absolute guard rails so a long run can
            // neither collapse a link to zero nor grow it without bound
            let cap = (self.graph.edge(e).link.capacity_mbps * factor).clamp(100.0, 1.0e6);
            self.graph.link_mut(e).capacity_mbps = cap;
            self.manager.graph_mut().link_mut(e).capacity_mbps = cap;
            links += 1;
        }
        let mut agents = 0u32;
        for _ in 0..drift.nodes_per_tick.min(self.nodes.len()) {
            let i = rng.below(self.nodes.len() as u64) as usize;
            let p = rng.range_f64(drift.rate_floor, 1.0);
            let node = &mut self.nodes[i];
            if node.local_agents().is_empty() {
                continue;
            }
            for a in node.local_agents_mut() {
                a.sampling = Some(IntSampling::Probabilistic { p });
            }
            node.note_agents_changed();
            agents += node.local_agents().len() as u32;
        }
        self.obs.counter_inc("sim.drift_ticks");
        self.obs.trace_at(now, TraceEvent::DriftApplied { links, agents });
        q.schedule_in(drift.period_ms, SimEvent::DriftTick);
    }

    /// Crash `node`.
    pub(crate) fn handle_kill(&mut self, now: u64, n: NodeId) {
        self.dead.insert(n);
        self.obs.counter_inc("sim.nodes_killed");
        self.obs.trace_at(now, TraceEvent::NodeKilled { node: n.0 });
    }

    /// Revive `node` with a fresh client.
    pub(crate) fn handle_revive(
        &mut self,
        now: u64,
        n: NodeId,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        self.dead.remove(&n);
        self.obs.counter_inc("sim.nodes_revived");
        self.obs.trace_at(now, TraceEvent::NodeRevived { node: n.0 });
        // The process restarted: the reborn client has no memory of
        // workloads it hosted before the crash — keeping the old ledger
        // would inflate every STAT it sends from now on with phantom
        // hosted load.
        let ceiling = self.cfg.dust.co_max + 10.0;
        let mut fresh = Client::new(n, true, ceiling);
        fresh.set_obs(self.obs.clone());
        self.clients[n.index()] = fresh;
        let reg = self.clients[n.index()].register(now);
        self.send_to_manager(now, reg, q, report);
    }

    /// Fill the end-of-run fields from Manager and transport state.
    pub(crate) fn finish_report(&self, report: &mut SimReport) {
        report.orphaned = self.manager.orphaned().len();
        report.offer_retries = self.manager.offer_retries();
        report.offers_abandoned = self.manager.offers_abandoned();
        report.placement_rounds = self.manager.placement_rounds();
        let stats = self.transport.stats();
        report.msgs_sent = stats.sent;
        report.msgs_dropped = stats.dropped;
        report.msgs_duplicated = stats.duplicated;
    }

    /// Run to completion.
    pub fn run(&mut self) -> SimReport {
        crate::event::run_event(self)
    }

    /// Immutable view of the resource model (for assertions).
    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// The per-node client state machines (for assertions).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The Manager (for assertions on protocol state).
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Number of transfers currently applied on the resource model (the
    /// `active` ledger). Satisfies the conservation identity
    /// `active == transfers_applied + replicas_applied
    ///            - releases_applied - transfers_superseded`.
    pub fn active_transfers(&self) -> usize {
        self.active.len()
    }

    /// Where `owner`'s monitor agents physically are right now: local
    /// count plus copies hosted for it anywhere in the fleet. Conservation
    /// means this never changes, whatever the control plane loses.
    pub fn agent_census(&self, owner: NodeId) -> usize {
        self.nodes[owner.index()].local_agents().len()
            + self
                .nodes
                .iter()
                .map(|n| n.hosted_agents.iter().filter(|(o, _)| *o == owner).count())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::transport::FaultProfile;
    use dust_topology::{topologies, Link};

    /// DUT (node 0) + idle server (node 1) on one link.
    fn two_node_sim(dust_enabled: bool) -> Simulation {
        let g = topologies::line(2, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
        ];
        // make the DUT Busy under paper thresholds: lower c_max so ~31 %
        // qualifies (thresholds are per-deployment, §IV-A)
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .dust_enabled(dust_enabled)
            .duration_ms(60_000)
            .build()
            .expect("valid config")
    }

    #[test]
    fn baseline_never_offloads() {
        let mut sim = two_node_sim(false);
        let report = sim.run();
        assert_eq!(report.transfers_applied, 0);
        assert_eq!(sim.nodes()[0].local_agents().len(), 10);
    }

    #[test]
    fn dust_offloads_and_cpu_drops() {
        let mut sim = two_node_sim(true);
        let report = sim.run();
        assert!(report.transfers_applied > 0, "placement must fire");
        assert!(!sim.nodes()[0].offloaded_agents.is_empty(), "agents must physically move");
        // CPU in the steady tail must sit below the pre-offload window
        let before = report.mean(NodeId(0), "device-cpu", 0, 5_000).unwrap();
        let after = report.mean(NodeId(0), "device-cpu", 40_000, 60_000).unwrap();
        assert!(
            after < before - 5.0,
            "offload must reduce DUT CPU: before {before:.1} after {after:.1}"
        );
    }

    /// The outcomes the removed uncached reference loop produced for
    /// [`two_node_sim`]`(true)`; the event loop must reproduce them
    /// bit-for-bit (series means as `f64` bit patterns).
    #[test]
    fn both_engines_report_identical_outcomes() {
        let r = two_node_sim(true).run();
        assert_eq!(r.transfers_applied, 2);
        assert_eq!(r.first_transfer_ms, Some(5_000));
        assert_eq!(r.events_processed, 377, "event accounting must match");
        assert_eq!(r.peak_queue_len, 3);
        assert_eq!(r.placement_rounds, 12);
        let bits = |series: &str| r.mean(NodeId(0), series, 0, 60_000).map(f64::to_bits);
        assert_eq!(bits("device-cpu"), Some(4_628_832_535_758_678_699), "≈ 28.9167 %");
        assert_eq!(bits("telemetry-admitted-mbps"), Some(4_634_100_138_894_263_825), "≈ 63.26");
    }

    #[test]
    fn failure_triggers_replica_substitution() {
        // three nodes: DUT busy, two possible hosts
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        let mut sim = Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            // kill whichever host got the agents once hosting is underway
            .kill_at(20_000, NodeId(1))
            .build()
            .expect("valid config");
        let report = sim.run();
        if sim.nodes()[1].hosted_agents.is_empty() && report.replicas_applied > 0 {
            // re-homed to node 2
            assert!(!sim.nodes()[2].hosted_agents.is_empty());
        }
        // invariant: the DUT's agents are somewhere — local, on 1, or on 2
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn revival_resets_phantom_hosted_state() {
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        // the destination dies mid-hosting and comes back much later,
        // after the REP already re-homed its workload
        let mut sim = Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            .kill_at(20_000, NodeId(1))
            .revive_at(40_000, NodeId(2))
            .revive_at(40_000, NodeId(1))
            .build()
            .expect("valid config");
        sim.run();
        // the reborn client's ledger must agree with the Manager: every
        // hosted entry corresponds to a live confirmed hosting — the
        // pre-crash entry must NOT survive the reboot and inflate STATs
        for c in sim.clients() {
            for (req, _) in c.hosted() {
                let h = sim.manager().hostings().get(req);
                assert!(
                    h.is_some_and(|h| h.to == c.node && h.confirmed),
                    "client {:?} still carries phantom hosting {req:?}",
                    c.node
                );
            }
        }
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn sampling_produces_all_series() {
        let mut sim = two_node_sim(false);
        let report = sim.run();
        for n in [NodeId(0), NodeId(1)] {
            let db = report.federation.store(n).unwrap();
            for s in ["device-cpu", "device-mem", "monitor-cpu"] {
                assert!(db.series(s).is_some(), "{n:?} missing {s}");
                assert!(db.series(s).unwrap().len() >= 50);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let r1 = two_node_sim(true).run();
        let r2 = two_node_sim(true).run();
        assert_eq!(r1.transfers_applied, r2.transfers_applied);
        assert_eq!(
            r1.mean(NodeId(0), "device-cpu", 0, 60_000),
            r2.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }

    /// Lossy control plane: offloading still converges, nothing is lost,
    /// and the fault gate's counters land in the report.
    fn lossy_sim(loss: f64, seed: u64) -> Simulation {
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        let faults = FaultConfig::symmetric(FaultProfile {
            drop: loss,
            duplicate: loss / 2.0,
            delay_ms: 20,
            jitter_ms: 100,
        });
        Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            .faults(faults)
            .seed(seed)
            .build()
            .expect("valid config")
    }

    #[test]
    fn lossy_control_plane_still_offloads() {
        let mut sim = lossy_sim(0.2, 11);
        let report = sim.run();
        assert!(report.transfers_applied > 0, "handshake must converge despite 20 % loss");
        assert!(report.msgs_sent > 0 && report.msgs_dropped > 0, "faults must actually fire");
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn slo_convergence_breach_fires_on_the_no_offload_baseline() {
        use dust_obs::{ObsHandle, SloEngine, SloKind, SloSpec};
        // dust disabled → no transfer ever applies → convergence breaches
        let mut sim = two_node_sim(false);
        sim.set_obs(ObsHandle::recording(3));
        let spec = SloSpec::parse("convergence<=10000").unwrap();
        sim.set_slo(SloEngine::new(spec, 25.0));
        sim.run();
        let engine = sim.take_slo().unwrap();
        assert!(engine.breached(), "baseline never offloads, deadline must fire");
        assert_eq!(engine.breaches().len(), 1, "convergence fires exactly once");
        assert_eq!(engine.breaches()[0].kind, SloKind::Convergence);
        // the breach is traced and counted — part of the digested stream
        assert_eq!(sim.obs().counter("slo.breaches"), 1);
        assert_eq!(sim.obs().counter("slo.breach.convergence"), 1);
        let trace = sim.obs().trace_snapshot().unwrap();
        let traced = trace
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::SloBreach { .. }))
            .count();
        assert_eq!(traced, 1);
    }

    #[test]
    fn slo_engine_is_a_pure_observer() {
        // identical runs with and without an engine watching
        let plain = two_node_sim(true).run();
        let mut watched = two_node_sim(true);
        let spec = dust_obs::SloSpec::parse(
            "convergence<=1,retransmit_rate<=0.0,abandons<=0,overload_dwell<=1",
        )
        .unwrap();
        watched.set_slo(dust_obs::SloEngine::new(spec, 25.0));
        let report = watched.run();
        assert!(watched.slo().unwrap().breached(), "tight thresholds must fire");
        assert_eq!(plain.transfers_applied, report.transfers_applied);
        assert_eq!(plain.first_transfer_ms, report.first_transfer_ms);
        assert_eq!(
            plain.mean(NodeId(0), "device-cpu", 0, 60_000),
            report.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }

    #[test]
    fn lossy_runs_are_bit_identical_per_seed() {
        let a = lossy_sim(0.3, 5).run();
        let b = lossy_sim(0.3, 5).run();
        assert_eq!(
            (a.transfers_applied, a.replicas_applied, a.msgs_sent, a.msgs_dropped),
            (b.transfers_applied, b.replicas_applied, b.msgs_sent, b.msgs_dropped)
        );
        assert_eq!(a.first_transfer_ms, b.first_transfer_ms);
        assert_eq!(
            a.mean(NodeId(0), "device-cpu", 0, 60_000),
            b.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }
}
