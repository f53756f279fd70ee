//! The event loop against the recorded outputs of the removed tick core.
//!
//! `dust-sim` used to carry a second, uncached fixed-cadence loop (the
//! "tick core") that recomputed every node's resource walk from scratch
//! at each event. Every run below executed on both loops, which had to
//! produce bit-identical traces, metrics and report counters. The values
//! pinned here were recorded from both loops while that parity held, so
//! the remaining loop must still reproduce the tick core exactly: same
//! trace digest, same FNV-1a hash of the metrics text, same counters.
//!
//! The same scenarios, seeds, durations and fault profiles as the
//! original sweep: the perfect-wire testbed, a lossy chaos profile, and
//! four registry scenarios. Any divergence names the seed that broke.
//! The caches that make the loop fast are checked against their uncached
//! reference functions on every hit in debug builds (see
//! `dust_sim::event`).

use dust::prelude::*;

/// 64-bit FNV-1a, the hash the trace digest uses.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(trace digest, FNV-1a of the metrics text)` of a recording handle.
fn observed(obs: &ObsHandle) -> (u64, u64) {
    (obs.digest().unwrap(), fnv1a(&obs.metrics().unwrap().to_text()))
}

/// Testbed runs, 30 s: `(seed, digest, metrics hash)`. Every seed
/// reports the same counters ([`TESTBED_COUNTS`]); the digest differs
/// because the seed is hashed into it.
const TESTBED: [(u64, u64, u64); 5] = [
    (1, 0x0b80_2152_1e3f_7b9f, 0x2e62_f058_746b_5163),
    (7, 0x8e28_0f8a_060b_b02d, 0x2e62_f058_746b_5163),
    (42, 0xb301_ce14_5d6f_07ca, 0x2e62_f058_746b_5163),
    (0xDEAD_BEEF, 0x2dd8_1725_c826_85ae, 0x2e62_f058_746b_5163),
    (u64::MAX - 3, 0xcb52_c1c2_8525_c541, 0x2e62_f058_746b_5163),
];

/// `(transfers, replicas, placements with assignments, placement rounds,
/// msgs sent, first transfer ms, events processed, end ms)`.
const TESTBED_COUNTS: (usize, usize, usize, u64, u64, Option<u64>, u64, u64) =
    (6, 0, 2, 6, 0, Some(5_000), 426, 30_000);

#[test]
fn testbed_cores_agree_at_every_seed() {
    for (seed, digest, metrics) in TESTBED {
        let obs = ObsHandle::recording(seed);
        let r = testbed_observed(30_000, seed, obs.clone());
        assert_eq!(observed(&obs), (digest, metrics), "testbed seed {seed}: trace or metrics");
        let counts = (
            r.transfers_applied,
            r.replicas_applied,
            r.placements_with_assignments,
            r.placement_rounds,
            r.msgs_sent,
            r.first_transfer_ms,
            r.events_processed,
            r.end_ms,
        );
        assert_eq!(counts, TESTBED_COUNTS, "testbed seed {seed}: report counters");
    }
}

/// Chaos runs at 20 % loss, 60 s: `(seed, digest, metrics hash,
/// [transfers, replicas, msgs sent, dropped, duplicated, offer retries,
/// offers abandoned], first transfer ms)`.
type ChaosPin = (u64, u64, u64, [u64; 7], u64);
const CHAOS: [ChaosPin; 5] = [
    (1, 0x1968_42a1_8943_3671, 0x5cb3_bd01_3827_f18a, [18, 2, 680, 132, 52, 13, 0], 5_022),
    (7, 0x18a6_2758_507b_fbad, 0x2909_d454_5b05_8136, [6, 0, 652, 130, 54, 2, 0], 5_025),
    (42, 0x4a9e_edbb_d72a_3885, 0xe2bd_d7ca_aae3_9baf, [13, 3, 689, 146, 62, 15, 0], 5_041),
    (0xDEAD_BEEF, 0xe1a3_eaeb_b7e9_4489, 0xbb56_4f1b_5de8_e8b7, [4, 0, 594, 117, 42, 1, 0], 5_056),
    (u64::MAX - 3, 0x051a_7912_fc4f_d70f, 0x34f9_bdcc_17fd_af18, [6, 0, 649, 120, 49, 0, 0], 5_037),
];

#[test]
fn chaos_cores_agree_at_every_seed() {
    let faults = FaultConfig::symmetric(FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        delay_ms: 20,
        jitter_ms: 100,
    });
    for (seed, digest, metrics, c, first) in CHAOS {
        let obs = ObsHandle::recording(seed);
        let r = chaos_with_faults_observed(faults, 60_000, seed, obs.clone());
        assert_eq!(observed(&obs), (digest, metrics), "chaos seed {seed}: trace or metrics");
        let expected = ChaosResult {
            loss: 0.2,
            transfers: c[0] as usize,
            replicas: c[1] as usize,
            msgs_sent: c[2],
            msgs_dropped: c[3],
            msgs_duplicated: c[4],
            offer_retries: c[5],
            offers_abandoned: c[6],
            first_transfer_ms: Some(first),
            agents_expected: 10,
            agents_present: 10,
            unconfirmed_stale: 0,
            ledgers_consistent: true,
        };
        assert_eq!(r, expected, "chaos seed {seed}: protocol outcomes");
    }
}

/// Registry scenarios, 30 s: `(name, [transfers, msgs sent, first
/// transfer ms, events processed, end ms], [(seed, digest, metrics
/// hash); 5])`. Each scenario reports the same counters at every seed.
type RegistryPin = (&'static str, [u64; 5], [(u64, u64, u64); 5]);
const REGISTRY: [RegistryPin; 4] = [
    (
        "int_burst",
        [6, 0, 5_000, 457, 30_000],
        [
            (1, 0x0b80_2152_1e3f_7b9f, 0x920d_18b4_c83c_aa79),
            (7, 0x8e28_0f8a_060b_b02d, 0x920d_18b4_c83c_aa79),
            (42, 0xb301_ce14_5d6f_07ca, 0x920d_18b4_c83c_aa79),
            (0xDEAD_BEEF, 0x2dd8_1725_c826_85ae, 0x920d_18b4_c83c_aa79),
            (u64::MAX - 3, 0xcb52_c1c2_8525_c541, 0x920d_18b4_c83c_aa79),
        ],
    ),
    (
        "diurnal",
        [5, 0, 15_000, 410, 30_000],
        [
            (1, 0x148b_5c08_51a3_5c3c, 0xd449_5d68_2e8e_7bcd),
            (7, 0xf49a_8366_7328_cc72, 0x78cd_30c4_7cbb_c6a4),
            (42, 0xe1e0_83db_ded3_0e55, 0x27b4_3a56_96ae_0333),
            (0xDEAD_BEEF, 0xc9b5_ef14_a449_8341, 0x616b_9c5a_7d98_b6f1),
            (u64::MAX - 3, 0x6274_1c8e_424f_677e, 0x9ff2_58e5_367f_0a50),
        ],
    ),
    (
        "flash_crowd",
        [14, 0, 5_000, 413, 30_000],
        [
            (1, 0x98fd_2d84_8052_7182, 0xcb59_160e_d2e9_4369),
            (7, 0x6cfc_87a2_eb85_3638, 0xcb59_160e_d2e9_4369),
            (42, 0xf356_8807_6145_4397, 0xcb59_160e_d2e9_4369),
            (0xDEAD_BEEF, 0x45e1_4162_2117_3cc3, 0xcb59_160e_d2e9_4369),
            (u64::MAX - 3, 0x1c1f_8713_a5b5_2da4, 0xcb59_160e_d2e9_4369),
        ],
    ),
    (
        "zone_storm",
        [23, 0, 5_000, 1_080, 30_000],
        [
            (1, 0xe86b_e565_3b38_b6fe, 0x34f1_cb13_6276_2b5e),
            (7, 0x05df_10ec_d4f9_cd10, 0x34f1_cb13_6276_2b5e),
            (42, 0x17d6_f2a1_ff69_f3fb, 0x34f1_cb13_6276_2b5e),
            (0xDEAD_BEEF, 0x28bc_a2a2_40ca_74e7, 0x34f1_cb13_6276_2b5e),
            (u64::MAX - 3, 0x6933_7ea7_e223_203c, 0x34f1_cb13_6276_2b5e),
        ],
    ),
];

#[test]
fn registry_scenarios_agree_at_every_seed() {
    // The registry scenarios (INT sampling costs, diurnal and
    // flash-crowd traffic, storm cascades) hold the same contract as the
    // hand-rolled scenarios above, whatever machinery they exercise.
    for (name, counts, runs) in REGISTRY {
        let sc = registry::find(name).expect("registered scenario");
        for (seed, digest, metrics) in runs {
            let knobs = ScenarioKnobs {
                duration_ms: Some(30_000),
                obs: ObsHandle::recording(seed),
                ..ScenarioKnobs::seeded(seed)
            };
            let r = sc.run(&knobs).unwrap().report;
            let got = observed(&knobs.obs);
            assert_eq!(got, (digest, metrics), "{name} seed {seed}: trace or metrics");
            let got = [
                r.transfers_applied as u64,
                r.msgs_sent,
                r.first_transfer_ms.expect("every registry scenario offloads"),
                r.events_processed,
                r.end_ms,
            ];
            assert_eq!(got, counts, "{name} seed {seed}: report counters");
        }
    }
}

#[test]
fn federation_contents_identical_across_cores() {
    // Beyond counters: the time-series databases the run leaves behind
    // hold the same points on the same nodes (the DUT, node 2, carries
    // the telemetry-flow series on top of the three resource series).
    let r = testbed_observed(30_000, 42, ObsHandle::disabled());
    let points: Vec<(u32, usize)> = r
        .federation
        .nodes()
        .into_iter()
        .map(|n| (n.0, r.federation.store(n).unwrap().point_count()))
        .collect();
    assert_eq!(points, [(0, 93), (1, 93), (2, 259), (3, 93), (4, 93), (5, 93)]);
}

#[test]
fn scale_scenario_cores_agree() {
    // The benchmark fleet itself, at a small k so the test stays quick.
    let r = scale_fleet_sim_on(4, 2_000, 3, ObsHandle::disabled(), EngineKind::Event).run();
    assert_eq!(
        (r.events_processed, r.peak_queue_len, r.end_ms, r.placement_rounds),
        (98, 3, 2_000, 0)
    );
}
