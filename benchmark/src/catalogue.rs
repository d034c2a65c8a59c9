//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction, and `BENCHMARK.json` rendered from it. The clock of a
//! metric is in its unit: `sim_ms` is simulated (virtual) time,
//! deterministic for a seed; `s`, `ms`, `us`, `ns` and the `1/s` rates
//! are host wall time through `ps_trace::WallTimer`.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "connect_storm",
        why: "513-router fabric, cold then repeat connects: planner and server caches do the work, the DES almost none",
    },
    Workload {
        name: "mail_send_heavy",
        why: "Figure 7 DS500 shape, sends absorbed and flushed: world dispatch, engine, coherence flush and ChaCha20 do the work, the planner runs once",
    },
    Workload {
        name: "mail_recv_heavy",
        why: "three sites mailing each other 1:4 send:receive: the same layers used the other way, receives pull across the WAN instead of hitting the view cache",
    },
    Workload {
        name: "crash_heal",
        why: "fabric under host crashes, link flaps and loss: route repair, plan repair, leases, retry and the healer do the work",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Metrics every workload reports, all host wall time.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "cold_connect_wall_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "repeat_connects_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Traced-run metrics. The first eleven are client-visible metrics that
/// only some workloads exercise (0 elsewhere, see the README table); the
/// rest are `<layer>.<metric>`.
pub const PER_LAYER: [PerLayer; 65] = [
    layer("cold_connect_wall_ms_p90", "ms", "lower"),
    layer("sim_events_per_s", "1/s", "higher"),
    layer("heal_wall_ms_p50", "ms", "lower"),
    layer("connect_virtual_ms_p50", "sim_ms", "lower"),
    layer("send_virtual_ms_p50", "sim_ms", "lower"),
    layer("send_virtual_ms_p99", "sim_ms", "lower"),
    layer("receive_virtual_ms_p50", "sim_ms", "lower"),
    layer("receive_virtual_ms_p99", "sim_ms", "lower"),
    layer("recovery_virtual_ms_p50", "sim_ms", "lower"),
    layer("recovery_virtual_ms_max", "sim_ms", "lower"),
    layer("ops_failed_ratio", "ratio", "lower"),
    layer("sim.engine.events_per_s", "1/s", "higher"),
    layer("sim.fault.events_applied", "count", "higher"),
    layer("net.brite.generate_ms", "ms", "lower"),
    layer("net.route_table.build_ms", "ms", "lower"),
    layer("net.route_table.repair_us_p50", "us", "lower"),
    layer("net.route_table.sources_rebuilt_ratio", "ratio", "lower"),
    layer("net.scoped_routes.rows_built", "count", "lower"),
    layer("net.partition_view.build_us", "us", "lower"),
    layer("planner.plan_wall_ms_p50", "ms", "lower"),
    layer("planner.plan_wall_ms_p90", "ms", "lower"),
    layer("planner.work_units", "count", "lower"),
    layer("planner.mappings_evaluated", "count", "lower"),
    layer("planner.bound_prunes", "count", "higher"),
    layer("planner.hier_segments", "count", "lower"),
    layer("planner.hier_memo_hit_ratio", "ratio", "higher"),
    layer("planner.probe_hier_wall_ms_p50", "ms", "lower"),
    layer("planner.probe_flat_wall_ms_p50", "ms", "lower"),
    layer("planner.repair_wall_ms_p50", "ms", "lower"),
    layer("planner.repair_chains_reused_ratio", "ratio", "higher"),
    layer("lookup.by_name_ns", "ns", "lower"),
    layer("lookup.match_ns", "ns", "lower"),
    layer("lookup.virtual_ms", "sim_ms", "lower"),
    layer("server.connect_self_ms_p50", "ms", "lower"),
    layer("server.repeat_connect_us_p50", "us", "lower"),
    layer("server.plan_cache_hit_ratio", "ratio", "higher"),
    layer("server.settle_connects", "count", "lower"),
    layer("server.live_instances", "count", "lower"),
    layer("deploy.created", "count", "lower"),
    layer("deploy.reused", "count", "higher"),
    layer("deploy.bytes_shipped", "bytes", "lower"),
    layer("deploy.transfer_virtual_ms_p50", "sim_ms", "lower"),
    layer("deploy.startup_virtual_ms", "sim_ms", "lower"),
    layer("world.run_wall_s", "s", "lower"),
    layer("world.events_processed", "count", "lower"),
    layer("world.messages_sent", "count", "lower"),
    layer("world.wall_ns_per_event", "ns", "lower"),
    layer("world.relay_events_per_s", "1/s", "higher"),
    layer("world.ops_retried", "count", "lower"),
    layer("world.ops_lost", "count", "lower"),
    layer("coherence.flushes", "count", "lower"),
    layer("coherence.flush_batch_mean", "count", "higher"),
    layer("coherence.stale_pull_ratio", "ratio", "lower"),
    layer("mail.chacha20_mb_per_s", "MB/s", "higher"),
    layer("mail.payload_encode_ns", "ns", "lower"),
    layer("heal.passes", "count", "lower"),
    layer("heal.idle_pass_wall_us_p50", "us", "lower"),
    layer("heal.replans", "count", "lower"),
    layer("heal.passes_per_incident", "ratio", "lower"),
    layer("heal.detect_virtual_ms_p50", "sim_ms", "lower"),
    layer("heal.redeploy_virtual_ms_p50", "sim_ms", "lower"),
    layer("heal.infeasible", "count", "lower"),
    layer("heal.abandoned", "count", "lower"),
    layer("monitor.poll_us_p50", "us", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// `input_digest` of every workload at [`DEFAULT_SEED`], at full and at
/// `--quick` sizing. A change to a generator (`ps_net::brite`, the case
/// study, `FaultPlan::randomized`, `Rng`) moves them, so it reads as
/// changed input, not as a speed-up. `BENCHMARK.json` has no key that
/// could hold them, so they are pinned here.
pub const PINNED_INPUT_DIGESTS: [(&str, u64, u64); 4] = [
    (
        "connect_storm",
        0x328a_044a_c7a1_2410,
        0xc1c6_f2fa_3bd7_c8ad,
    ),
    (
        "mail_send_heavy",
        0xdf67_2821_866f_47af,
        0xdd49_1457_406d_e17b,
    ),
    (
        "mail_recv_heavy",
        0x5609_253b_7d66_cffd,
        0x959c_64c8_08f9_4b0e,
    ),
    ("crash_heal", 0x34ba_c4dc_d85a_0472, 0xc58a_10d9_8c1c_120e),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
