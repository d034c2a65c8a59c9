//! Migration-cost ablation: moving a live `ViewMailServer` replica to
//! another node as a function of the state it has accumulated.
//!
//! State transfer is charged over the actual route (the replica's cached
//! messages are its snapshot), so migration within the LAN is cheap and
//! across the WAN scales with cache size — the trade-off a re-planner
//! weighs against redeploying an empty replica that must re-warm.

#![forbid(unsafe_code)]

use ps_core::Framework;
use ps_mail::spec::names::*;
use ps_mail::workload::{ClusterConfig, ClusterDriver};
use ps_mail::{mail_spec, mail_translator, register_mail_components, Keyring};
use ps_net::casestudy::default_case_study;
use ps_planner::ServiceRequest;
use ps_smock::{CoherencePolicy, ServiceRegistration};
use ps_spec::Behavior;
use ps_trace::Report;

fn main() {
    let mut report = Report::new("Migration cost vs cached state (ViewMailServer)");
    report.line(format!(
        "{:>14} {:>14} {:>18} {:>18}",
        "msgs cached", "state[KB]", "LAN move[ms]", "WAN move[ms]"
    ));
    for msgs in [0u32, 100, 500, 1000, 2000, 5000] {
        let mut lan_ms = 0.0;
        let mut wan_ms = 0.0;
        let mut state_kb = 0.0;
        for wan in [false, true] {
            let cs = default_case_study();
            let mut fw = Framework::new(
                cs.network.clone(),
                cs.mail_server,
                Box::new(mail_translator()),
            );
            register_mail_components(
                &mut fw.server.registry,
                Keyring::new(msgs as u64),
                CoherencePolicy::None,
            );
            fw.register_service(ServiceRegistration::new(mail_spec()));
            fw.install_primary("mail", MAIL_SERVER, cs.mail_server)
                .unwrap();
            let request = ServiceRequest::new(CLIENT_INTERFACE, cs.sd_client)
                .rate(10.0)
                .pin(MAIL_SERVER, cs.mail_server)
                .origin(cs.mail_server)
                .require("TrustLevel", 4i64);
            let conn = fw.connect("mail", &request).unwrap();
            let vms_idx = conn
                .plan
                .placement_of(VIEW_MAIL_SERVER)
                .unwrap()
                .graph_index;
            let vms = conn.deployment.instances[vms_idx];

            if msgs > 0 {
                let driver = ClusterDriver::new(ClusterConfig {
                    sends: msgs,
                    receives: 0,
                    ..ClusterConfig::paper("alice", "bob", 1 << 40)
                });
                let id = fw.world.instantiate(
                    "driver",
                    cs.sd_client,
                    Default::default(),
                    Behavior::new(),
                    Box::new(driver),
                    conn.ready_at,
                );
                fw.world.wire(id, vec![conn.root]);
            }
            fw.run();

            // Report the snapshot size once (same either way).
            if !wan {
                let logic = fw.world.logic_mut(vms);
                if let Some(snap) = logic.snapshot() {
                    state_kb = snap.wire_bytes as f64 / 1024.0;
                }
            }

            let target = if wan {
                // Move the replica to the Seattle site across the WAN
                // (hypothetically; trust conditions are the planner's
                // concern — this measures the mechanism).
                cs.seattle_gateway
            } else {
                cs.network
                    .site_nodes("SanDiego")
                    .into_iter()
                    .find(|&n| n != fw.world.instance(vms).node)
                    .unwrap()
            };
            let before = fw.world.now();
            let (_new, live_at) = fw.world.migrate(vms, target);
            let cost = live_at.since(before).as_millis_f64();
            if wan {
                wan_ms = cost;
            } else {
                lan_ms = cost;
            }
        }
        report.line(format!(
            "{:>14} {:>14.1} {:>18.2} {:>18.1}",
            msgs, state_kb, lan_ms, wan_ms
        ));
    }
    report.line("");
    report.line(
        "(LAN moves ride 100 Mb/s zero-latency links; WAN moves pay the\n\
         50 Mb/s / 100 ms Seattle link — linear in cached bytes either way)",
    );
    println!("{report}");
}
