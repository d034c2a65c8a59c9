//! `mail_send_heavy` and `mail_recv_heavy`: world dispatch, the engine,
//! coherence and ChaCha20 do the work; the planner runs once per site.
//!
//! Both run on `default_case_study()` under `PlannerConfig::default()`.
//!
//! * send-heavy is Figure 7's `DS500` shape: one San Diego connect, four
//!   closed-loop `ClusterDriver`s on it mailing each other with the
//!   paper's 10:1 send:receive ratio, `CountLimit(500)` — sends are
//!   absorbed by the view server and flushed in batches.
//! * recv-heavy uses the same layers the other way: New York, San Diego
//!   and Seattle all connect (Seattle chains onto San Diego's view
//!   server as in Figure 6), one driver per site mails the users at the
//!   *other* sites with send:receive 1:4, so receives find accounts
//!   invalidated by remote deliveries and pull across the WAN through
//!   Encryptor/Decryptor instead of being served from the view cache.
//!
//! After the main work a short repeat phase re-connects from the first
//! site (plan-cache hits) so `repeat_connects_per_s` is reported here too.

use crate::fabric::{default_planner, digest_network, mail_framework};
use crate::gate::{self, DriverSpec};
use crate::harness::{Digest, Spans};
use crate::record::Rep;
use ps_mail::spec::names::{CLIENT_INTERFACE, MAIL_SERVER};
use ps_mail::ClusterConfig;
use ps_net::{default_case_study, NodeId};
use ps_planner::ServiceRequest;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    SendHeavy,
    RecvHeavy,
}

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sends per driver.
    pub sends: u32,
    pub repeat_connects: usize,
}

pub const SEND_FULL: Size = Size {
    sends: 5_000,
    repeat_connects: 2_000,
};
pub const RECV_FULL: Size = Size {
    sends: 5_000,
    repeat_connects: 2_000,
};
pub const QUICK: Size = Size {
    sends: 300,
    repeat_connects: 100,
};

struct Site {
    name: &'static str,
    node: NodeId,
    trust: i64,
    /// Highest message sensitivity the site's drivers generate: Seattle's
    /// view server has TrustLevel 1, so its mail stays at sensitivity 1
    /// and is absorbed rather than bypassing the cache.
    max_sensitivity: u8,
}

pub fn rep(seed: u64, mix: Mix, size: Size, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();

    let setup = spans.enter("setup", 0);
    let cs = default_case_study();
    let server = cs.mail_server;
    let mut fw = mail_framework(cs.network.clone(), server, default_planner(), seed);
    rep.setup_s = spans.exit(setup) as f64 / 1e9;

    let sd = Site {
        name: "sd",
        node: cs.sd_client,
        trust: 4,
        max_sensitivity: 2,
    };
    let sites = match mix {
        Mix::SendHeavy => vec![sd],
        Mix::RecvHeavy => vec![
            Site {
                name: "ny",
                node: cs.ny_client,
                trust: 4,
                max_sensitivity: 2,
            },
            sd,
            Site {
                name: "sea",
                node: cs.seattle_client,
                trust: 1,
                max_sensitivity: 1,
            },
        ],
    };
    // (site index, user, peers, sends, receives)
    let clients: Vec<(usize, String, Vec<String>, u32, u32)> = match mix {
        Mix::SendHeavy => (0..4)
            .map(|i| {
                let peer = format!("user-{}", (i + 1) % 4);
                (
                    0,
                    format!("user-{i}"),
                    vec![peer],
                    size.sends,
                    size.sends / 10,
                )
            })
            .collect(),
        Mix::RecvHeavy => (0..sites.len())
            .map(|i| {
                let peers = (1..sites.len())
                    .map(|k| format!("user-{}", sites[(i + k) % sites.len()].name))
                    .collect();
                let user = format!("user-{}", sites[i].name);
                (i, user, peers, size.sends, size.sends * 4)
            })
            .collect(),
    };
    let rate = 5.0 * clients.len() as f64 / sites.len() as f64;
    let requests: Vec<ServiceRequest> = sites
        .iter()
        .map(|s| {
            ServiceRequest::new(CLIENT_INTERFACE, s.node)
                .rate(rate)
                .pin(MAIL_SERVER, server)
                .origin(server)
                .require("TrustLevel", s.trust)
        })
        .collect();
    let configs: Vec<ClusterConfig> = clients
        .iter()
        .enumerate()
        .map(|(i, (site, user, peers, sends, receives))| ClusterConfig {
            user: user.clone(),
            peers: peers.clone(),
            sends: *sends,
            receives: *receives,
            body_bytes: (1024, 3072),
            sensitivity: (1, sites[*site].max_sensitivity),
            id_base: (i as u64 + 1) << 40,
            seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
        })
        .collect();

    let mut input = Digest::new();
    digest_network(&mut input, fw.world.network());
    for config in &configs {
        input.str(&format!("{config:?}"));
    }
    rep.input_digest = input.finish();

    // Main phase: connect every site, wire the drivers, run to quiescence.
    let phase = spans.enter("main_phase", 0);
    let mut connections = Vec::with_capacity(sites.len());
    for (i, request) in requests.iter().enumerate() {
        let called_at = fw.world.now();
        let (result, ns) = spans.time("connect", i as u64, || fw.connect("mail", request));
        if let Ok(c) = &result {
            spans.reported_child("plan", i as u64, (c.costs.planning_ms * 1e6) as u64);
        }
        connections.push((called_at, result, ns));
    }
    let start = fw.world.now();
    let mut drivers = Vec::with_capacity(configs.len());
    for (i, (config, client)) in configs.iter().zip(&clients).enumerate() {
        let Ok(c) = &connections[client.0].1 else {
            continue;
        };
        let node = sites[client.0].node;
        let id = gate::spawn_driver(&mut fw.world, i, node, config, c.root, start);
        drivers.push(DriverSpec {
            id,
            sends: config.sends,
            receives: config.receives,
            pull_rtt: gate::pull_rtt(&fw, c),
        });
    }
    let (_, run_ns) = spans.time("run", 0, || fw.run());
    rep.wall_s = spans.exit(phase) as f64 / 1e9;
    rep.run_wall_s = run_ns as f64 / 1e9;

    let mut state = Digest::new();
    let mut direct_sends = 0;
    for (i, (called_at, result, ns)) in connections.iter().enumerate() {
        rep.connects += 1;
        rep.ops_attempted += 1;
        match result {
            Ok(c) => {
                gate::check_connection(&fw, &requests[i], c, &mut rep.violations);
                gate::digest_connection(&mut state, c);
                rep.cold
                    .push(gate::cold_sample(&fw, &requests[i], c, *called_at, *ns));
                if gate::pull_rtt(&fw, c).is_none() {
                    direct_sends += clients
                        .iter()
                        .filter(|client| client.0 == i)
                        .map(|client| u64::from(client.3))
                        .sum::<u64>();
                }
            }
            Err(e) => {
                rep.ops_failed += 1;
                rep.violations
                    .push(format!("connect from {}: {e}", sites[i].name));
            }
        }
    }
    gate::tally_drivers(&mut fw.world, &drivers, None, &mut rep, &mut state);

    gate::settled_repeat_phase(&mut fw, spans, &mut rep, &requests[0], size.repeat_connects);

    gate::finish_world(&mut fw, &mut state, &mut rep);
    // No acknowledged send may vanish: each is in the primary's store
    // or still waiting in a view server's unflushed batch.
    if rep.flushed_messages + rep.unflushed_messages != rep.sends {
        rep.violations.push(format!(
            "{} sends acknowledged but {} delivered + {} pending",
            rep.sends, rep.flushed_messages, rep.unflushed_messages
        ));
    }
    rep.flushed_messages = rep.flushed_messages.saturating_sub(direct_sends);
    rep.state_digest = state.finish();
    rep
}
