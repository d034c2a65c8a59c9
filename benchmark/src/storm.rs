//! `connect_storm`: planner and server caches do the work; the DES does
//! almost none.
//!
//! Every attach point carries two leaves. Warm-up (untimed): the first
//! leaf of each point connects, so the instances the fabric's clients
//! share accumulate to their steady set — what a cold connect costs
//! depends on how many instances are live, so without it the cold phase
//! would price the order of arrival. Cold phase: the second leaf of each
//! point connects once in seeded order, virtual time advanced to a seeded
//! Poisson arrival stamp before each call (one plan-cache miss per leaf).
//! Settle (untimed): passes over those leaves until one full pass is all
//! cache hits. Repeat phase: connects drawn heavy-tailed (`u^1.6`) over
//! the warm leaves. Closed loop, one caller.
//!
//! A planner or memo change must show in the cold phase and not in the
//! repeat phase; a plan-cache or key change the other way round.

use crate::fabric::{build_fabric, digest_network, fabric_planner, fabric_request, mail_framework};
use crate::gate;
use crate::harness::{Digest, Spans};
use crate::record::Rep;
use ps_sim::{Rng, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Attach points; each has one warm-up leaf and one leaf that
    /// connects in the cold phase and again in the repeat phase.
    pub leaves: usize,
    pub repeat_connects: usize,
}

pub const FULL: Size = Size {
    leaves: 20,
    repeat_connects: 12_000,
};
pub const QUICK: Size = Size {
    leaves: 4,
    repeat_connects: 300,
};

/// Poisson arrival rate of the cold phase, connects per virtual second.
const ARRIVALS_PER_S: f64 = 4.0;

pub fn rep(seed: u64, size: Size, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();

    let setup = spans.enter("setup", 0);
    let fabric = build_fabric(size.leaves, 2);
    let server = fabric.server();
    let warm_leaves: Vec<_> = fabric.leaves.iter().copied().step_by(2).collect();
    let leaves: Vec<_> = fabric.leaves.iter().copied().skip(1).step_by(2).collect();
    let mut fw = mail_framework(fabric.net, server, fabric_planner(), seed);
    let mut rng = Rng::seed_from_u64(seed).derive("connect_storm");
    let mut order: Vec<usize> = (0..leaves.len()).collect();
    rng.shuffle(&mut order);
    let mut at = 0.0;
    let stamps: Vec<SimTime> = order
        .iter()
        .map(|_| {
            at += rng.exponential(ARRIVALS_PER_S);
            SimTime::ZERO + SimDuration::from_secs_f64(at)
        })
        .collect();
    let draws: Vec<usize> = (0..size.repeat_connects)
        .map(|_| (rng.next_f64().powf(1.6) * leaves.len() as f64) as usize % leaves.len())
        .collect();
    rep.setup_s = spans.exit(setup) as f64 / 1e9;

    let mut input = Digest::new();
    digest_network(&mut input, fw.world.network());
    for (&leaf, stamp) in order.iter().zip(&stamps) {
        input.u64(leaf as u64).u64(stamp.as_nanos());
    }
    for &d in &draws {
        input.u64(d as u64);
    }
    rep.input_digest = input.finish();

    // Warm-up: one pass over the first leaf of every attach point.
    let warmup = spans.enter("warmup_phase", 0);
    for &node in &warm_leaves {
        rep.warmup_connects += 1;
        if let Err(e) = fw.connect("mail", &fabric_request(server, node)) {
            rep.ops_failed += 1;
            rep.violations.push(format!("warm-up connect: {e}"));
        }
    }
    spans.exit(warmup);

    // Cold phase.
    let mut cold = Vec::with_capacity(order.len());
    let phase = spans.enter("cold_phase", 0);
    for (i, (&leaf, &stamp)) in order.iter().zip(&stamps).enumerate() {
        let (_, run_ns) = spans.time("run_until", i as u64, || fw.run_until(stamp));
        rep.run_wall_s += run_ns as f64 / 1e9;
        let request = fabric_request(server, leaves[leaf]);
        let (result, ns) = spans.time("connect", i as u64, || fw.connect("mail", &request));
        if let Ok(c) = &result {
            spans.reported_child("plan", i as u64, (c.costs.planning_ms * 1e6) as u64);
        }
        cold.push((request, stamp, result, ns));
    }
    let cold_ns = spans.exit(phase);

    let mut state = Digest::new();
    let mut roots = vec![None; leaves.len()];
    for ((request, called_at, result, ns), &leaf) in cold.into_iter().zip(&order) {
        rep.connects += 1;
        match result {
            Ok(c) => {
                gate::check_connection(&fw, &request, &c, &mut rep.violations);
                gate::digest_connection(&mut state, &c);
                rep.cache_hits += c.costs.plan_stats.plan_cache_hits;
                if c.costs.plan_stats.plan_cache_hits != 0 {
                    rep.violations
                        .push(format!("cold connect of leaf {leaf} hit the plan cache"));
                }
                roots[leaf] = Some(c.root);
                rep.cold
                    .push(gate::cold_sample(&fw, &request, &c, called_at, ns));
            }
            Err(e) => {
                rep.ops_failed += 1;
                rep.violations
                    .push(format!("cold connect of leaf {leaf}: {e}"));
            }
        }
    }

    // Settle: until one full pass over the leaves is all cache hits.
    let settle = spans.enter("settle_phase", 0);
    loop {
        let mut misses = 0;
        for (leaf, &node) in leaves.iter().enumerate() {
            rep.settle_connects += 1;
            match fw.connect("mail", &fabric_request(server, node)) {
                Ok(c) => {
                    if c.costs.plan_stats.plan_cache_hits == 0 {
                        misses += 1;
                    }
                    roots[leaf] = Some(c.root);
                }
                Err(e) => {
                    rep.ops_failed += 1;
                    rep.violations
                        .push(format!("settle connect of leaf {leaf}: {e}"));
                }
            }
        }
        if misses == 0 || rep.settle_connects > 16 * leaves.len() as u64 {
            break;
        }
    }
    spans.exit(settle);

    // Repeat phase.
    let requests: Vec<_> = leaves.iter().map(|&n| fabric_request(server, n)).collect();
    rep.connects += rep.warmup_connects + rep.settle_connects;
    rep.ops_attempted += rep.warmup_connects + order.len() as u64 + rep.settle_connects;
    gate::repeat_phase(&mut fw, spans, &mut rep, &requests, &roots, &draws);
    rep.wall_s = cold_ns as f64 / 1e9 + rep.repeat_wall_s;
    gate::finish_world(&mut fw, &mut state, &mut rep);
    rep.state_digest = state.finish();
    rep
}
