//! Checker-vs-simulator equivalence, property-tested.
//!
//! The bounded explorer reasons about a [`lis_verify::ClosedConfig`] it
//! drives cycle-by-cycle through external stall atomics; the regression
//! replays go through an ordinary [`lis_core::SocBuilder`] SoC with
//! scripted adversaries. These are the *same* protocol components in
//! two different harnesses, so for any stall schedule within the
//! exploration depth they must agree state-for-state: identical sink
//! delivery counts every cycle, and a final KPN ledger (source sequence
//! / sink expectation mod [`lis_verify::MODULUS`]) that matches the
//! simulator's delivered count exactly.

use lis_core::SocBuilder;
use lis_proto::{Pearl, StallControl};
use lis_verify::{build_config, ClosedConfig, JoinPearl, MODULUS};
use lis_wrappers::SpPolicy;
use proptest::prelude::*;
use std::sync::atomic::Ordering;

/// Exploration depth bound the properties exercise (matches the
/// checker's `REQUIRED_DEPTH` in the verify binary).
const DEPTH: usize = 12;

/// Advances the checker configuration one cycle with the given stall
/// mask (bit *e* stalls edge *e*; only lane 0 is driven).
fn checker_step(cfg: &mut ClosedConfig, mask: u64) {
    for e in 0..cfg.edge_count() {
        cfg.set_stall(e, (mask >> e) & 1);
    }
    cfg.step();
}

/// Builds the simulator twin of the `sp1-scalar`/`sp2-scalar` shapes:
/// scripted adversary source, one input relay, the SP-wrapped join
/// pearl, `relays_after` output relays, scripted adversary sink.
fn sim_twin(
    relays_after: usize,
    schedule: &[u64],
) -> (
    lis_core::Soc,
    std::sync::Arc<[std::sync::atomic::AtomicU64]>,
) {
    let scripts: Vec<Vec<u64>> = (0..2)
        .map(|e| schedule.iter().map(|m| (m >> e) & 1).collect())
        .collect();
    let mut b = SocBuilder::new();
    let vio = b.violations_handle();
    let pearl = JoinPearl::new("join", 1, 1, &vio);
    let policy = Box::new(SpPolicy::from_schedule(pearl.schedule()));
    let ip = b.add_ip_with_policy("sp", Box::new(pearl), policy);

    let stage = b.channel("adv_src", 32);
    b.adversary_feed(
        "src",
        stage,
        StallControl::Scripted(scripts[0].clone()),
        MODULUS,
    );
    b.link(stage, ip.inputs[0], 1);

    let mut tail = ip.outputs[0];
    if relays_after > 0 {
        let out = b.channel("adv_out", 32);
        b.link(tail, out, relays_after);
        tail = out;
    }
    let delivered = b.adversary_capture(
        "snk",
        tail,
        StallControl::Scripted(scripts[1].clone()),
        MODULUS,
    );
    (b.build(), delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every random stall schedule within the depth bound, the
    /// checker configuration and the simulator twin deliver the same
    /// token count on every single cycle, and both finish
    /// violation-free.
    #[test]
    fn checker_and_simulator_agree_cycle_for_cycle(
        relays_after in 0usize..2,
        schedule in prop::collection::vec(0u64..4, 1..=DEPTH),
    ) {
        let name = if relays_after == 0 { "sp1-scalar" } else { "sp2-scalar" };
        let mut cfg = build_config(name).expect("registered config");
        let (mut soc, delivered) = sim_twin(relays_after, &schedule);

        for (cycle, &mask) in schedule.iter().enumerate() {
            checker_step(&mut cfg, mask);
            soc.run(1).expect("simulator twin must converge");
            prop_assert_eq!(
                cfg.delivered(0),
                delivered[0].load(Ordering::Relaxed),
                "delivery counts diverged at cycle {} of {:?}",
                cycle,
                schedule
            );
        }
        prop_assert_eq!(cfg.violations(0), 0, "checker saw a phantom violation");
        prop_assert_eq!(soc.violations(), 0, "simulator saw a phantom violation");
    }

    /// The checker's KPN ledger is not an abstraction that merely
    /// bounds the simulator — it *is* the simulator's state: after any
    /// schedule, the sink's expected sequence number equals the
    /// delivered count mod MODULUS, the source has emitted at least as
    /// many tokens as arrived, and the in-flight difference respects
    /// the path capacity.
    #[test]
    fn checker_ledger_matches_simulator_deliveries(
        relays_after in 0usize..2,
        schedule in prop::collection::vec(0u64..4, 1..=DEPTH),
    ) {
        let name = if relays_after == 0 { "sp1-scalar" } else { "sp2-scalar" };
        let mut cfg = build_config(name).expect("registered config");
        let (mut soc, delivered) = sim_twin(relays_after, &schedule);

        for &mask in &schedule {
            checker_step(&mut cfg, mask);
        }
        soc.run(schedule.len() as u64).expect("simulator twin must converge");

        let words = cfg.save(0);
        let streams = cfg.stream_state(&words);
        prop_assert_eq!(streams.len(), 1, "scalar shapes carry one stream");
        let (seq, expect) = streams[0];
        let sim_delivered = delivered[0].load(Ordering::Relaxed);
        prop_assert_eq!(
            expect,
            sim_delivered % MODULUS,
            "sink expectation must count the simulator's deliveries"
        );
        prop_assert_eq!(
            cfg.delivered(0),
            sim_delivered,
            "checker and simulator delivery totals diverged"
        );
        let in_flight = (seq + MODULUS - expect) % MODULUS;
        prop_assert!(
            in_flight <= schedule.len() as u64 + 1,
            "no more tokens in flight than emission cycles: {} after {:?}",
            in_flight,
            schedule
        );
        prop_assert_eq!(cfg.ledger_violation(&words), None);
    }
}
