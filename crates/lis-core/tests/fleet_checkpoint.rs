//! Regression test for the fleet checkpoint/restore seam through the
//! vendored serde: a mid-run [`lis_core::FleetCheckpoint`] must survive
//! JSON serialization — standing in for a process restart — and resume
//! bit-identically to an uninterrupted twin.

use lis_core::{Fabric, FleetBatch, FleetBuilder, FleetCheckpoint, SocFleet};
use lis_proto::{Pearl, StallPattern};
use lis_sim::WorkStealingPool;
use lis_wrappers::WrapperKind;

/// A 3-lane, two-IP gate-level fleet batch: packed shells, a packed
/// relay link between the IPs, and per-lane seeds/stalls.
fn build_batch() -> FleetBatch {
    let lanes = 3;
    let pearls = |n_in: usize| -> Vec<Box<dyn Pearl>> {
        (0..lanes)
            .map(|_| {
                Box::new(lis_proto::AccumulatorPearl::new("acc", n_in, 1, 2)) as Box<dyn Pearl>
            })
            .collect()
    };
    let mut b = FleetBuilder::new(lanes);
    let first = b.add_ip_full_netlist("first", pearls(1), WrapperKind::Sp);
    let second = b.add_ip_full_netlist("second", pearls(1), WrapperKind::Sp);
    b.link(&first.outputs[0], &second.inputs[0], 2);
    b.feed("src", &first.inputs[0], |lane| {
        (
            (1..=40u64).map(|v| v * (lane as u64 + 2)).collect(),
            StallPattern::from([0.0, 0.3, 0.15][lane]),
            500 + lane as u64,
        )
    });
    b.capture("out", &second.outputs[0], |lane| {
        (StallPattern::from([0.2, 0.0, 0.4][lane]), 600 + lane as u64)
    });
    b.build()
}

#[test]
fn fleet_checkpoint_survives_serde_round_trip() {
    let pool = WorkStealingPool::new(1);

    // Uninterrupted reference: 400 cycles straight through.
    let mut reference = SocFleet::new(vec![build_batch()]);
    reference.run(400, &pool).unwrap();

    // Interrupted run: snapshot mid-flight at 150 cycles, while tokens
    // are buffered in relays and the packed shells are mid-schedule.
    let mut first = SocFleet::new(vec![build_batch()]);
    first.run(150, &pool).unwrap();
    let snap = first.checkpoint();

    // Round-trip the checkpoint through JSON, as a process restart
    // would: the restored value must be structurally identical.
    let json = serde_json::to_string(&snap).expect("checkpoint serializes");
    let restored: FleetCheckpoint = serde_json::from_str(&json).expect("checkpoint deserializes");
    assert_eq!(restored, snap, "JSON round-trip altered the checkpoint");

    // Resume a freshly built fleet from the deserialized image and run
    // the remaining 250 cycles.
    let mut resumed = SocFleet::new(vec![build_batch()]);
    resumed.restore(&restored);
    assert_eq!(resumed.cycle(), 150, "restore must recover the cycle");
    resumed.run(250, &pool).unwrap();

    // Bit-identity bar: streams and violation counts match the
    // uninterrupted twin on every lane.
    for lane in 0..3 {
        assert_eq!(
            resumed.received("out", lane),
            reference.received("out", lane),
            "lane {lane} stream diverged after the serde round-trip"
        );
        assert_eq!(
            resumed.violations(lane),
            reference.violations(lane),
            "lane {lane} violations diverged"
        );
    }
    assert!(
        !reference.received("out", 0).is_empty(),
        "the reference run must actually deliver tokens"
    );
}
