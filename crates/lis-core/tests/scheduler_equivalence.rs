//! Property tests pinning the activity kernel to the full-sweep
//! reference settle on *randomized SoCs*: random pearl pipelines
//! (behavioural and gate-level wrappers), random relay/wire link
//! latencies, serializer/deserializer width conversions, and random
//! stall patterns — seeded-random and clock-scheduled periodic —
//! stepped cycle by cycle with every signal compared after each settle,
//! plus `run`'s event-wheel jumps compared against a stepped twin at
//! chunk boundaries.

use lis_core::SocBuilder;
use lis_proto::{AccumulatorPearl, Deserializer, Lanes, LisChannel, Serializer, StallPattern};
use lis_sim::SettleMode;
use lis_wrappers::WrapperKind;
use proptest::prelude::*;

/// One random SoC description, buildable repeatedly.
#[derive(Debug, Clone)]
struct SocSpec {
    chains: Vec<ChainSpec>,
}

#[derive(Debug, Clone)]
struct ChainSpec {
    stages: Vec<StageSpec>,
    src_stall: f64,
    sink_stall: f64,
    /// When set, the source stalls on a clock-scheduled `(on, period,
    /// phase)` duty cycle instead of the random probability.
    src_periodic: Option<(u64, u64, u64)>,
    /// As above, for the sink — the pattern that lets the endpoint
    /// declare its wake-up time to the event wheel.
    sink_periodic: Option<(u64, u64, u64)>,
    seed: u64,
    /// Insert a serializer/deserializer width conversion after stage 0.
    serdes: bool,
}

fn pattern_of(random: f64, periodic: Option<(u64, u64, u64)>) -> StallPattern {
    match periodic {
        Some((on, period, phase)) => StallPattern::Periodic { on, period, phase },
        None => StallPattern::from(random),
    }
}

#[derive(Debug, Clone)]
struct StageSpec {
    kind_sel: u8,
    /// Gate-level shell instead of the behavioural wrapper.
    hardware: bool,
    relays: usize,
    extra_wires: usize,
}

/// The wrapper of a stage. The gate-level shell runs only SP and FSM
/// controllers (a comb controller pops and pushes off the pearl's
/// schedule), so a hardware stage draws from those two.
fn wrapper_kind(sel: u8, hardware: bool) -> WrapperKind {
    let kinds = [
        WrapperKind::Sp,
        WrapperKind::Fsm(Default::default()),
        WrapperKind::Comb,
    ];
    let choices = if hardware { 2 } else { kinds.len() };
    kinds[usize::from(sel) % choices]
}

fn build(spec: &SocSpec, mode: SettleMode) -> lis_core::Soc {
    let mut b = SocBuilder::new();
    b.set_settle_mode(mode);
    for (c, chain) in spec.chains.iter().enumerate() {
        let mut upstream: Option<LisChannel> = None;
        for (d, stage) in chain.stages.iter().enumerate() {
            let name = format!("p{c}_{d}");
            let pearl = Box::new(AccumulatorPearl::new("acc", 1, 1, 0));
            let kind = wrapper_kind(stage.kind_sel, stage.hardware);
            let ip = if stage.hardware {
                b.add_ip_full_netlist(name, pearl, kind)
            } else {
                b.add_ip(name, pearl, kind)
            };
            match upstream {
                None => b.feed(
                    format!("src{c}"),
                    ip.inputs[0],
                    1..=500,
                    pattern_of(chain.src_stall, chain.src_periodic),
                    chain.seed,
                ),
                Some(prev) => {
                    let mut cur = prev;
                    if d == 1 && chain.serdes {
                        // Wide → narrow → wide round trip on the link.
                        let narrow = b.channel(&format!("n{c}_{d}"), 8);
                        let wide = b.channel(&format!("rw{c}_{d}"), 32);
                        let ser = Serializer::new(format!("ser{c}"), cur, narrow);
                        let des = Deserializer::new(format!("des{c}"), narrow, wide);
                        b.system_mut().add_component(ser);
                        b.system_mut().add_component(des);
                        cur = wide;
                    }
                    for w in 0..stage.extra_wires {
                        let next = b.channel(&format!("w{c}_{d}_{w}"), 32);
                        b.link(cur, next, 0);
                        cur = next;
                    }
                    b.link(cur, ip.inputs[0], stage.relays);
                }
            }
            upstream = Some(ip.outputs[0]);
        }
        b.capture(
            format!("out{c}"),
            upstream.expect("at least one stage"),
            pattern_of(chain.sink_stall, chain.sink_periodic),
            chain.seed ^ 0xA5A5,
        );
    }
    b.build()
}

fn stage_strategy() -> impl Strategy<Value = StageSpec> {
    (0u8..3, any::<u8>(), 0usize..3, 0usize..3).prop_map(|(kind_sel, hw, relays, extra_wires)| {
        StageSpec {
            kind_sel,
            // Gate-level shells are the expensive minority.
            hardware: hw < 77,
            relays,
            extra_wires,
        }
    })
}

fn periodic_strategy() -> impl Strategy<Value = Option<(u64, u64, u64)>> {
    // ~35% of endpoints get a scheduled duty cycle: on in 0..6 (0 =
    // permanently stalled), period = on + 1..24 slack, random phase
    // folded into the period (construction rejects phase >= period).
    (any::<u8>(), 0u64..6, 1u64..24, 0u64..32).prop_map(|(sel, on, slack, phase)| {
        (sel < 90).then_some((on, on + slack, phase % (on + slack)))
    })
}

fn chain_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        (
            prop::collection::vec(stage_strategy(), 1..4),
            0.0f64..0.5,
            0.0f64..0.5,
        ),
        (
            periodic_strategy(),
            periodic_strategy(),
            any::<u64>(),
            any::<u8>(),
        ),
    )
        .prop_map(
            |((stages, src_stall, sink_stall), (src_periodic, sink_periodic, seed, serdes))| {
                ChainSpec {
                    stages,
                    src_stall,
                    sink_stall,
                    src_periodic,
                    sink_periodic,
                    seed,
                    serdes: serdes < 77,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The activity kernel — cross-cycle quiescence skipping plus the
    /// selective tick phase — matches the full sweep cycle for cycle on
    /// every signal of a random SoC
    /// (behavioural and gate-level shells, relays, serdes, random
    /// stalls), with identical streams and violation counts. Sources
    /// dry up and sinks stall mid-run, so real quiescence windows are
    /// exercised, not just the steady stream.
    #[test]
    fn random_socs_settle_identically(
        chains in prop::collection::vec(chain_strategy(), 1..3),
        cycles in 40u64..120,
    ) {
        let spec = SocSpec { chains };
        let mut reference = build(&spec, SettleMode::FullSweep);
        let mut activity = build(&spec, SettleMode::FastForward);
        for cycle in 0..cycles {
            reference.run(1).unwrap();
            activity.run(1).unwrap();
            prop_assert_eq!(
                reference.system().signal_values(),
                activity.system().signal_values(),
                "activity vs full-sweep divergence at cycle {}", cycle
            );
        }
        for c in 0..spec.chains.len() {
            let name = format!("out{c}");
            prop_assert_eq!(reference.received(&name), activity.received(&name));
        }
        prop_assert_eq!(reference.violations(), activity.violations());
    }

    /// The event wheel on random SoCs: `run` in fixed-size chunks
    /// against a `step()`-only loop of the same kernel, comparing the
    /// cycle counter and every signal at each chunk boundary (`run` may
    /// have jumped dead spans inside the chunk — the boundary state must
    /// be indistinguishable), then the delivered streams, violation
    /// counts, and the executed-work counters, which must match exactly.
    /// Periodic source/sink schedules make real whole-system quiescence
    /// windows — and thus real jumps — common.
    #[test]
    fn fast_forward_socs_settle_identically(
        chains in prop::collection::vec(chain_strategy(), 1..3),
        chunks in 4u64..12,
        chunk_len in 5u64..16,
    ) {
        let spec = SocSpec { chains };
        let mut activity = build(&spec, SettleMode::FastForward);
        let mut ff = build(&spec, SettleMode::FastForward);
        for chunk in 0..chunks {
            for _ in 0..chunk_len {
                activity.system_mut().step().unwrap();
            }
            ff.run(chunk_len).unwrap();
            prop_assert_eq!(activity.cycle(), ff.cycle());
            prop_assert_eq!(
                activity.system().signal_values(),
                ff.system().signal_values(),
                "fast-forward divergence after chunk {} (cycle {})",
                chunk, ff.cycle()
            );
        }
        for c in 0..spec.chains.len() {
            let name = format!("out{c}");
            prop_assert_eq!(activity.received(&name), ff.received(&name));
        }
        prop_assert_eq!(activity.violations(), ff.violations());
        let ad = activity.scheduler_stats();
        let fs = ff.scheduler_stats();
        prop_assert_eq!(
            (ad.groups_evaluated, ad.components_ticked),
            (fs.groups_evaluated, fs.components_ticked),
            "jumping must execute exactly the stepped kernel's work"
        );
        prop_assert_eq!(ad.cycles_fast_forwarded, 0, "step() alone never jumps");
    }
}

/// The satellite regression: a deliberate combinational `stop` loop
/// with no relay station in it must be reported as a named
/// non-convergence, not simulated into garbage.
#[test]
fn stop_loop_without_relay_station_is_named() {
    use lis_sim::{FnComponent, Ports, SignalView, System};
    let mut sys = System::new();
    let a = LisChannel::new(&mut sys, "a", 8);
    let b = LisChannel::new(&mut sys, "b", 8);
    // Two combinational shells wired head-to-tail: each forwards the
    // other's back-pressure, one inverting — the stop wires oscillate
    // forever. A relay station (registered stop) would break the loop.
    sys.add_component(FnComponent::new(
        "shell_ab",
        Ports::none()
            .merge(a.stop_reads())
            .merge(b.consumer_ports()),
        move |s: &mut SignalView<'_>| {
            let stop = a.read_stop(s);
            b.write_stop(s, !stop);
        },
        |_| {},
    ));
    sys.add_component(FnComponent::new(
        "shell_ba",
        Ports::none()
            .merge(b.stop_reads())
            .merge(a.consumer_ports()),
        move |s: &mut SignalView<'_>| {
            let stop = b.read_stop(s);
            a.write_stop(s, stop);
        },
        |_| {},
    ));
    let err = sys.settle().unwrap_err();
    match &err {
        lis_sim::SimError::NoConvergence {
            components, cycle, ..
        } => {
            assert_eq!(*cycle, 0);
            assert_eq!(components, &["shell_ab", "shell_ba"]);
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
    assert!(
        err.to_string().contains("shell_ab, shell_ba"),
        "error must name the loop: {err}"
    );
}
