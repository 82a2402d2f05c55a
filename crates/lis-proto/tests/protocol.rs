//! Protocol property tests: relay-station chains of any length, under
//! any stall pattern on both ends, never lose, duplicate or reorder a
//! token — the invariant the whole LIS methodology rests on.

use lis_proto::{LisChannel, RelayStation, TokenSink, TokenSource, ViolationCounter};
use lis_sim::System;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relay_chains_preserve_streams(
        chain_len in 0usize..10,
        src_stall in 0.0f64..0.7,
        sink_stall in 0.0f64..0.7,
        seed in any::<u64>(),
        n_tokens in 1u64..60,
    ) {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let head = LisChannel::new(&mut sys, "head", 32);
        sys.add_component(
            TokenSource::new("src", head, 1..=n_tokens).with_stalls(src_stall, seed),
        );
        let tail = RelayStation::chain(&mut sys, "chain", head, chain_len, &violations);
        let sink = TokenSink::new("sink", tail).with_stalls(sink_stall, seed ^ 0x5A5A);
        let got = sink.received(0);
        sys.add_component(sink);

        // Generous budget: worst case ~(1/(1-p))² slowdown plus latency.
        sys.run(40 * n_tokens + 20 * chain_len as u64 + 200).unwrap();

        prop_assert_eq!(violations.count(), 0, "no token may ever be dropped");
        let received = got.lock().unwrap().clone();
        prop_assert_eq!(
            received,
            (1..=n_tokens).collect::<Vec<u64>>(),
            "stream must arrive complete, in order, exactly once"
        );
    }

    /// Two chains with different lengths deliver latency-equivalent
    /// streams (the formal LIS property, directly).
    #[test]
    fn different_latencies_are_latency_equivalent(
        len_a in 0usize..6,
        len_b in 0usize..6,
        stall in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let run = |chain_len: usize| {
            let mut sys = System::new();
            let violations = ViolationCounter::new();
            let head = LisChannel::new(&mut sys, "h", 16);
            sys.add_component(
                TokenSource::new("src", head, 10..=40).with_stalls(stall, seed),
            );
            let tail = RelayStation::chain(&mut sys, "c", head, chain_len, &violations);
            let sink = TokenSink::new("k", tail);
            let got = sink.received(0);
            sys.add_component(sink);
            sys.run(2000).unwrap();
            let result = got.lock().unwrap().clone();
            (result, violations.count())
        };
        let (a, va) = run(len_a);
        let (b, vb) = run(len_b);
        prop_assert_eq!(va + vb, 0);
        prop_assert_eq!(a, b);
    }
}
