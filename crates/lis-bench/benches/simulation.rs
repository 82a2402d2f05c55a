//! Simulation-kernel benches: cycles/second of the behavioural SoC and
//! of the same SoC with the IP in its complete gate-level shell (the
//! infrastructure every experiment stands on).

use criterion::{criterion_group, criterion_main, Criterion};
use lis_core::SocBuilder;
use lis_proto::AccumulatorPearl;
use lis_wrappers::WrapperKind;

fn behavioural_soc_1000_cycles() {
    let mut b = SocBuilder::new();
    let ip = b.add_ip(
        "acc",
        Box::new(AccumulatorPearl::new("acc", 2, 1, 3)),
        WrapperKind::Sp,
    );
    b.feed("s0", ip.inputs[0], 1..=100_000, 0.1, 3);
    b.feed("s1", ip.inputs[1], 1..=100_000, 0.1, 4);
    b.capture("out", ip.outputs[0], 0.1, 5);
    let mut soc = b.build();
    soc.run(1000).unwrap();
    assert_eq!(soc.violations(), 0);
}

fn netlist_soc_1000_cycles() {
    let mut b = SocBuilder::new();
    let ip = b.add_ip_full_netlist(
        "acc",
        Box::new(AccumulatorPearl::new("acc", 2, 1, 3)),
        WrapperKind::Sp,
    );
    b.feed("s0", ip.inputs[0], 1..=100_000, 0.1, 3);
    b.feed("s1", ip.inputs[1], 1..=100_000, 0.1, 4);
    b.capture("out", ip.outputs[0], 0.1, 5);
    let mut soc = b.build();
    soc.run(1000).unwrap();
    assert_eq!(soc.violations(), 0);
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.bench_function("behavioural_soc_1000_cycles", |b| {
        b.iter(behavioural_soc_1000_cycles)
    });
    group.bench_function("netlist_soc_1000_cycles", |b| {
        b.iter(netlist_soc_1000_cycles)
    });
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
