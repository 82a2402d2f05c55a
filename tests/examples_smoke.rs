//! Smoke tests mirroring the core logic of every `examples/*.rs` flow,
//! so the examples cannot silently rot: each test builds the same SoC /
//! synthesis pipeline as its example (scaled down where the example is
//! sized for demo output) and asserts the tokens actually received.

use latency_insensitive::core::{synthesize_wrapper, SocBuilder, SpCompression};
use latency_insensitive::hdl::{
    capture_golden, emit_testbench, emit_verilog, emit_vhdl, parse_verilog,
};
use latency_insensitive::ip::{
    ConvEncoder, DataflowPearl, ReedSolomon, RsPearl, ViterbiPearl, K, N, T, VITERBI_FRAME_BITS,
};
use latency_insensitive::netlist::NetlistStats;
use latency_insensitive::proto::{AccumulatorPearl, Pearl};
use latency_insensitive::schedule::dataflow::{DataflowOp, DataflowProgram};
use latency_insensitive::schedule::{
    burst_buffer_requirements, compress, compress_bursty, PortSpec, ScheduleBuilder,
};
use latency_insensitive::synth::TechParams;
use latency_insensitive::wrappers::{generate_sp, FsmEncoding, WrapperKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `examples/quickstart.rs`: accumulator pearl behind an SP wrapper,
/// two bursty feeds, deterministic running sums, then synthesis.
#[test]
fn quickstart_flow() {
    let pearl = AccumulatorPearl::new("acc", 2, 1, 4);
    let schedule = pearl.schedule().clone();

    let mut b = SocBuilder::new();
    let ip = b.add_ip("acc", Box::new(pearl), WrapperKind::Sp);
    b.feed("xs", ip.inputs[0], (1..=10).map(|v| v * 100), 0.3, 42);
    b.feed("ys", ip.inputs[1], 1..=10, 0.2, 43);
    b.capture("sums", ip.outputs[0], 0.1, 44);
    let mut soc = b.build();
    soc.run(500).expect("SoC run");

    // Period k consumes (100k, k), so the running sum after k periods
    // is 101 * k(k+1)/2 — closed form for every received token.
    let sums = soc.received("sums");
    assert!(sums.len() >= 5, "expected several sums, got {sums:?}");
    assert!(sums.len() <= 10);
    for (i, &got) in sums.iter().enumerate() {
        let k = (i + 1) as u64;
        assert_eq!(got, 101 * k * (k + 1) / 2, "sum #{i}");
    }
    assert_eq!(soc.violations(), 0);

    let report = synthesize_wrapper(
        WrapperKind::Sp,
        &schedule,
        SpCompression::Safe,
        &TechParams::default(),
    )
    .expect("synthesize quickstart wrapper");
    assert!(report.report.area.slices > 0);
}

/// `examples/viterbi_soc.rs`: convolutionally encoded frames with one
/// injected channel error decode exactly through the gate-level
/// SP-wrapped Viterbi pearl.
#[test]
fn viterbi_soc_flow() {
    let mut rng = StdRng::seed_from_u64(2005);
    let frames = 2;

    let mut all_bits = Vec::new();
    let mut symbol_stream = Vec::new();
    for _ in 0..frames {
        let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
        let mut coded = ConvEncoder::encode_block(&bits);
        let hit = rng.random_range(0..coded.len());
        coded[hit].0 = !coded[hit].0;
        for (a, b) in coded {
            symbol_stream.push(u64::from(a) | (u64::from(b) << 1));
        }
        all_bits.push(bits);
    }

    let mut b = SocBuilder::new();
    let ip = b.add_ip_full_netlist("viterbi", Box::new(ViterbiPearl::new("v")), WrapperKind::Sp);
    let ctrl_stage = b.channel("ctrl_stage", 8);
    let sym_stage = b.channel("sym_stage", 2);
    b.feed(
        "ctrl",
        ctrl_stage,
        (0..frames as u64).map(|f| 0x10 + f),
        0.0,
        1,
    );
    b.feed("syms", sym_stage, symbol_stream, 0.25, 2);
    b.link(ctrl_stage, ip.inputs[0], 2);
    b.link(sym_stage, ip.inputs[1], 4);
    b.capture("data", ip.outputs[0], 0.0, 3);
    b.capture("status", ip.outputs[1], 0.0, 4);
    b.capture("err", ip.outputs[2], 0.0, 5);
    let mut soc = b.build();

    let done = soc
        .run_until(200_000, |s| s.received("err").len() >= frames)
        .expect("SoC run");
    assert!(done, "SoC did not finish in the cycle budget");
    assert_eq!(soc.violations(), 0);

    let data = soc.received("data");
    for (f, bits) in all_bits.iter().enumerate() {
        let words = [data[f * 2], data[f * 2 + 1]];
        let decoded: Vec<bool> = (0..VITERBI_FRAME_BITS)
            .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
            .collect();
        assert_eq!(&decoded, bits, "frame {f} must decode exactly");
    }
}

/// `examples/rs_pipeline.rs`: the streaming RS(255,239) decoder repairs
/// up to T symbol errors per codeword behind the SP wrapper.
#[test]
fn rs_pipeline_flow() {
    let rs = ReedSolomon::new();
    let mut rng = StdRng::seed_from_u64(239);
    let blocks = 2;

    let mut clean_stream: Vec<u64> = Vec::new();
    let mut noisy_stream: Vec<u64> = Vec::new();
    for _ in 0..blocks {
        let msg: Vec<u8> = (0..K).map(|_| rng.random()).collect();
        let cw = rs.encode(&msg);
        let mut noisy = cw.clone();
        let n_err = rng.random_range(1..=T);
        for _ in 0..n_err {
            let pos = rng.random_range(0..N);
            noisy[pos] ^= rng.random_range(1..=255) as u8;
        }
        clean_stream.extend(cw.iter().map(|&s| u64::from(s)));
        noisy_stream.extend(noisy.iter().map(|&s| u64::from(s)));
    }
    noisy_stream.extend(std::iter::repeat_n(0u64, N));

    let mut b = SocBuilder::new();
    let ip = b.add_ip("rs", Box::new(RsPearl::new("rs")), WrapperKind::Sp);
    b.feed("syms", ip.inputs[0], noisy_stream, 0.1, 11);
    b.feed("markers", ip.inputs[1], 0..1000, 0.0, 12);
    b.capture("corrected", ip.outputs[0], 0.0, 13);
    b.capture("status", ip.outputs[1], 0.0, 14);
    let mut soc = b.build();

    let want = (N - 1) + blocks * N;
    let done = soc
        .run_until(200_000, |s| s.received("corrected").len() >= want)
        .expect("SoC run");
    assert!(done, "SoC did not emit all corrected blocks in budget");

    let got = soc.received("corrected");
    let fill = N - 1;
    for blk in 0..blocks {
        assert_eq!(
            &got[fill + blk * N..fill + (blk + 1) * N],
            &clean_stream[blk * N..(blk + 1) * N],
            "block {blk} must be fully repaired"
        );
    }
}

/// `examples/hdl_export.rs`: SP controller → Verilog/VHDL text, Verilog
/// round-trip preserves the netlist census, and the self-checking
/// testbench captures golden cycles (all in memory — no files).
#[test]
fn hdl_export_flow() {
    let pearl = ViterbiPearl::new("viterbi");
    let program = compress_bursty(pearl.schedule());
    let module = generate_sp(&program).expect("generate SP controller");

    let verilog = emit_verilog(&module);
    let vhdl = emit_vhdl(&module);
    assert!(
        verilog.lines().count() > 10,
        "Verilog should be non-trivial"
    );
    assert!(vhdl.lines().count() > 10, "VHDL should be non-trivial");

    let parsed = parse_verilog(&verilog).expect("parse emitted Verilog");
    assert_eq!(NetlistStats::of(&parsed), NetlistStats::of(&module));

    let stimuli: Vec<Vec<u64>> = (0..24)
        .map(|t| vec![u64::from(t == 0), 0b11u64, 0b111u64])
        .collect();
    let cycles = capture_golden(&module, &stimuli);
    assert_eq!(cycles.len(), stimuli.len());
    let tb = emit_testbench(&module, &cycles);
    assert!(tb.contains("module"), "testbench should be Verilog text");
}

/// `examples/hls_flow.rs`: dataflow description → schedule → pearl →
/// SP-wrapped SoC producing the eight 8-point moving averages.
#[test]
fn hls_flow_flow() {
    let program = DataflowProgram::new(
        1,
        1,
        vec![
            DataflowOp::repeat(8, vec![DataflowOp::read(0)]),
            DataflowOp::compute(4),
            DataflowOp::write(0),
        ],
    );
    let schedule = program.lower().expect("lower dataflow program");
    assert!(compress(&schedule).len() >= compress_bursty(&schedule).len());

    let req = burst_buffer_requirements(&schedule);
    let _ = req.safe_with(2);

    let pearl = DataflowPearl::new(
        "avg8",
        vec![PortSpec::input("x", 32), PortSpec::output("y", 32)],
        &program,
        |collected| {
            let xs = &collected[0];
            let avg = xs.iter().sum::<u64>() / xs.len() as u64;
            vec![vec![avg]]
        },
    )
    .expect("build dataflow pearl");

    let mut b = SocBuilder::new();
    let ip = b.add_ip("avg8", Box::new(pearl), WrapperKind::Sp);
    b.feed("samples", ip.inputs[0], (1..=64).map(|v| v * 10), 0.2, 5);
    b.capture("avgs", ip.outputs[0], 0.0, 6);
    let mut soc = b.build();
    soc.run_until_quiescent(10_000, 50).expect("SoC run");

    // Window k averages samples 8k+1..=8k+8 (scaled by 10):
    // mean = 10 * (8k + 4.5) truncated.
    let avgs = soc.received("avgs");
    assert_eq!(avgs.len(), 8);
    for (k, &got) in avgs.iter().enumerate() {
        let base: u64 = (1..=8).map(|i| (k as u64 * 8 + i) * 10).sum();
        assert_eq!(got, base / 8, "average #{k}");
    }
    assert_eq!(soc.violations(), 0);
}

/// `examples/wrapper_explorer.rs`: all four wrapper models synthesize
/// on the same DSP-flavoured schedule, and the SP's cost is independent
/// of the quiet-period length while schedule-shaped wrappers grow.
#[test]
fn wrapper_explorer_flow() {
    let schedule = ScheduleBuilder::new(2, 2)
        .read(0)
        .repeat_io([1], [], 16)
        .quiet(100)
        .repeat_io([], [0], 8)
        .io([], [1])
        .build()
        .expect("build explorer schedule");

    let params = TechParams::default();
    for (kind, compression) in [
        (WrapperKind::Comb, SpCompression::Safe),
        (WrapperKind::Fsm(FsmEncoding::OneHot), SpCompression::Safe),
        (WrapperKind::Fsm(FsmEncoding::Binary), SpCompression::Safe),
        (WrapperKind::ShiftReg, SpCompression::Safe),
        (WrapperKind::Sp, SpCompression::Safe),
        (WrapperKind::Sp, SpCompression::Burst),
    ] {
        let w = synthesize_wrapper(kind, &schedule, compression, &params)
            .unwrap_or_else(|e| panic!("{kind:?}/{compression:?} failed: {e}"));
        assert!(
            w.report.area.slices > 0,
            "{kind:?} produced an empty wrapper"
        );
        assert!(w.report.timing.fmax_mhz > 0.0);
        if kind == WrapperKind::Sp {
            assert!(w.sp_ops.is_some());
        }
    }
}
