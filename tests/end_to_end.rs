//! Cross-crate integration tests: full SoCs built from real IP cores,
//! wrapped by generated controllers, communicating over relayed LIS
//! channels under irregular traffic.

use latency_insensitive::core::SocBuilder;
use latency_insensitive::ip::{
    ConvEncoder, ReedSolomon, RsPearl, ViterbiPearl, K, N, VITERBI_FRAME_BITS,
};
use latency_insensitive::wrappers::{FsmEncoding, WrapperKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One Viterbi frame: encode, add an error, decode through the SoC.
fn viterbi_frame_through_soc(kind: WrapperKind, hardware: bool, relays: usize) {
    let mut rng = StdRng::seed_from_u64(77);
    let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
    let mut coded = ConvEncoder::encode_block(&bits);
    coded[33].1 = !coded[33].1;
    let symbols: Vec<u64> = coded
        .iter()
        .map(|&(a, b)| u64::from(a) | (u64::from(b) << 1))
        .collect();

    let mut b = SocBuilder::new();
    let pearl = Box::new(ViterbiPearl::new("v"));
    let ip = if hardware {
        b.add_ip_full_netlist("viterbi", pearl, kind)
    } else {
        b.add_ip("viterbi", pearl, kind)
    };
    let ctrl_stage = b.channel("cs", 8);
    let sym_stage = b.channel("ss", 2);
    b.feed("ctrl", ctrl_stage, vec![1], 0.0, 1);
    b.feed("syms", sym_stage, symbols, 0.2, 2);
    b.link(ctrl_stage, ip.inputs[0], relays);
    b.link(sym_stage, ip.inputs[1], relays);
    b.capture("data", ip.outputs[0], 0.0, 3);
    b.capture("err", ip.outputs[2], 0.0, 4);
    let mut soc = b.build();
    let done = soc
        .run_until(50_000, |s| !s.received("err").is_empty())
        .unwrap();
    assert!(done, "frame not decoded in budget");
    assert_eq!(soc.violations(), 0);

    let data = soc.received("data");
    let decoded: Vec<bool> = (0..VITERBI_FRAME_BITS)
        .map(|i| (data[i / 64] >> (i % 64)) & 1 == 1)
        .collect();
    assert_eq!(decoded, bits);
    assert_eq!(soc.received("err"), vec![1], "path metric counts the error");
}

#[test]
fn viterbi_behavioural_sp() {
    viterbi_frame_through_soc(WrapperKind::Sp, false, 0);
}

#[test]
fn viterbi_hardware_sp_with_relays() {
    viterbi_frame_through_soc(WrapperKind::Sp, true, 3);
}

#[test]
fn viterbi_behavioural_fsm_with_relays() {
    viterbi_frame_through_soc(WrapperKind::Fsm(FsmEncoding::OneHot), false, 2);
}

#[test]
fn viterbi_hardware_fsm() {
    viterbi_frame_through_soc(WrapperKind::Fsm(FsmEncoding::Binary), true, 1);
}

#[test]
fn rs_stream_corrected_through_soc() {
    let rs = ReedSolomon::new();
    let mut rng = StdRng::seed_from_u64(88);
    let blocks = 2;
    let mut clean = Vec::new();
    let mut noisy = Vec::new();
    for _ in 0..blocks {
        let msg: Vec<u8> = (0..K).map(|_| rng.random()).collect();
        let cw = rs.encode(&msg);
        let mut bad = cw.clone();
        for _ in 0..5 {
            let pos = rng.random_range(0..N);
            bad[pos] ^= rng.random_range(1..=255) as u8;
        }
        clean.extend(cw.iter().map(|&s| u64::from(s)));
        noisy.extend(bad.iter().map(|&s| u64::from(s)));
    }
    // The streaming decoder emits block b while block b+1 arrives; feed
    // one flush block so the last real block drains.
    noisy.extend(std::iter::repeat_n(0u64, N));

    let mut b = SocBuilder::new();
    let ip = b.add_ip("rs", Box::new(RsPearl::new("rs")), WrapperKind::Sp);
    b.feed("syms", ip.inputs[0], noisy, 0.15, 5);
    b.feed("markers", ip.inputs[1], 0..100, 0.0, 6);
    b.capture("out", ip.outputs[0], 0.1, 7);
    let mut soc = b.build();
    let want = (N - 1) + blocks * N;
    let done = soc
        .run_until(100_000, |s| s.received("out").len() >= want)
        .unwrap();
    assert!(done);
    assert_eq!(soc.violations(), 0);

    let got = soc.received("out");
    let fill = N - 1;
    for blk in 0..blocks {
        assert_eq!(
            &got[fill + blk * N..fill + (blk + 1) * N],
            &clean[blk * N..(blk + 1) * N],
            "block {blk}"
        );
    }
}

#[test]
fn two_ip_chain_viterbi_feeds_checksum() {
    // Viterbi output words stream into a second (accumulator) IP —
    // a two-patient-process system over relayed channels.
    use latency_insensitive::proto::AccumulatorPearl;

    let mut rng = StdRng::seed_from_u64(99);
    let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
    let coded = ConvEncoder::encode_block(&bits);
    let symbols: Vec<u64> = coded
        .iter()
        .map(|&(a, b)| u64::from(a) | (u64::from(b) << 1))
        .collect();

    let mut b = SocBuilder::new();
    let vit = b.add_ip("viterbi", Box::new(ViterbiPearl::new("v")), WrapperKind::Sp);
    let acc = b.add_ip(
        "checksum",
        Box::new(AccumulatorPearl::new("acc", 1, 1, 0)),
        WrapperKind::Fsm(FsmEncoding::OneHot),
    );
    b.feed("ctrl", vit.inputs[0], vec![7], 0.0, 1);
    b.feed("syms", vit.inputs[1], symbols, 0.1, 2);
    b.link(vit.outputs[0], acc.inputs[0], 2);
    b.capture("sum", acc.outputs[0], 0.0, 3);
    b.capture("status", vit.outputs[1], 0.0, 4);
    b.capture("err", vit.outputs[2], 0.0, 5);
    let mut soc = b.build();
    let done = soc
        .run_until(50_000, |s| s.received("sum").len() >= 2)
        .unwrap();
    assert!(done);
    assert_eq!(soc.violations(), 0);

    // The checksum IP received the two decoded data words, truncated to
    // its 32-bit ports by the narrower channel.
    let mut words = [0u64; 2];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    let w0 = words[0] & 0xFFFF_FFFF;
    let w1 = words[1] & 0xFFFF_FFFF;
    let sums = soc.received("sum");
    assert_eq!(sums[0], w0);
    assert_eq!(sums[1], (w0 + w1) & 0xFFFF_FFFF);
}

#[test]
fn viterbi_full_gate_level_shell_with_relays() {
    // The complete shell — SP controller AND port FIFOs — interpreted
    // gate by gate, decoding a real frame across relayed channels.
    let mut rng = StdRng::seed_from_u64(123);
    let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
    let mut coded = ConvEncoder::encode_block(&bits);
    coded[50].0 = !coded[50].0;
    let symbols: Vec<u64> = coded
        .iter()
        .map(|&(a, b)| u64::from(a) | (u64::from(b) << 1))
        .collect();

    let mut b = SocBuilder::new();
    let ip = b.add_ip_full_netlist("viterbi", Box::new(ViterbiPearl::new("v")), WrapperKind::Sp);
    let ctrl_stage = b.channel("cs", 8);
    let sym_stage = b.channel("ss", 2);
    b.feed("ctrl", ctrl_stage, vec![9], 0.0, 1);
    b.feed("syms", sym_stage, symbols, 0.15, 2);
    b.link(ctrl_stage, ip.inputs[0], 2);
    b.link(sym_stage, ip.inputs[1], 3);
    b.capture("data", ip.outputs[0], 0.0, 3);
    b.capture("err", ip.outputs[2], 0.0, 4);
    let mut soc = b.build();
    let done = soc
        .run_until(80_000, |s| !s.received("err").is_empty())
        .unwrap();
    assert!(done);
    assert_eq!(soc.violations(), 0);
    let data = soc.received("data");
    let decoded: Vec<bool> = (0..VITERBI_FRAME_BITS)
        .map(|i| (data[i / 64] >> (i % 64)) & 1 == 1)
        .collect();
    assert_eq!(decoded, bits);
    assert_eq!(soc.received("err"), vec![1]);
}

#[test]
fn matmul_through_netlist_controlled_soc() {
    use latency_insensitive::ip::{MatMulPearl, MATMUL_DIM};

    let a: Vec<u64> = (1..=16).collect();
    let bm: Vec<u64> = (21..=36).collect();
    let mut reference = vec![0u64; 16];
    for i in 0..MATMUL_DIM {
        for j in 0..MATMUL_DIM {
            for k in 0..MATMUL_DIM {
                reference[i * 4 + j] =
                    reference[i * 4 + j].wrapping_add(a[i * 4 + k].wrapping_mul(bm[k * 4 + j]));
            }
        }
    }

    let mut b = SocBuilder::new();
    let ip = b.add_ip_full_netlist("mm", Box::new(MatMulPearl::new("mm")), WrapperKind::Sp);
    b.feed("a", ip.inputs[0], a, 0.2, 6);
    b.feed("b", ip.inputs[1], bm, 0.3, 7);
    b.capture("c", ip.outputs[0], 0.1, 8);
    let mut soc = b.build();
    let done = soc
        .run_until(20_000, |s| s.received("c").len() >= 16)
        .unwrap();
    assert!(done);
    assert_eq!(soc.violations(), 0);
    assert_eq!(soc.received("c"), reference);
}

#[test]
fn crc_frames_through_full_gate_level_shell() {
    use latency_insensitive::ip::{crc32, CrcPearl, CRC_FRAME_BYTES};

    let mut rng = StdRng::seed_from_u64(321);
    let data: Vec<u8> = (0..3 * CRC_FRAME_BYTES).map(|_| rng.random()).collect();

    let mut b = SocBuilder::new();
    let ip = b.add_ip_full_netlist("crc", Box::new(CrcPearl::new("crc")), WrapperKind::Sp);
    b.feed(
        "bytes",
        ip.inputs[0],
        data.iter().map(|&x| u64::from(x)),
        0.2,
        9,
    );
    b.capture("crcs", ip.outputs[0], 0.1, 10);
    let mut soc = b.build();
    let done = soc
        .run_until(30_000, |s| s.received("crcs").len() >= 3)
        .unwrap();
    assert!(done);
    assert_eq!(soc.violations(), 0);
    let got: Vec<u32> = soc.received("crcs").iter().map(|&v| v as u32).collect();
    let expect: Vec<u32> = data.chunks(CRC_FRAME_BYTES).map(crc32).collect();
    assert_eq!(got, expect);
}

#[test]
fn comb_wrapper_requires_traffic_on_all_ports() {
    // With the comb wrapper, the Viterbi pearl cannot make progress
    // because its ctrl port is idle for 201 of 202 cycles — exactly the
    // over-synchronization the paper's §2 criticizes. The SP sails
    // through the same traffic.
    let mut rng = StdRng::seed_from_u64(111);
    let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
    let coded = ConvEncoder::encode_block(&bits);
    let symbols: Vec<u64> = coded
        .iter()
        .map(|&(a, b)| u64::from(a) | (u64::from(b) << 1))
        .collect();

    let frames_decoded = |kind: WrapperKind| {
        let mut b = SocBuilder::new();
        let ip = b.add_ip("viterbi", Box::new(ViterbiPearl::new("v")), kind);
        b.feed("ctrl", ip.inputs[0], vec![1], 0.0, 1);
        b.feed("syms", ip.inputs[1], symbols.clone(), 0.0, 2);
        b.capture("err", ip.outputs[2], 0.0, 3);
        let mut soc = b.build();
        soc.run(3000).unwrap();
        soc.received("err").len()
    };
    assert_eq!(frames_decoded(WrapperKind::Sp), 1);
    assert_eq!(frames_decoded(WrapperKind::Comb), 0);
}
