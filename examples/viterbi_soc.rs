//! The paper's first workload, end to end: a convolutionally encoded
//! bitstream crosses a noisy channel, enters a Viterbi-decoder pearl
//! encapsulated behind the complete *gate-level* shell (the
//! synchronization-processor controller plus one FIFO per port, the
//! paper's Figure 2), and comes out decoded — across relay-station
//! latencies and source stalls.
//!
//! Run with: `cargo run --release --example viterbi_soc`

use latency_insensitive::core::SocBuilder;
use latency_insensitive::ip::{ConvEncoder, ViterbiPearl, VITERBI_FRAME_BITS};
use latency_insensitive::wrappers::WrapperKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2005);
    let frames = 3;

    // Prepare `frames` frames of random bits, encode, and flip one
    // channel bit per frame.
    let mut all_bits = Vec::new();
    let mut symbol_stream = Vec::new();
    for f in 0..frames {
        let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
        let mut coded = ConvEncoder::encode_block(&bits);
        let hit = rng.random_range(0..coded.len());
        coded[hit].0 = !coded[hit].0;
        for (a, b) in coded {
            symbol_stream.push(u64::from(a) | (u64::from(b) << 1));
        }
        all_bits.push(bits);
        println!("frame {f}: injected a channel error at symbol {hit}");
    }

    // Build the SoC: ctrl and symbol sources -> relayed links ->
    // Viterbi patient process in its gate-level shell -> sinks.
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

    let done = soc.run_until(200_000, |s| s.received("err").len() >= frames)?;
    assert!(done, "SoC did not finish in the cycle budget");
    println!("\nSoC finished after {} cycles", soc.cycle());
    println!("violations: {}", soc.violations());

    // Check every decoded frame.
    let data = soc.received("data");
    for (f, bits) in all_bits.iter().enumerate() {
        let words = [data[f * 2], data[f * 2 + 1]];
        let decoded: Vec<bool> = (0..VITERBI_FRAME_BITS)
            .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
            .collect();
        assert_eq!(&decoded, bits, "frame {f} must decode exactly");
        println!("frame {f}: decoded correctly ({} bits)", bits.len());
    }
    println!(
        "path metrics (1 = the injected error): {:?}",
        soc.received("err")
    );
    Ok(())
}
