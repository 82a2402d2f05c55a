//! The paper's IP cores as LIS pearls, with the Table 1 scenarios.
//!
//! | Pearl | Ports | SP operations | max run | period | Paper row |
//! |---|---|---|---|---|---|
//! | [`ViterbiPearl`] | 5 | 4 (burst) | 198 | 202 | "Viterbi 5 / 4 / 198" |
//! | [`RsPearl`] | 4 | 2958 | 1 | 2958 | "RS 4 / 2957 / 1" |
//!
//! The Viterbi scenario uses *burst* operations
//! ([`lis_schedule::compress_bursty`]): one synchronization per phase,
//! with streaming I/O during the run. The RS scenario synchronizes every
//! cycle (run = 1 everywhere) — the case where an FSM wrapper needs
//! thousands of states while the SP stays constant-size.

use crate::rs::{DecodeOutcome, ReedSolomon, N};
use crate::viterbi::viterbi_decode;
use lis_proto::{Pearl, PortValues};
use lis_schedule::{Interface, IoSchedule, PortSpec, ScheduleBuilder};

/// Number of symbol pairs per Viterbi frame (97 data bits + 2 tail).
pub const VITERBI_FRAME_SYMBOLS: usize = 99;
/// Data bits recovered per Viterbi frame.
pub const VITERBI_FRAME_BITS: usize = VITERBI_FRAME_SYMBOLS - 2;

/// The Viterbi decoder pearl: 5 ports, 202-cycle period, 4 burst
/// operations with runs up to 198.
///
/// Scenario per period: read a control word; stream in 99 hard-decision
/// symbol pairs; run the add-compare-select recursion and traceback for
/// 99 cycles; stream out the 97 decoded bits as two 64-bit words; emit a
/// status word and the path metric.
#[derive(Debug)]
pub struct ViterbiPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    step: usize,
    frame: u64,
    ctrl: u64,
    symbols: Vec<(bool, bool)>,
    decoded: [u64; 2],
    metric: u32,
}

impl ViterbiPearl {
    /// Creates the pearl.
    pub fn new(name: impl Into<String>) -> Self {
        let interface = Interface::new(vec![
            PortSpec::input("ctrl", 8),
            PortSpec::input("sym", 2),
            PortSpec::output("data", 64),
            PortSpec::output("status", 16),
            PortSpec::output("err", 16),
        ]);
        // in:  0 = ctrl, 1 = sym;   out: 0 = data, 1 = status, 2 = err.
        let schedule = ScheduleBuilder::new(2, 3)
            .read(0)
            .repeat_io([1], [], VITERBI_FRAME_SYMBOLS)
            .quiet(VITERBI_FRAME_SYMBOLS)
            .repeat_io([], [0], 2)
            .io([], [1, 2])
            .build()
            .expect("viterbi schedule is valid");
        debug_assert_eq!(schedule.period(), 202);
        ViterbiPearl {
            name: name.into(),
            interface,
            schedule,
            step: 0,
            frame: 0,
            ctrl: 0,
            symbols: Vec::with_capacity(VITERBI_FRAME_SYMBOLS),
            decoded: [0; 2],
            metric: 0,
        }
    }
}

impl Pearl for ViterbiPearl {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> &Interface {
        &self.interface
    }

    fn schedule(&self) -> &IoSchedule {
        &self.schedule
    }

    fn clock(&mut self, inputs: &PortValues, out: &mut PortValues) {
        let io = self.schedule.at(self.step);
        if io.reads.contains(0) {
            self.ctrl = inputs.get(0).expect("scheduled ctrl");
            self.symbols.clear();
        }
        if io.reads.contains(1) {
            let s = inputs.get(1).expect("scheduled symbol");
            self.symbols.push((s & 1 == 1, (s >> 1) & 1 == 1));
        }
        // The heavy lifting happens on the last compute cycle (the
        // simulator charges 99 quiet cycles for it, as GAUT's datapath
        // schedule does).
        if self.step == 1 + VITERBI_FRAME_SYMBOLS + VITERBI_FRAME_SYMBOLS - 1 {
            let (bits, metric) = viterbi_decode(&self.symbols);
            self.metric = metric;
            self.decoded = [0; 2];
            for (i, &bit) in bits.iter().enumerate() {
                if bit {
                    self.decoded[i / 64] |= 1 << (i % 64);
                }
            }
        }
        if io.writes.contains(0) {
            // Two data cycles: step 200 is the first of the two.
            let word_idx = usize::from(self.step == 200);
            out.set(0, self.decoded[word_idx]);
        }
        if io.writes.contains(1) {
            out.set(1, (self.frame & 0xFF) << 8 | (self.ctrl & 0xFF));
        }
        if io.writes.contains(2) {
            out.set(2, u64::from(self.metric) & 0xFFFF);
            self.frame += 1;
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.frame = 0;
        self.ctrl = 0;
        self.symbols.clear();
        self.decoded = [0; 2];
        self.metric = 0;
    }
}

/// Super-frame length of the RS streaming scenario (the paper's RS row:
/// 2957 synchronization points with run 1; ours is 2958 cycles, all of
/// them synchronization points).
pub const RS_PERIOD: usize = 2958;

/// The Reed-Solomon RS(255,239) decoder pearl: 4 ports, 2958-cycle
/// period, one synchronization per cycle (run = 1 — the FSM-hostile
/// case).
///
/// Streaming operation: every cycle ingests one received symbol and
/// emits one corrected symbol with a 255-symbol pipeline delay (zeros
/// during initial fill). Whole blocks are decoded at block boundaries.
/// Once per super-frame it consumes a frame marker and reports the
/// cumulative corrected-error count.
#[derive(Debug)]
pub struct RsPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    codec: ReedSolomon,
    step: usize,
    inbuf: Vec<u8>,
    outbuf: std::collections::VecDeque<u8>,
    corrected_total: u64,
    failures: u64,
}

impl RsPearl {
    /// Creates the pearl.
    pub fn new(name: impl Into<String>) -> Self {
        let interface = Interface::new(vec![
            PortSpec::input("sym_in", 8),
            PortSpec::input("marker", 8),
            PortSpec::output("sym_out", 8),
            PortSpec::output("status", 16),
        ]);
        // in: 0 = sym_in, 1 = marker;  out: 0 = sym_out, 1 = status.
        let schedule = ScheduleBuilder::new(2, 2)
            .io([1], [1])
            .repeat_io([0], [0], RS_PERIOD - 1)
            .build()
            .expect("rs schedule is valid");
        debug_assert_eq!(schedule.period(), RS_PERIOD);
        debug_assert_eq!(schedule.sync_points(), RS_PERIOD);
        RsPearl {
            name: name.into(),
            interface,
            schedule,
            codec: ReedSolomon::new(),
            step: 0,
            inbuf: Vec::with_capacity(N),
            outbuf: std::collections::VecDeque::new(),
            corrected_total: 0,
            failures: 0,
        }
    }

    /// Cumulative corrected symbol count.
    pub fn corrected_total(&self) -> u64 {
        self.corrected_total
    }
}

impl Pearl for RsPearl {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> &Interface {
        &self.interface
    }

    fn schedule(&self) -> &IoSchedule {
        &self.schedule
    }

    fn clock(&mut self, inputs: &PortValues, out: &mut PortValues) {
        let io = self.schedule.at(self.step);
        if io.reads.contains(1) {
            let _frame_id = inputs.get(1).expect("scheduled marker");
        }
        if io.reads.contains(0) {
            let sym = inputs.get(0).expect("scheduled symbol") as u8;
            self.inbuf.push(sym);
            if self.inbuf.len() == N {
                let mut block = std::mem::take(&mut self.inbuf);
                match self.codec.decode(&mut block) {
                    DecodeOutcome::Corrected { corrected } => {
                        self.corrected_total += corrected as u64;
                    }
                    DecodeOutcome::Failure => self.failures += 1,
                    DecodeOutcome::Clean => {}
                }
                self.outbuf.extend(block);
            }
        }
        if io.writes.contains(0) {
            out.set(0, u64::from(self.outbuf.pop_front().unwrap_or(0)));
        }
        if io.writes.contains(1) {
            out.set(
                1,
                (self.corrected_total & 0xFF) << 8 | (self.failures & 0xFF),
            );
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.inbuf.clear();
        self.outbuf.clear();
        self.corrected_total = 0;
        self.failures = 0;
    }
}

/// A 16-tap FIR filter pearl (extra workload for examples and sweeps):
/// read a sample, compute for two cycles, write the filtered value.
#[derive(Debug)]
pub struct FirPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    taps: Vec<i32>,
    delay_line: Vec<i32>,
    step: usize,
    pending: i64,
}

impl FirPearl {
    /// Creates the filter with the given integer taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(name: impl Into<String>, taps: Vec<i32>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let interface = Interface::new(vec![PortSpec::input("x", 16), PortSpec::output("y", 32)]);
        let schedule = ScheduleBuilder::new(1, 1)
            .read(0)
            .quiet(2)
            .write(0)
            .build()
            .expect("fir schedule is valid");
        let n = taps.len();
        FirPearl {
            name: name.into(),
            interface,
            schedule,
            taps,
            delay_line: vec![0; n],
            step: 0,
            pending: 0,
        }
    }
}

impl Pearl for FirPearl {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> &Interface {
        &self.interface
    }

    fn schedule(&self) -> &IoSchedule {
        &self.schedule
    }

    fn clock(&mut self, inputs: &PortValues, out: &mut PortValues) {
        let io = self.schedule.at(self.step);
        if io.reads.contains(0) {
            let raw = inputs.get(0).expect("scheduled sample") as u16 as i16;
            self.delay_line.rotate_right(1);
            self.delay_line[0] = i32::from(raw);
            self.pending = self
                .taps
                .iter()
                .zip(&self.delay_line)
                .map(|(&t, &x)| i64::from(t) * i64::from(x))
                .sum();
        }
        if io.writes.contains(0) {
            out.set(0, (self.pending as i32) as u32 as u64);
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.delay_line.iter_mut().for_each(|x| *x = 0);
        self.step = 0;
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvEncoder;
    use crate::rs::K;
    use lis_schedule::{compress, compress_bursty};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn viterbi_pearl_matches_paper_configuration() {
        let p = ViterbiPearl::new("vit");
        assert_eq!(p.interface().port_count(), 5, "Table 1: 5 ports");
        assert_eq!(p.schedule().period(), 202);
        let burst = compress_bursty(p.schedule());
        assert_eq!(burst.len(), 4, "Table 1: 4 waits");
        assert_eq!(burst.max_run(), 198, "Table 1: run 198");
    }

    #[test]
    fn rs_pearl_matches_paper_configuration() {
        let p = RsPearl::new("rs");
        assert_eq!(p.interface().port_count(), 4, "Table 1: 4 ports");
        assert_eq!(p.schedule().period(), RS_PERIOD);
        let prog = compress(p.schedule());
        assert_eq!(prog.len(), RS_PERIOD, "paper: 2957 waits — ours 2958");
        assert_eq!(prog.max_run(), 1, "Table 1: run 1");
    }

    /// Drives a pearl directly through one or more schedule periods with
    /// ideal data, returning everything it wrote per output port.
    fn drive_pearl(
        pearl: &mut dyn Pearl,
        periods: usize,
        mut input_for: impl FnMut(usize, usize) -> u64, // (port, nth read)
    ) -> Vec<Vec<u64>> {
        let n_in = pearl.interface().input_count();
        let n_out = pearl.interface().output_count();
        let mut reads_seen = vec![0usize; n_in];
        let mut outs = vec![Vec::new(); n_out];
        let period = pearl.schedule().period();
        for t in 0..periods * period {
            let io = pearl.schedule().at(t);
            let mut inputs = PortValues::empty(n_in);
            for port in io.reads.iter() {
                inputs.set(port, input_for(port, reads_seen[port]));
                reads_seen[port] += 1;
            }
            let mut produced = PortValues::empty(n_out);
            pearl.clock(&inputs, &mut produced);
            for (port, v) in produced.occupied() {
                outs[port].push(v);
            }
        }
        outs
    }

    #[test]
    fn viterbi_pearl_decodes_a_noisy_frame() {
        let mut rng = StdRng::seed_from_u64(11);
        let bits: Vec<bool> = (0..VITERBI_FRAME_BITS).map(|_| rng.random()).collect();
        let mut coded = ConvEncoder::encode_block(&bits);
        assert_eq!(coded.len(), VITERBI_FRAME_SYMBOLS);
        coded[10].0 = !coded[10].0; // one channel error

        let mut pearl = ViterbiPearl::new("vit");
        let coded2 = coded.clone();
        let outs = drive_pearl(&mut pearl, 1, move |port, nth| match port {
            0 => 0xA5,
            1 => {
                let (a, b) = coded2[nth];
                u64::from(a) | (u64::from(b) << 1)
            }
            _ => unreachable!(),
        });

        // Port 0: two data words carrying the 97 decoded bits.
        assert_eq!(outs[0].len(), 2);
        let mut got_bits = Vec::new();
        for i in 0..VITERBI_FRAME_BITS {
            got_bits.push((outs[0][i / 64] >> (i % 64)) & 1 == 1);
        }
        assert_eq!(got_bits, bits);
        // Port 1: status echoes ctrl; port 2: metric = 1 channel error.
        assert_eq!(outs[1], vec![0xA5]);
        assert_eq!(outs[2], vec![1]);
    }

    #[test]
    fn rs_pearl_corrects_streamed_blocks() {
        let rs = ReedSolomon::new();
        let mut rng = StdRng::seed_from_u64(12);

        // Build a stream of clean+noisy codewords covering one period.
        let n_blocks = RS_PERIOD / N + 2;
        let mut clean_stream = Vec::new();
        let mut noisy_stream = Vec::new();
        for _ in 0..n_blocks {
            let msg: Vec<u8> = (0..K).map(|_| rng.random()).collect();
            let cw = rs.encode(&msg);
            let mut noisy = cw.clone();
            for _ in 0..4 {
                let pos = rng.random_range(0..N);
                noisy[pos] ^= rng.random_range(1..=255) as u8;
            }
            clean_stream.extend_from_slice(&cw);
            noisy_stream.extend_from_slice(&noisy);
        }

        let mut pearl = RsPearl::new("rs");
        let noisy2 = noisy_stream.clone();
        let outs = drive_pearl(&mut pearl, 1, move |port, nth| match port {
            0 => u64::from(noisy2[nth]),
            1 => 0x42,
            _ => unreachable!(),
        });

        // sym_out: pipeline-fill zeros while the first block accumulates
        // (254 of them — the completing read and the first corrected pop
        // share a cycle), then the corrected blocks in order.
        let sym_out = &outs[0];
        assert_eq!(sym_out.len(), RS_PERIOD - 1);
        let fill = N - 1;
        assert!(sym_out[..fill].iter().all(|&v| v == 0), "pipeline fill");
        let emitted_blocks = (sym_out.len() - fill) / N;
        assert!(emitted_blocks >= 10);
        for b in 0..emitted_blocks {
            let got: Vec<u8> = sym_out[fill + b * N..fill + (b + 1) * N]
                .iter()
                .map(|&v| v as u8)
                .collect();
            assert_eq!(
                &got[..],
                &clean_stream[b * N..(b + 1) * N],
                "block {b} must come out corrected"
            );
        }
        assert!(pearl.corrected_total() > 0);
    }

    #[test]
    fn fir_pearl_filters_an_impulse() {
        let taps = vec![3, -1, 4, 1];
        let mut pearl = FirPearl::new("fir", taps.clone());
        // Impulse then zeros: output replays the taps.
        let outs = drive_pearl(&mut pearl, 6, |_, nth| u64::from(nth == 0));
        let got: Vec<i32> = outs[0].iter().map(|&v| v as u32 as i32).collect();
        assert_eq!(&got[..4], &taps[..]);
        assert_eq!(got[4], 0);
    }

    #[test]
    fn pearls_reset_cleanly() {
        let mut p = ViterbiPearl::new("v");
        let mut ins = PortValues::empty(2);
        ins.set(0, 7);
        p.clock(&ins, &mut PortValues::empty(3));
        p.reset();
        assert_eq!(p.step, 0);
        let mut r = RsPearl::new("r");
        let mut ins = PortValues::empty(2);
        ins.set(1, 7);
        r.clock(&ins, &mut PortValues::empty(2));
        r.reset();
        assert_eq!(r.step, 0);
    }
}
