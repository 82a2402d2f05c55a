//! Width-conversion adapters: serializers and deserializers between
//! channels of different widths.
//!
//! SoCs mix IPs with different port widths (the Viterbi pearl emits
//! 64-bit words; a downstream byte-stream consumer wants 8-bit tokens).
//! These adapters speak the LIS protocol on both sides — fully
//! latency-insensitive, never dropping a token.

use crate::channel::LisChannel;
use crate::lanes::Lanes;
use crate::token::Token;
use lis_sim::{Activity, Component, Ports, SignalView};

/// Splits each wide token into `factor` narrow tokens, least-significant
/// chunk first.
///
/// `narrow.width × factor` must cover `wide.width`.
#[derive(Debug)]
pub struct Serializer {
    name: String,
    wide: LisChannel,
    narrow: LisChannel,
    factor: u32,
    /// Remaining chunks of the word in flight (LSB-first).
    pending: Vec<u64>,
    stop_up: bool,
}

impl Serializer {
    /// Creates a serializer from `wide` onto `narrow`.
    ///
    /// # Panics
    ///
    /// Panics if the narrow width does not divide into the wide width in
    /// a whole number of chunks.
    pub fn new(name: impl Into<String>, wide: LisChannel, narrow: LisChannel) -> Self {
        let factor = wide.width.div_ceil(narrow.width);
        assert!(factor >= 1, "serializer needs at least one chunk");
        Serializer {
            name: name.into(),
            wide,
            narrow,
            factor,
            pending: Vec::new(),
            stop_up: false,
        }
    }

    /// Number of narrow tokens produced per wide token.
    pub fn factor(&self) -> u32 {
        self.factor
    }
}

impl Component for Serializer {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.narrow
            .producer_ports()
            .merge(self.wide.consumer_ports())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let out = self
            .pending
            .last()
            .map_or(Token::Void, |&chunk| Token::Data(chunk));
        self.narrow.write_token(sigs, out);
        self.wide.write_stop(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // Downstream consumes the current chunk unless it stalls.
        if !self.narrow.read_stop(sigs) && !self.pending.is_empty() {
            self.pending.pop();
            changed = true;
        }
        // Accept a new word only while idle (we presented stop while
        // busy, so the producer held).
        if !self.stop_up {
            if let Token::Data(word) = self.wide.read_token(sigs) {
                changed = true;
                let mask = if self.narrow.width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << self.narrow.width) - 1
                };
                // Stored MSB-chunk-first so pop() yields LSB-first.
                for i in (0..self.factor).rev() {
                    self.pending.push((word >> (i * self.narrow.width)) & mask);
                }
            }
        }
        let stop = !self.pending.is_empty();
        changed |= stop != self.stop_up;
        self.stop_up = stop;
        Activity::from_changed(changed)
    }
}

/// Packs every `factor` narrow tokens into one wide token,
/// least-significant chunk first (the inverse of [`Serializer`]).
#[derive(Debug)]
pub struct Deserializer {
    name: String,
    narrow: LisChannel,
    wide: LisChannel,
    factor: u32,
    collected: Vec<u64>,
    ready: Option<u64>,
    stop_up: bool,
}

impl Deserializer {
    /// Creates a deserializer from `narrow` onto `wide`.
    pub fn new(name: impl Into<String>, narrow: LisChannel, wide: LisChannel) -> Self {
        let factor = wide.width.div_ceil(narrow.width);
        assert!(factor >= 1, "deserializer needs at least one chunk");
        Deserializer {
            name: name.into(),
            narrow,
            wide,
            factor,
            collected: Vec::new(),
            ready: None,
            stop_up: false,
        }
    }

    /// Number of narrow tokens consumed per wide token.
    pub fn factor(&self) -> u32 {
        self.factor
    }
}

impl Component for Deserializer {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.wide
            .producer_ports()
            .merge(self.narrow.consumer_ports())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let out = self.ready.map_or(Token::Void, Token::Data);
        self.wide.write_token(sigs, out);
        self.narrow.write_stop(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // 1. The consumer takes the assembled word unless it stalls.
        if !self.wide.read_stop(sigs) && self.ready.is_some() {
            self.ready = None;
            changed = true;
        }
        // 2. Intake (gated by the stop we presented this cycle).
        if !self.stop_up {
            if let Token::Data(chunk) = self.narrow.read_token(sigs) {
                self.collected.push(chunk);
                changed = true;
            }
        }
        // 3. Pack whenever a full word is collected and the output slot
        //    is free (also fires when the slot just drained above).
        if self.ready.is_none() && self.collected.len() == self.factor as usize {
            let mut word = 0u64;
            for (i, &c) in self.collected.iter().enumerate() {
                word |= c << (i as u32 * self.narrow.width);
            }
            self.ready = Some(word);
            self.collected.clear();
            changed = true;
        }
        // 4. Hold the producer while the next chunk could overflow the
        //    assembly buffer (full, or one short of full with the output
        //    slot still occupied).
        let stop = self.collected.len() >= self.factor as usize
            || (self.ready.is_some() && self.collected.len() + 1 >= self.factor as usize);
        changed |= stop != self.stop_up;
        self.stop_up = stop;
        Activity::from_changed(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::{TokenSink, TokenSource};
    use lis_sim::System;

    #[test]
    fn serializer_splits_words_lsb_first() {
        let mut sys = System::new();
        let wide = LisChannel::new(&mut sys, "w", 16);
        let narrow = LisChannel::new(&mut sys, "n", 8);
        sys.add_component(TokenSource::new("src", wide, vec![0xBEEF, 0x1234]));
        sys.add_component(Serializer::new("ser", wide, narrow));
        let sink = TokenSink::new("sink", narrow);
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(20).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![0xEF, 0xBE, 0x34, 0x12]);
    }

    #[test]
    fn deserializer_packs_chunks_lsb_first() {
        let mut sys = System::new();
        let narrow = LisChannel::new(&mut sys, "n", 8);
        let wide = LisChannel::new(&mut sys, "w", 16);
        sys.add_component(TokenSource::new(
            "src",
            narrow,
            vec![0xEF, 0xBE, 0x34, 0x12],
        ));
        sys.add_component(Deserializer::new("des", narrow, wide));
        let sink = TokenSink::new("sink", wide);
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(30).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![0xBEEF, 0x1234]);
    }

    #[test]
    fn serializer_deserializer_round_trip_under_stalls() {
        let mut sys = System::new();
        let wide_in = LisChannel::new(&mut sys, "wi", 32);
        let narrow = LisChannel::new(&mut sys, "n", 8);
        let wide_out = LisChannel::new(&mut sys, "wo", 32);
        let words: Vec<u64> = (0..20)
            .map(|i| 0x0101_0101u64.wrapping_mul(i) & 0xFFFF_FFFF)
            .collect();
        sys.add_component(TokenSource::new("src", wide_in, words.clone()).with_stalls(0.3, 41));
        sys.add_component(Serializer::new("ser", wide_in, narrow));
        sys.add_component(Deserializer::new("des", narrow, wide_out));
        let sink = TokenSink::new("sink", wide_out).with_stalls(0.3, 42);
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(800).unwrap();
        assert_eq!(*got.lock().unwrap(), words);
    }

    #[test]
    fn factors_are_reported() {
        let mut sys = System::new();
        let wide = LisChannel::new(&mut sys, "w", 33);
        let narrow = LisChannel::new(&mut sys, "n", 8);
        let ser = Serializer::new("s", wide, narrow);
        assert_eq!(ser.factor(), 5, "33 bits need 5 byte chunks");
        let des = Deserializer::new("d", narrow, wide);
        assert_eq!(des.factor(), 5);
    }
}
