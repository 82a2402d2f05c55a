//! FIFO port adapters: the input/output ports of the paper's Figure 2.
//!
//! The synchronization processor does not look at raw channel wires; each
//! wrapper port contains a small queue presenting FIFO-like signals to
//! the shell — `not_empty`/`pop` on inputs, `not_full`/`push` on outputs
//! ("The SP communicates with the LIS ports with FIFO-like signals…
//! formally equivalent to the voidin/out and stopin/out of [1]", §3).

use crate::channel::LisChannel;
use crate::lanes::Lanes;
use crate::relay::ViolationCounter;
use crate::token::Token;
use lis_sim::{Activity, Component, Ports, SignalId, SignalView, System};
use std::collections::VecDeque;

/// Signals an input port presents to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputPortFace {
    /// Head-of-queue payload (valid when `not_empty`).
    pub data: SignalId,
    /// High when a token is available.
    pub not_empty: SignalId,
    /// Shell pulls high to consume the head token this cycle.
    pub pop: SignalId,
}

/// Signals an output port presents to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputPortFace {
    /// Payload the shell wants to emit (sampled when `push`).
    pub data: SignalId,
    /// High when the port can accept a token.
    pub not_full: SignalId,
    /// Shell pulls high to enqueue `data` this cycle.
    pub push: SignalId,
}

/// Queue capacity of the port adapters.
///
/// Two slots is the minimum that tolerates the one-cycle-registered
/// `stop` of the LIS protocol without ever dropping a token (same
/// analysis as the relay station's main/aux pair).
pub const PORT_QUEUE_CAPACITY: usize = 2;

/// An input port: receives tokens from a LIS channel, queues them, and
/// presents the FIFO face to the shell.
#[derive(Debug)]
pub struct InputPort {
    name: String,
    channel: LisChannel,
    face: InputPortFace,
    queue: VecDeque<u64>,
    /// Registered back-pressure towards the channel.
    stop_up: bool,
    violations: ViolationCounter,
}

impl InputPort {
    /// Creates an input port fed by `channel`, allocating its face
    /// signals in `system`.
    pub fn new(
        system: &mut System,
        name: impl Into<String>,
        channel: LisChannel,
        violations: ViolationCounter,
    ) -> Self {
        let name = name.into();
        let face = InputPortFace {
            data: system.add_signal(format!("{name}_q"), channel.width),
            not_empty: system.add_signal(format!("{name}_not_empty"), 1),
            pop: system.add_signal(format!("{name}_pop"), 1),
        };
        InputPort {
            name,
            channel,
            face,
            queue: VecDeque::with_capacity(PORT_QUEUE_CAPACITY),
            stop_up: false,
            violations,
        }
    }

    /// The FIFO face the shell connects to.
    pub fn face(&self) -> InputPortFace {
        self.face
    }
}

impl Component for InputPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // Face data/not_empty come from the registered queue; `pop` is
        // sampled at the clock edge.
        self.channel
            .consumer_ports()
            .merge(Ports::writes_only([self.face.data, self.face.not_empty]))
            .tick_read(self.face.pop)
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        sigs.set(self.face.data, self.queue.front().copied().unwrap_or(0));
        sigs.set_bool(self.face.not_empty, !self.queue.is_empty());
        self.channel.write_stop(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // Shell consumes first… (popping an empty queue is a shell
        // bug).
        if sigs.get_bool(self.face.pop) {
            changed = true;
            if self.queue.pop_front().is_none() {
                self.violations.record();
            }
        }
        // …then the channel delivers (transfer valid only when we showed
        // stop = 0 this cycle).
        if !self.stop_up {
            if let Token::Data(v) = self.channel.read_token(sigs) {
                changed = true;
                if self.queue.len() < PORT_QUEUE_CAPACITY {
                    self.queue.push_back(v);
                } else {
                    self.violations.record();
                }
            }
        }
        // The producer reads this registered stop in the cycle of the
        // transfer, so announcing "full" is early enough — no token is in
        // flight once stop is visible, and a pop happening in the same
        // cycle as the last-slot fill keeps the port running at one token
        // per cycle.
        let stop = self.queue.len() >= PORT_QUEUE_CAPACITY;
        changed |= stop != self.stop_up;
        self.stop_up = stop;
        // A full port behind an asserted stop with an idle shell moves
        // nothing — quiescent until `pop`, the token wires, or the
        // queue state change.
        Activity::from_changed(changed)
    }
}

/// An output port: accepts pushes from the shell, queues them, and
/// drives a LIS channel, honouring downstream back-pressure.
#[derive(Debug)]
pub struct OutputPort {
    name: String,
    channel: LisChannel,
    face: OutputPortFace,
    queue: VecDeque<u64>,
    violations: ViolationCounter,
}

impl OutputPort {
    /// Creates an output port driving `channel`, allocating its face
    /// signals in `system`.
    pub fn new(
        system: &mut System,
        name: impl Into<String>,
        channel: LisChannel,
        violations: ViolationCounter,
    ) -> Self {
        let name = name.into();
        let face = OutputPortFace {
            data: system.add_signal(format!("{name}_d"), channel.width),
            not_full: system.add_signal(format!("{name}_not_full"), 1),
            push: system.add_signal(format!("{name}_push"), 1),
        };
        OutputPort {
            name,
            channel,
            face,
            queue: VecDeque::with_capacity(PORT_QUEUE_CAPACITY),
            violations,
        }
    }

    /// The FIFO face the shell connects to.
    pub fn face(&self) -> OutputPortFace {
        self.face
    }
}

impl Component for OutputPort {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel
            .producer_ports()
            .merge(Ports::writes_only([self.face.not_full]))
            .tick_read(self.face.push)
            .tick_read(self.face.data)
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let out = match self.queue.front() {
            Some(&v) => Token::Data(v),
            None => Token::Void,
        };
        self.channel.write_token(sigs, out);
        sigs.set_bool(self.face.not_full, self.queue.len() < PORT_QUEUE_CAPACITY);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // Channel consumes the head unless downstream stalls…
        if !self.channel.read_stop(sigs) && !self.queue.is_empty() {
            self.queue.pop_front();
            changed = true;
        }
        // …then the shell's push lands.
        if sigs.get_bool(self.face.push) {
            changed = true;
            if self.queue.len() < PORT_QUEUE_CAPACITY {
                self.queue.push_back(sigs.get(self.face.data));
            } else {
                // Pushing a full port is a shell bug.
                self.violations.record();
            }
        }
        // A stalled output port holding its tokens with no push is
        // quiescent until `stop` drops or the shell pushes again.
        Activity::from_changed(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_sim::FnComponent;
    use std::sync::{Arc, Mutex};

    #[test]
    fn input_port_queues_and_pops_in_order() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let ch = LisChannel::new(&mut sys, "in", 8);
        let port = InputPort::new(&mut sys, "p", ch, violations.clone());
        let face = port.face();
        sys.add_component(port);

        // Source: pushes 1, 2, 3 respecting stop.
        let pending = Arc::new(Mutex::new(vec![1u64, 2, 3]));
        let p2 = Arc::clone(&pending);
        sys.add_component(FnComponent::new(
            "src",
            ch.producer_ports(),
            move |sigs: &mut SignalView<'_>| {
                let tok = p2
                    .lock()
                    .unwrap()
                    .first()
                    .map_or(Token::Void, |&v| Token::Data(v));
                ch.write_token(sigs, tok);
            },
            move |sigs: &SignalView<'_>| {
                if !ch.read_stop(sigs) && !pending.lock().unwrap().is_empty() {
                    pending.lock().unwrap().remove(0);
                }
            },
        ));

        // Shell: pops whenever not_empty.
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        sys.add_component(FnComponent::new(
            "shell",
            Ports::new([face.not_empty], [face.pop]).tick_read(face.data),
            move |sigs: &mut SignalView<'_>| {
                let ne = sigs.get_bool(face.not_empty);
                sigs.set_bool(face.pop, ne);
            },
            move |sigs: &SignalView<'_>| {
                if sigs.get_bool(face.pop) {
                    g2.lock().unwrap().push(sigs.get(face.data));
                }
            },
        ));

        sys.run(12).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(violations.count(), 0);
    }

    #[test]
    fn input_port_backpressures_when_not_drained() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let ch = LisChannel::new(&mut sys, "in", 8);
        let port = InputPort::new(&mut sys, "p", ch, violations.clone());
        let face = port.face();
        sys.add_component(port);

        let sent = Arc::new(Mutex::new(0u64));
        let s2 = Arc::clone(&sent);
        sys.add_component(FnComponent::new(
            "src",
            ch.producer_ports(),
            move |sigs: &mut SignalView<'_>| {
                let n = *s2.lock().unwrap();
                ch.write_token(sigs, Token::Data(n));
            },
            move |sigs: &SignalView<'_>| {
                if !ch.read_stop(sigs) {
                    *sent.lock().unwrap() += 1;
                }
            },
        ));
        // Shell never pops.
        sys.add_component(FnComponent::new(
            "lazy_shell",
            Ports::writes_only([face.pop]),
            move |sigs: &mut SignalView<'_>| {
                sigs.set_bool(face.pop, false);
            },
            |_| {},
        ));
        sys.run(20).unwrap();
        assert_eq!(
            violations.count(),
            0,
            "port must stop the source before overflowing"
        );
        assert!(sys.peek_bool(face.not_empty));
    }

    #[test]
    fn output_port_emits_and_respects_stop() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let ch = LisChannel::new(&mut sys, "out", 8);
        let port = OutputPort::new(&mut sys, "p", ch, violations.clone());
        let face = port.face();
        sys.add_component(port);

        // Shell: push 5 values whenever not_full.
        let next = Arc::new(Mutex::new(1u64));
        let n2 = Arc::clone(&next);
        sys.add_component(FnComponent::new(
            "shell",
            Ports::new([face.not_full], [face.push, face.data]),
            move |sigs: &mut SignalView<'_>| {
                let v = *n2.lock().unwrap();
                let can = sigs.get_bool(face.not_full) && v <= 5;
                sigs.set_bool(face.push, can);
                sigs.set(face.data, v);
            },
            move |sigs: &SignalView<'_>| {
                if sigs.get_bool(face.push) {
                    *next.lock().unwrap() += 1;
                }
            },
        ));

        // Sink with a stall pattern.
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        let t = Arc::new(Mutex::new(0usize));
        let t2 = Arc::clone(&t);
        sys.add_component(FnComponent::new(
            "sink",
            ch.consumer_ports(),
            move |sigs: &mut SignalView<'_>| {
                let stall = (*t2.lock().unwrap()).is_multiple_of(3);
                ch.write_stop(sigs, stall);
            },
            move |sigs: &SignalView<'_>| {
                let stall = (*t.lock().unwrap()).is_multiple_of(3);
                if !stall {
                    if let Token::Data(v) = ch.read_token(sigs) {
                        g2.lock().unwrap().push(v);
                    }
                }
                *t.lock().unwrap() += 1;
            },
        ));

        sys.run(40).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(violations.count(), 0);
    }
}
