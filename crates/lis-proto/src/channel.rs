//! Channel wiring: the signal bundle of one point-to-point LIS link.

use crate::token::Token;
use lis_sim::{SignalId, SignalView, System};

/// The three wires of a latency-insensitive channel segment:
/// `data`/`void` travel downstream, `stop` travels upstream.
///
/// These are exactly the `voidin/out` and `stopin/out` signals of
/// Carloni et al. (the paper's Figure 1 interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LisChannel {
    /// Payload wires (downstream).
    pub data: SignalId,
    /// Void flag (downstream): high marks a non-informative cycle.
    pub void: SignalId,
    /// Back-pressure (upstream): high tells the producer to hold.
    pub stop: SignalId,
    /// Payload width in bits.
    pub width: u32,
}

impl LisChannel {
    /// Allocates the three signals of a channel in `system`.
    ///
    /// The `void` wire powers up high (idle channels carry void, not
    /// stale data).
    pub fn new(system: &mut System, name: &str, width: u32) -> Self {
        let data = system.add_signal(format!("{name}_data"), width);
        let void = system.add_signal(format!("{name}_void"), 1);
        let stop = system.add_signal(format!("{name}_stop"), 1);
        system.poke_bool(void, true);
        LisChannel {
            data,
            void,
            stop,
            width,
        }
    }

    /// Reads the downstream token from a signal view.
    pub fn read_token(&self, sigs: &SignalView<'_>) -> Token {
        Token::from_wires(sigs.get(self.data), sigs.get_bool(self.void))
    }

    /// Drives the downstream token onto a signal view.
    pub fn write_token(&self, sigs: &mut SignalView<'_>, token: Token) {
        let (data, void) = token.to_wires();
        sigs.set(self.data, data);
        sigs.set_bool(self.void, void);
    }

    /// Reads the upstream back-pressure wire.
    pub fn read_stop(&self, sigs: &SignalView<'_>) -> bool {
        sigs.get_bool(self.stop)
    }

    /// Drives the upstream back-pressure wire.
    pub fn write_stop(&self, sigs: &mut SignalView<'_>, stop: bool) {
        sigs.set_bool(self.stop, stop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lanes;
    use lis_sim::FnComponent;

    #[test]
    fn channel_allocates_three_signals() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        assert_eq!(sys.signal_count(), 3);
        assert_eq!(sys.signal(ch.data).width, 8);
        assert_eq!(sys.signal(ch.void).width, 1);
        assert!(sys.peek_bool(ch.void), "channels power up void");
    }

    #[test]
    fn token_round_trip_through_signals() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 16);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Token::Void));
        let seen2 = std::sync::Arc::clone(&seen);
        sys.add_component(FnComponent::new(
            "probe",
            ch.producer_ports(),
            move |sigs: &mut SignalView<'_>| {
                ch.write_token(sigs, Token::Data(0xABC));
                // Writes imply read-back permission.
                *seen2.lock().unwrap() = ch.read_token(sigs);
            },
            |_| {},
        ));
        sys.settle().unwrap();
        assert_eq!(*seen.lock().unwrap(), Token::Data(0xABC));
    }
}
