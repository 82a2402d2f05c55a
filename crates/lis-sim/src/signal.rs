//! Signals: the wires of a component-level simulation.
//!
//! [`SignalView`] is the access token components hold during evaluation:
//! a mutable borrow of the system's signal arena plus, under the
//! activity kernel, a per-component guard (declared read/write bitsets)
//! checked on every access. The guards stay on in release builds: the
//! kernel wakes components along their *declared* ports, so an
//! undeclared read or write would silently leave a stale value behind
//! instead of failing.

use std::fmt;

/// Identifier of a signal inside one [`crate::System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index into the system's signal arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A named multi-bit wire (up to 64 bits).
#[derive(Debug, Clone)]
pub struct Signal {
    /// Debug name (also used for trace output).
    pub name: String,
    /// Width in bits, 1..=64.
    pub width: u32,
    pub(crate) value: u64,
}

impl Signal {
    /// Mask selecting the valid bits of this signal.
    pub fn mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// Tests bit `id` of a bitset stored as `u64` words.
#[inline]
pub(crate) fn bit(words: &[u64], id: usize) -> bool {
    words[id / 64] & (1u64 << (id % 64)) != 0
}

/// A bitset over signal ids restricted to a contiguous *word window*
/// `start_word .. start_word + words.len()`; every bit outside the
/// window is zero. One component's declared signals span a narrow id
/// range, so the scheduler's guard masks store only that range — total
/// mask memory is O(Σ window sizes) instead of O(components × signals),
/// which keeps the guard words cache-resident even for lane-batched
/// fleets with tens of thousands of components.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BitWindow<'a> {
    pub(crate) start_word: usize,
    pub(crate) words: &'a [u64],
}

impl BitWindow<'_> {
    /// The empty bitset (used as the tick phase's write set).
    pub(crate) const EMPTY: BitWindow<'static> = BitWindow {
        start_word: 0,
        words: &[],
    };

    /// Tests bit `id`.
    #[inline]
    pub(crate) fn bit(&self, id: usize) -> bool {
        (id / 64)
            .checked_sub(self.start_word)
            .and_then(|i| self.words.get(i))
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

/// Access permissions and change tracking for one component's `eval` or
/// `tick`.
///
/// `reads`/`writes` are bitsets over signal ids (the component's declared
/// port sets); `track` collects the ids of signals whose value actually
/// changed, which drives the worklist inside cyclic groups and the
/// cross-cycle dirty seeding of the activity kernel. During the
/// tick phase `tick` is set: `reads` holds the full observable set
/// (`reads ∪ writes ∪ tick_reads`), `writes` is empty, and the panic
/// messages name the tick-phase rules.
pub(crate) struct Guard<'a> {
    pub(crate) component: &'a str,
    pub(crate) reads: BitWindow<'a>,
    pub(crate) writes: BitWindow<'a>,
    pub(crate) track: Option<&'a mut Vec<u32>>,
    pub(crate) tick: bool,
}

/// Mutable view over the signal values, handed to components during
/// evaluation. Tracks whether any write changed a value, which drives the
/// settle fixpoint in [`crate::System::settle`].
///
/// During scheduled evaluation the view is *guarded*: a component may
/// only touch the signals it declared in [`crate::Component::ports`],
/// and any undeclared access panics (naming the component and signal).
pub struct SignalView<'a> {
    signals: &'a mut [Signal],
    cycle: u64,
    pub(crate) changed: bool,
    pub(crate) guard: Option<Guard<'a>>,
}

impl fmt::Debug for SignalView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignalView")
            .field("signals", &self.signals.len())
            .field("changed", &self.changed)
            .field("guarded", &self.guard.is_some())
            .finish()
    }
}

impl<'a> SignalView<'a> {
    /// An unrestricted view over `signals` (used by the full-sweep
    /// reference settle and tick).
    pub(crate) fn unguarded(signals: &'a mut [Signal], cycle: u64) -> Self {
        SignalView {
            signals,
            cycle,
            changed: false,
            guard: None,
        }
    }

    /// A view over `signals` restricted to `guard`'s declared sets.
    pub(crate) fn guarded(signals: &'a mut [Signal], cycle: u64, guard: Guard<'a>) -> Self {
        SignalView {
            signals,
            cycle,
            changed: false,
            guard: Some(guard),
        }
    }

    /// The simulation cycle this view was issued for.
    ///
    /// Components with *scheduled* behaviour (periodic stall patterns,
    /// timed endpoints) must derive their phase from this clock rather
    /// than from counted invocations: under [`crate::SettleMode`]s that
    /// skip quiescent work — and under fast-forward, which skips whole
    /// cycles — a component is not evaluated or ticked every cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline]
    fn index(&self, id: SignalId) -> usize {
        let i = id.index();
        assert!(i < self.signals.len(), "signal {id} out of range");
        i
    }

    /// Reads a signal value.
    ///
    /// # Panics
    ///
    /// Panics on a guarded view if the signal is not in the evaluating
    /// component's declared read or write set.
    pub fn get(&self, id: SignalId) -> u64 {
        let i = self.index(id);
        if let Some(g) = &self.guard {
            if !g.reads.bit(i) && !g.writes.bit(i) {
                let name = &self.signals[i].name;
                if g.tick {
                    panic!(
                        "component `{}` read undeclared signal {id} (`{name}`) during tick: \
                         add it to the tick_reads of Component::ports()",
                        g.component
                    );
                }
                panic!(
                    "component `{}` read undeclared signal {id} (`{name}`): \
                     add it to the reads of Component::ports()",
                    g.component
                );
            }
        }
        self.signals[i].value
    }

    /// Reads a signal as a boolean (bit 0).
    pub fn get_bool(&self, id: SignalId) -> bool {
        self.get(id) & 1 == 1
    }

    /// Writes a signal value (masked to the signal's width).
    ///
    /// # Panics
    ///
    /// Panics on a guarded view if the signal is not in the evaluating
    /// component's declared write set.
    pub fn set(&mut self, id: SignalId, value: u64) {
        let i = self.index(id);
        if let Some(g) = &self.guard {
            if !g.writes.bit(i) {
                let name = &self.signals[i].name;
                if g.tick {
                    panic!(
                        "component `{}` wrote signal {id} (`{name}`) during tick: \
                         ticks sample settled signals and must not write any",
                        g.component
                    );
                }
                panic!(
                    "component `{}` wrote undeclared signal {id} (`{name}`): \
                     add it to the writes of Component::ports()",
                    g.component
                );
            }
        }
        let sig = &mut self.signals[i];
        let masked = value & sig.mask();
        if sig.value != masked {
            sig.value = masked;
            self.changed = true;
            if let Some(Guard {
                track: Some(track), ..
            }) = &mut self.guard
            {
                track.push(id.0);
            }
        }
    }

    /// Writes a boolean signal.
    pub fn set_bool(&mut self, id: SignalId, value: bool) {
        self.set(id, u64::from(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Vec<Signal> {
        vec![
            Signal {
                name: "a".into(),
                width: 4,
                value: 0,
            },
            Signal {
                name: "b".into(),
                width: 8,
                value: 7,
            },
        ]
    }

    #[test]
    fn masking_clips_to_width() {
        let mut signals = arena();
        let mut view = SignalView::unguarded(&mut signals, 0);
        let id = SignalId(0);
        view.set(id, 0xFF);
        assert_eq!(view.get(id), 0x0F);
        assert!(view.changed);
    }

    #[test]
    fn rewriting_same_value_does_not_mark_changed() {
        let mut signals = arena();
        let mut view = SignalView::unguarded(&mut signals, 0);
        view.set(SignalId(1), 7);
        assert!(!view.changed);
    }

    #[test]
    fn width_64_mask_is_full() {
        let s = Signal {
            name: "w".into(),
            width: 64,
            value: 0,
        };
        assert_eq!(s.mask(), u64::MAX);
    }

    #[test]
    fn bool_accessors_use_bit_zero() {
        let mut signals = arena();
        let mut view = SignalView::unguarded(&mut signals, 0);
        view.set_bool(SignalId(0), true);
        assert!(view.get_bool(SignalId(0)));
    }

    #[test]
    fn bit_window_clips_to_its_word_range() {
        let words = vec![u64::MAX];
        let w = BitWindow {
            start_word: 2,
            words: &words,
        };
        assert!(!w.bit(0)); // below the window
        assert!(!w.bit(127)); // last bit before the window
        assert!(w.bit(128)); // first bit inside
        assert!(w.bit(191)); // last bit inside
        assert!(!w.bit(192)); // past the window
        assert!(!BitWindow::EMPTY.bit(0));
    }

    #[test]
    fn guarded_view_enforces_declared_sets_and_tracks_changes() {
        let mut signals = arena();
        let reads = vec![0b01u64]; // may read signal 0
        let writes = vec![0b10u64]; // may write signal 1
        let mut track = Vec::new();
        let mut view = SignalView::guarded(
            &mut signals,
            0,
            Guard {
                component: "t",
                reads: BitWindow {
                    start_word: 0,
                    words: &reads,
                },
                writes: BitWindow {
                    start_word: 0,
                    words: &writes,
                },
                track: Some(&mut track),
                tick: false,
            },
        );
        assert_eq!(view.get(SignalId(0)), 0);
        view.set(SignalId(1), 9);
        view.set(SignalId(1), 9); // unchanged: not tracked twice
                                  // A write-only signal may also be read back (write implies read).
        assert_eq!(view.get(SignalId(1)), 9);
        assert_eq!(track, vec![1]);
    }

    #[test]
    #[should_panic(expected = "read undeclared signal")]
    fn guarded_view_panics_on_undeclared_read() {
        let mut signals = arena();
        let view = SignalView::guarded(
            &mut signals,
            0,
            Guard {
                component: "t",
                reads: BitWindow::EMPTY,
                writes: BitWindow::EMPTY,
                track: None,
                tick: false,
            },
        );
        let _ = view.get(SignalId(0));
    }

    #[test]
    #[should_panic(expected = "wrote undeclared signal")]
    fn guarded_view_panics_on_undeclared_write() {
        let mut signals = arena();
        let reads = vec![0b11u64];
        let mut view = SignalView::guarded(
            &mut signals,
            0,
            Guard {
                component: "t",
                reads: BitWindow {
                    start_word: 0,
                    words: &reads,
                },
                writes: BitWindow::EMPTY,
                track: None,
                tick: false,
            },
        );
        view.set(SignalId(0), 1);
    }
}
