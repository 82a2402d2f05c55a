//! Waveform capture: an in-memory recorder and a VCD (IEEE 1364 value
//! change dump) writer for inspection in any waveform viewer.
//!
//! Storage is *sparse*: per watched signal the trace keeps a change
//! list `(sample index, value)` instead of a dense row per cycle, and
//! [`Trace::sample`] drains the kernel's change log
//! (`System::trace_changes`) so a settled cycle in which nothing moved
//! costs O(changed), not O(watched). Each sample is stamped with the
//! cycle it was taken at, so a fast-forwarded span
//! ([`crate::SettleMode::FastForward`]) shows up in the VCD as a time
//! jump (`#t` advancing by more than one) rather than a run of empty
//! per-cycle blocks.

use crate::kernel::System;
use crate::signal::SignalId;
use std::fmt::Write as _;

/// Records the values of a chosen set of signals at every sampled
/// cycle.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    signals: Vec<(String, u32, SignalId)>,
    /// Per watched signal: `(sample index, value)` at each change. The
    /// first entry is the signal's baseline — recorded at the first
    /// sample after the `watch` call, so a signal watched late simply
    /// starts later (its earlier history reads as `None`/`x`).
    changes: Vec<Vec<(usize, u64)>>,
    /// Cycle stamp of each sample, in sampling order (strictly
    /// increasing when driven once per cycle; gaps mark fast-forwarded
    /// spans).
    times: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Adds a signal to record; `label` appears in dumps. Watching a
    /// signal after sampling has begun is allowed: its history before
    /// this point reads as `None` (`x` in VCD output).
    pub fn watch(&mut self, label: impl Into<String>, system: &System, id: SignalId) {
        let width = system.signal(id).width;
        self.signals.push((label.into(), width, id));
        self.changes.push(Vec::new());
    }

    /// Samples the watched signals (call once per settled cycle).
    ///
    /// Under the activity kernel only signals it recorded as changed
    /// since the previous sample are re-read; the full sweep (and the
    /// first sample after a structural change) falls back to scanning
    /// every watched signal. Values are masked to
    /// the signal's declared width and stored only when they differ
    /// from the previous recorded value.
    pub fn sample(&mut self, system: &mut System) {
        let idx = self.times.len();
        self.times.push(system.cycle());
        let mut drained = system.trace_changes();
        if let Some(ids) = &mut drained {
            ids.sort_unstable();
        }
        for (i, &(_, width, id)) in self.signals.iter().enumerate() {
            let fresh = self.changes[i].is_empty();
            let touched = match &drained {
                None => true,
                Some(ids) => fresh || ids.binary_search(&(id.index() as u32)).is_ok(),
            };
            if !touched {
                continue;
            }
            let v = system.peek(id) & width_mask(width);
            if fresh || self.changes[i].last().map(|&(_, lv)| lv) != Some(v) {
                self.changes[i].push((idx, v));
            }
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Number of watched signals.
    pub fn watched(&self) -> usize {
        self.signals.len()
    }

    /// Whether no signals are being watched (sampling would record
    /// empty rows).
    pub fn is_unwatched(&self) -> bool {
        self.signals.is_empty()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded history of the `i`-th watched signal, one entry per
    /// sample; `None` before the signal's first recorded value (watched
    /// after sampling began).
    pub fn history(&self, i: usize) -> Vec<Option<u64>> {
        let mut out = vec![None; self.times.len()];
        let list = &self.changes[i];
        for (k, &(start, v)) in list.iter().enumerate() {
            let end = list.get(k + 1).map_or(self.times.len(), |&(next, _)| next);
            for slot in &mut out[start..end] {
                *slot = Some(v);
            }
        }
        out
    }

    /// The recorded history of a signal by label.
    pub fn history_of(&self, label: &str) -> Option<Vec<Option<u64>>> {
        let i = self.signals.iter().position(|(l, _, _)| l == label)?;
        Some(self.history(i))
    }

    /// Renders the trace as a VCD document.
    ///
    /// The output loads in GTKWave and similar viewers; one timescale
    /// unit per clock cycle, each sample emitted at the cycle it was
    /// taken (`#t` jumps across fast-forwarded spans). Signal labels
    /// and the scope name are sanitized (each whitespace character
    /// becomes `_`) — a raw space would split the `$var`/`$scope`
    /// declaration and misparse in strict viewers. A `$dumpvars` block
    /// establishes every signal's initial value (from the first sample,
    /// or `x` when nothing was recorded — including signals watched
    /// only after sampling began), so viewers never render an undefined
    /// region before the first change.
    pub fn to_vcd(&self, top: &str) -> String {
        let sanitize = |label: &str| -> String {
            label
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect()
        };
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n");
        let _ = writeln!(out, "$scope module {} $end", sanitize(top));
        // VCD id codes: printable ASCII starting at '!'.
        let code = |i: usize| -> String {
            let mut n = i;
            let mut s = String::new();
            loop {
                s.push(char::from(b'!' + (n % 94) as u8));
                n /= 94;
                if n == 0 {
                    break;
                }
            }
            s
        };
        for (i, (label, width, _)) in self.signals.iter().enumerate() {
            let _ = writeln!(
                out,
                "$var wire {width} {} {} $end",
                code(i),
                sanitize(label)
            );
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        let emit_value = |out: &mut String, width: u32, v: u64, id: &str| {
            let v = v & width_mask(width);
            if width == 1 {
                let _ = writeln!(out, "{}{}", v & 1, id);
            } else {
                let _ = writeln!(out, "b{v:b} {id}");
            }
        };
        // Initial-value block: each signal's value at the first sample,
        // or `x` when it has none recorded there (empty trace, or
        // watched late).
        out.push_str("$dumpvars\n");
        for (i, (_, width, _)) in self.signals.iter().enumerate() {
            match self.changes[i].first() {
                Some(&(0, v)) => emit_value(&mut out, *width, v, &code(i)),
                _ => {
                    if *width == 1 {
                        let _ = writeln!(out, "x{}", code(i));
                    } else {
                        let _ = writeln!(out, "bx {}", code(i));
                    }
                }
            }
        }
        out.push_str("$end\n");
        // Per-signal cursor into its change list; entries at sample 0
        // were already emitted in `$dumpvars`.
        let mut cursor: Vec<usize> = self
            .changes
            .iter()
            .map(|list| usize::from(matches!(list.first(), Some(&(0, _)))))
            .collect();
        for (s, &t) in self.times.iter().enumerate() {
            let _ = writeln!(out, "#{t}");
            for (i, (_, width, _)) in self.signals.iter().enumerate() {
                if let Some(&(at, v)) = self.changes[i].get(cursor[i]) {
                    if at == s {
                        cursor[i] += 1;
                        emit_value(&mut out, *width, v, &code(i));
                    }
                }
            }
        }
        out
    }
}

/// Mask selecting the low `width` bits.
fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Activity, FnComponent, SettleMode, System};
    use crate::signal::SignalView;

    fn counting_system() -> (System, SignalId) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut sys = System::new();
        let out = sys.add_signal("count", 8);
        let state = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&state);
        sys.add_component(FnComponent::new(
            "ctr",
            crate::Ports::writes_only([out]),
            move |sigs: &mut SignalView<'_>| {
                sigs.set(out, state.load(Ordering::Relaxed));
            },
            move |_sigs: &SignalView<'_>| {
                s2.fetch_add(1, Ordering::Relaxed);
            },
        ));
        (sys, out)
    }

    #[test]
    fn trace_records_per_cycle_values() {
        let (mut sys, out) = counting_system();
        let mut trace = Trace::new();
        trace.watch("count", &sys, out);
        for _ in 0..5 {
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
        }
        assert_eq!(trace.len(), 5);
        assert_eq!(
            trace.history_of("count").unwrap(),
            vec![Some(0), Some(1), Some(2), Some(3), Some(4)]
        );
        assert!(trace.history_of("missing").is_none());
        assert!(!trace.is_empty());
    }

    #[test]
    fn vcd_output_is_well_formed() {
        let (mut sys, out) = counting_system();
        let flag = sys.add_signal("flag", 1);
        let mut trace = Trace::new();
        trace.watch("count", &sys, out);
        trace.watch("flag", &sys, flag);
        for i in 0..3 {
            sys.poke_bool(flag, i % 2 == 0);
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
        }
        let vcd = trace.to_vcd("tb");
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$var wire 8 ! count $end"));
        assert!(vcd.contains("$var wire 1 \" flag $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#2"));
        // Binary change lines for the 8-bit signal.
        assert!(vcd.contains("b1 !"));
        // Unchanged values are not re-emitted.
        let count_changes = vcd.matches("b10 !").count();
        assert_eq!(count_changes, 1);
    }

    /// Golden-output check: the exact document, byte for byte — the
    /// `$dumpvars` initial-value block and whitespace-sanitized labels
    /// are part of the contract (viewers misparse without them).
    #[test]
    fn vcd_golden_output_with_dumpvars_and_sanitized_labels() {
        let mut sys = System::new();
        let data = sys.add_signal("data", 4);
        let flag = sys.add_signal("flag", 1);
        let mut trace = Trace::new();
        trace.watch("bus value", &sys, data); // label with a space
        trace.watch("flag", &sys, flag);
        for (d, f) in [(3u64, true), (3, false), (9, false)] {
            sys.poke(data, d);
            sys.poke_bool(flag, f);
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
        }
        let expected = "\
$timescale 1ns $end
$scope module tb $end
$var wire 4 ! bus_value $end
$var wire 1 \" flag $end
$upscope $end
$enddefinitions $end
$dumpvars
b11 !
1\"
$end
#0
#1
0\"
#2
b1001 !
";
        assert_eq!(trace.to_vcd("tb"), expected);
    }

    /// The change-driven sampling path (activity kernel) must record
    /// exactly what the full-scan fallback (full sweep) records.
    #[test]
    fn change_driven_sampling_matches_full_scan() {
        let render = |mode: SettleMode| {
            let (mut sys, out) = counting_system();
            sys.set_settle_mode(mode);
            let flag = sys.add_signal("flag", 1);
            let mut trace = Trace::new();
            trace.watch("count", &sys, out);
            trace.watch("flag", &sys, flag);
            for i in 0..6 {
                sys.poke_bool(flag, i % 3 == 0);
                sys.settle().unwrap();
                trace.sample(&mut sys);
                sys.step().unwrap();
            }
            trace.to_vcd("tb")
        };
        let reference = render(SettleMode::FullSweep);
        assert_eq!(render(SettleMode::FastForward), reference);
    }

    /// Regression: watching a signal after sampling has begun used to
    /// leave earlier rows short and panic in `history`/`to_vcd`.
    #[test]
    fn late_watch_backfills_instead_of_panicking() {
        let (mut sys, out) = counting_system();
        let flag = sys.add_signal("flag", 1);
        sys.poke_bool(flag, true);
        let mut trace = Trace::new();
        trace.watch("count", &sys, out);
        for _ in 0..2 {
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
        }
        trace.watch("flag", &sys, flag);
        for _ in 0..2 {
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(
            trace.history_of("flag").unwrap(),
            vec![None, None, Some(1), Some(1)]
        );
        assert_eq!(
            trace.history_of("count").unwrap(),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
        let vcd = trace.to_vcd("tb");
        // The late signal is `x` in $dumpvars and first appears at #2
        // (after the count change of the same sample).
        assert!(vcd.contains("x\""), "{vcd}");
        assert!(vcd.contains("#2\nb10 !\n1\"\n"), "{vcd}");
    }

    /// Regression: `to_vcd` used to print the raw `u64` even when it
    /// exceeded the declared `$var` width. Values are now masked on
    /// sample *and* on emit.
    #[test]
    fn vcd_masks_values_to_declared_width() {
        // Construct the unmaskable state directly: a 4-bit signal with
        // an out-of-range recorded value (impossible through `sample`,
        // which masks — this guards the emit path).
        let trace = Trace {
            signals: vec![("narrow".into(), 4, SignalId(0))],
            changes: vec![vec![(0, 0xFF)]],
            times: vec![0],
        };
        let vcd = trace.to_vcd("tb");
        assert!(vcd.contains("b1111 !"), "{vcd}");
        assert!(!vcd.contains("b11111111"), "{vcd}");
    }

    /// Fast-forwarded spans appear as VCD time jumps: `#t` advances by
    /// the skipped amount instead of emitting empty per-cycle blocks.
    #[test]
    fn fast_forward_spans_record_as_time_jumps() {
        let mut sys = System::new();
        let out = sys.add_signal("pulse", 8);
        let state = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s2 = std::sync::Arc::clone(&state);
        sys.add_component(FnComponent::new(
            "pulser",
            crate::Ports::writes_only([out]),
            move |sigs: &mut SignalView<'_>| {
                sigs.set(out, state.load(std::sync::atomic::Ordering::Relaxed));
            },
            move |_sigs: &SignalView<'_>| {
                s2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Activity::Sleep(10)
            },
        ));
        let mut trace = Trace::new();
        trace.watch("pulse", &sys, out);
        let target = 35;
        while sys.cycle() < target {
            sys.settle().unwrap();
            trace.sample(&mut sys);
            sys.step().unwrap();
            sys.fast_forward(target);
        }
        // Visited cycles only: 0, then every 10th.
        assert_eq!(trace.len(), 4);
        let vcd = trace.to_vcd("tb");
        assert!(vcd.contains("#0\n"), "{vcd}");
        assert!(vcd.contains("#10\nb1 !\n"), "{vcd}");
        assert!(vcd.contains("#20\nb10 !\n"), "{vcd}");
        assert!(vcd.contains("#30\nb11 !\n"), "{vcd}");
        assert!(!vcd.contains("#5\n"), "{vcd}");
    }

    #[test]
    fn scope_name_is_sanitized_like_labels() {
        let (sys, out) = counting_system();
        let mut trace = Trace::new();
        trace.watch("count", &sys, out);
        let vcd = trace.to_vcd("my top");
        assert!(vcd.contains("$scope module my_top $end"));
    }

    #[test]
    fn empty_trace_dumps_unknown_initial_values() {
        let (sys, out) = counting_system();
        let mut trace = Trace::new();
        trace.watch("count", &sys, out);
        let vcd = trace.to_vcd("tb");
        assert!(vcd.contains("$dumpvars\nbx !\n$end\n"));
    }
}
