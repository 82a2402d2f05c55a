//! Pearls: suspendable synchronous IPs, ready for encapsulation.
//!
//! In the LIS methodology an IP becomes a *patient process* by
//! encapsulation: the shell gates the pearl's clock so the pearl only
//! ever observes cycles where its scheduled I/O is possible. A [`Pearl`]
//! therefore exposes exactly three things: its port [`Interface`], its
//! cyclic [`IoSchedule`], and a [`Pearl::clock`] method executed once per
//! *enabled* cycle.

use lis_schedule::{Interface, IoSchedule};
use std::fmt;

/// Token values crossing a pearl's boundary in one enabled cycle.
///
/// Indexed by *directional* port index (input ports and output ports
/// count separately, matching the schedule's masks). `None` marks ports
/// without traffic this cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortValues {
    values: Vec<Option<u64>>,
}

impl PortValues {
    /// Creates a frame for `n` ports, all absent.
    pub fn empty(n: usize) -> Self {
        PortValues {
            values: vec![None; n],
        }
    }

    /// Creates a frame from explicit per-port values.
    pub fn from_values(values: Vec<Option<u64>>) -> Self {
        PortValues { values }
    }

    /// Number of ports in the frame.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the frame covers zero ports.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value on port `port`, if any.
    pub fn get(&self, port: usize) -> Option<u64> {
        self.values.get(port).copied().flatten()
    }

    /// Sets the value on port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set(&mut self, port: usize, value: u64) {
        self.values[port] = Some(value);
    }

    /// Marks every port absent, keeping the frame's size and storage.
    pub fn clear(&mut self) {
        self.values.fill(None);
    }

    /// Ports carrying a value this cycle.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i, v)))
    }
}

impl fmt::Display for PortValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match v {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "·")?,
            }
        }
        write!(f, "]")
    }
}

/// A suspendable synchronous IP.
///
/// The shell calls [`Pearl::clock`] exactly once per enabled cycle, in
/// schedule order: on enabled cycle `t`, `inputs` carries a value for
/// every port in `schedule().at(t).reads`, and the pearl must set a
/// value in `outputs` for every port in `schedule().at(t).writes` (and
/// no others). The shell owns both frames and reuses them from cycle to
/// cycle, so clocking a pearl allocates nothing. [`Pearl::reset`]
/// rewinds to enabled cycle 0.
pub trait Pearl: Send {
    /// Instance name.
    fn name(&self) -> &str;

    /// The LIS-visible port interface.
    fn interface(&self) -> &Interface;

    /// The cyclic I/O schedule the wrapper enforces.
    fn schedule(&self) -> &IoSchedule;

    /// Executes one enabled cycle, writing its outputs into `outputs`:
    /// one slot per output port, every slot absent on entry.
    fn clock(&mut self, inputs: &PortValues, outputs: &mut PortValues);

    /// Returns to the power-up state (enabled cycle 0).
    fn reset(&mut self);

    /// Appends the pearl's architectural state as plain words, for
    /// checkpointing. Stateless pearls keep the empty default; stateful
    /// ones must override both this and [`Pearl::load_state`] so a
    /// restored run continues bit-identically.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores state captured by [`Pearl::save_state`].
    fn load_state(&mut self, data: &[u64]) {
        let _ = data;
    }
}

/// A trivial pearl for tests and examples: reads one word per period on
/// every input port, computes for `latency` cycles, then writes the sum
/// of the inputs (plus an accumulator) on every output port.
#[derive(Debug)]
pub struct AccumulatorPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    step: usize,
    held: Vec<u64>,
    acc: u64,
}

impl AccumulatorPearl {
    /// Creates a pearl with `n_in` inputs, `n_out` outputs and a compute
    /// latency of `latency` cycles per period.
    ///
    /// # Panics
    ///
    /// Panics if `n_in == 0` or `n_out == 0`.
    pub fn new(name: impl Into<String>, n_in: usize, n_out: usize, latency: usize) -> Self {
        use lis_schedule::{PortSpec, ScheduleBuilder};
        assert!(n_in > 0 && n_out > 0, "accumulator needs ports");
        let mut ports = Vec::new();
        for i in 0..n_in {
            ports.push(PortSpec::input(format!("in{i}"), 32));
        }
        for i in 0..n_out {
            ports.push(PortSpec::output(format!("out{i}"), 32));
        }
        let schedule = ScheduleBuilder::new(n_in, n_out)
            .io(0..n_in, [])
            .quiet(latency)
            .io([], 0..n_out)
            .build()
            .expect("accumulator schedule is valid");
        AccumulatorPearl {
            name: name.into(),
            interface: Interface::new(ports),
            schedule,
            step: 0,
            held: vec![0; n_in],
            acc: 0,
        }
    }
}

impl Pearl for AccumulatorPearl {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> &Interface {
        &self.interface
    }

    fn schedule(&self) -> &IoSchedule {
        &self.schedule
    }

    fn clock(&mut self, inputs: &PortValues, outputs: &mut PortValues) {
        let io = self.schedule.at(self.step);
        for port in io.reads.iter() {
            self.held[port] = inputs
                .get(port)
                .expect("shell guarantees scheduled inputs are present");
        }
        if !io.writes.is_empty() {
            self.acc = self
                .acc
                .wrapping_add(self.held.iter().copied().fold(0u64, u64::wrapping_add));
            for port in io.writes.iter() {
                outputs.set(port, self.acc);
            }
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.held.iter_mut().for_each(|h| *h = 0);
        self.acc = 0;
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.step as u64);
        out.push(self.acc);
        out.push(self.held.len() as u64);
        out.extend(self.held.iter().copied());
    }

    fn load_state(&mut self, data: &[u64]) {
        self.step = data[0] as usize;
        self.acc = data[1];
        let n = data[2] as usize;
        self.held = data[3..3 + n].to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_values_access() {
        let mut pv = PortValues::empty(3);
        assert_eq!(pv.len(), 3);
        assert!(!pv.is_empty());
        assert_eq!(pv.get(1), None);
        pv.set(1, 42);
        assert_eq!(pv.get(1), Some(42));
        assert_eq!(pv.occupied().collect::<Vec<_>>(), vec![(1, 42)]);
        assert_eq!(pv.to_string(), "[·, 42, ·]");
        assert_eq!(pv.get(17), None, "out of range reads are None");
        pv.clear();
        assert_eq!(pv, PortValues::empty(3), "clear keeps the frame size");
    }

    /// Clocks `p` once into a fresh output frame.
    fn clock(p: &mut AccumulatorPearl, inputs: &PortValues) -> PortValues {
        let mut out = PortValues::empty(p.schedule().n_outputs());
        p.clock(inputs, &mut out);
        out
    }

    #[test]
    fn accumulator_pearl_follows_its_schedule() {
        let mut p = AccumulatorPearl::new("acc", 2, 1, 3);
        assert_eq!(p.schedule().period(), 5);
        assert_eq!(p.schedule().sync_points(), 2);
        assert_eq!(p.interface().input_count(), 2);

        // Enabled cycle 0: reads both ports.
        let mut ins = PortValues::empty(2);
        ins.set(0, 10);
        ins.set(1, 5);
        let out = clock(&mut p, &ins);
        assert_eq!(out.occupied().count(), 0);
        // Quiet cycles.
        for _ in 0..3 {
            let out = clock(&mut p, &PortValues::empty(2));
            assert_eq!(out.occupied().count(), 0);
        }
        // Write cycle: emits accumulated sum.
        let out = clock(&mut p, &PortValues::empty(2));
        assert_eq!(out.get(0), Some(15));

        // Second period accumulates again.
        let mut ins = PortValues::empty(2);
        ins.set(0, 1);
        ins.set(1, 2);
        clock(&mut p, &ins);
        for _ in 0..3 {
            clock(&mut p, &PortValues::empty(2));
        }
        let out = clock(&mut p, &PortValues::empty(2));
        assert_eq!(out.get(0), Some(18));
    }

    #[test]
    fn reset_rewinds_to_cycle_zero() {
        let mut p = AccumulatorPearl::new("acc", 1, 1, 0);
        let mut ins = PortValues::empty(1);
        ins.set(0, 7);
        clock(&mut p, &ins);
        p.reset();
        let mut ins = PortValues::empty(1);
        ins.set(0, 3);
        clock(&mut p, &ins);
        let out = clock(&mut p, &PortValues::empty(1));
        assert_eq!(out.get(0), Some(3), "accumulator cleared by reset");
    }
}
