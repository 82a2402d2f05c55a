//! Generic pearls: build a working IP from a dataflow program and a
//! compute function — the complete GAUT-like path from behavioural
//! description to encapsulated core — plus a matrix-multiply block IP.

use lis_proto::{Pearl, PortValues};
use lis_schedule::dataflow::DataflowProgram;
use lis_schedule::{Interface, IoSchedule, PortSpec, ScheduleBuilder};

/// The block-compute function of a [`DataflowPearl`]: per-input-port
/// collected tokens in, per-output-port token queues out.
pub type ComputeFn = Box<dyn FnMut(&[Vec<u64>]) -> Vec<Vec<u64>> + Send>;

/// A pearl whose schedule comes from a [`DataflowProgram`] and whose
/// computation is an arbitrary block function.
///
/// Per period, all tokens read are collected (per port, in arrival
/// order); when the period's first write cycle is reached, `compute`
/// maps the collected inputs to per-port output queues, which then
/// drain on the scheduled write cycles. This models a GAUT-style
/// "communicate – compute – communicate" datapath faithfully enough for
/// wrapper experiments on arbitrary scenarios.
pub struct DataflowPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    compute: ComputeFn,
    step: usize,
    collected: Vec<Vec<u64>>,
    pending: Vec<std::collections::VecDeque<u64>>,
}

impl std::fmt::Debug for DataflowPearl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowPearl")
            .field("name", &self.name)
            .field("schedule", &self.schedule.to_string())
            .finish()
    }
}

impl DataflowPearl {
    /// Creates a pearl from a dataflow program.
    ///
    /// `ports` declares the interface (must match the program's port
    /// counts); `compute` receives, per input port, the tokens read this
    /// period and must return, per output port, the tokens to write this
    /// period (counts must match the schedule).
    ///
    /// # Errors
    ///
    /// Propagates schedule-lowering errors from the program.
    ///
    /// # Panics
    ///
    /// Panics if `ports` disagrees with the program's port counts.
    pub fn new(
        name: impl Into<String>,
        ports: Vec<PortSpec>,
        program: &DataflowProgram,
        compute: impl FnMut(&[Vec<u64>]) -> Vec<Vec<u64>> + Send + 'static,
    ) -> Result<Self, lis_schedule::ScheduleError> {
        let interface = Interface::new(ports);
        let schedule = program.lower()?;
        assert_eq!(
            interface.input_count(),
            schedule.n_inputs(),
            "interface/program input mismatch"
        );
        assert_eq!(
            interface.output_count(),
            schedule.n_outputs(),
            "interface/program output mismatch"
        );
        let n_in = schedule.n_inputs();
        let n_out = schedule.n_outputs();
        Ok(DataflowPearl {
            name: name.into(),
            interface,
            schedule,
            compute: Box::new(compute),
            step: 0,
            collected: vec![Vec::new(); n_in],
            pending: vec![std::collections::VecDeque::new(); n_out],
        })
    }

    /// Index of the first cycle in the period that writes anything.
    fn first_write_step(&self) -> Option<usize> {
        self.schedule
            .steps()
            .iter()
            .position(|s| !s.writes.is_empty())
    }
}

impl Pearl for DataflowPearl {
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
            self.collected[port].push(inputs.get(port).expect("scheduled input"));
        }
        if Some(self.step) == self.first_write_step() {
            let produced = (self.compute)(&self.collected);
            assert_eq!(
                produced.len(),
                self.pending.len(),
                "compute must return one vec per output port"
            );
            for (q, vals) in self.pending.iter_mut().zip(produced) {
                q.extend(vals);
            }
            self.collected.iter_mut().for_each(Vec::clear);
        }
        for port in io.writes.iter() {
            outputs.set(port, self.pending[port].pop_front().unwrap_or(0));
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.collected.iter_mut().for_each(Vec::clear);
        self.pending.iter_mut().for_each(|q| q.clear());
    }
}

/// Matrix dimension of [`MatMulPearl`].
pub const MATMUL_DIM: usize = 4;

/// A 4×4 integer matrix-multiply block IP: streams in matrix A
/// (row-major) then matrix B, computes for 16 cycles, streams out
/// A·B — a classic HLS kernel with a two-input, one-output interface.
#[derive(Debug)]
pub struct MatMulPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    step: usize,
    a: Vec<u64>,
    b: Vec<u64>,
    c: std::collections::VecDeque<u64>,
}

impl MatMulPearl {
    /// Creates the pearl.
    pub fn new(name: impl Into<String>) -> Self {
        let n2 = MATMUL_DIM * MATMUL_DIM;
        let interface = Interface::new(vec![
            PortSpec::input("a", 32),
            PortSpec::input("b", 32),
            PortSpec::output("c", 64),
        ]);
        let schedule = ScheduleBuilder::new(2, 1)
            .repeat_io([0], [], n2)
            .repeat_io([1], [], n2)
            .quiet(n2)
            .repeat_io([], [0], n2)
            .build()
            .expect("matmul schedule is valid");
        MatMulPearl {
            name: name.into(),
            interface,
            schedule,
            step: 0,
            a: Vec::with_capacity(n2),
            b: Vec::with_capacity(n2),
            c: std::collections::VecDeque::new(),
        }
    }
}

impl Pearl for MatMulPearl {
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
        let n2 = MATMUL_DIM * MATMUL_DIM;
        let io = self.schedule.at(self.step);
        if io.reads.contains(0) {
            self.a.push(inputs.get(0).expect("scheduled A element"));
        }
        if io.reads.contains(1) {
            self.b.push(inputs.get(1).expect("scheduled B element"));
        }
        // Compute on the last quiet cycle.
        if self.step == 3 * n2 - 1 {
            self.c.clear();
            for i in 0..MATMUL_DIM {
                for j in 0..MATMUL_DIM {
                    let mut acc = 0u64;
                    for (k, _) in (0..MATMUL_DIM).enumerate() {
                        acc = acc.wrapping_add(
                            self.a[i * MATMUL_DIM + k].wrapping_mul(self.b[k * MATMUL_DIM + j]),
                        );
                    }
                    self.c.push_back(acc);
                }
            }
            self.a.clear();
            self.b.clear();
        }
        if io.writes.contains(0) {
            outputs.set(0, self.c.pop_front().unwrap_or(0));
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.a.clear();
        self.b.clear();
        self.c.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_schedule::dataflow::DataflowOp;

    fn drive(
        pearl: &mut dyn Pearl,
        periods: usize,
        mut input_for: impl FnMut(usize, usize) -> u64,
    ) -> Vec<Vec<u64>> {
        let n_in = pearl.interface().input_count();
        let n_out = pearl.interface().output_count();
        let mut seen = vec![0usize; n_in];
        let mut outs = vec![Vec::new(); n_out];
        for t in 0..periods * pearl.schedule().period() {
            let io = pearl.schedule().at(t);
            let mut inputs = PortValues::empty(n_in);
            for port in io.reads.iter() {
                inputs.set(port, input_for(port, seen[port]));
                seen[port] += 1;
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
    fn dataflow_pearl_runs_a_custom_kernel() {
        // Read 4 values, compute, write their max then their min.
        let program = DataflowProgram::new(
            1,
            1,
            vec![
                DataflowOp::repeat(4, vec![DataflowOp::read(0)]),
                DataflowOp::compute(3),
                DataflowOp::repeat(2, vec![DataflowOp::write(0)]),
            ],
        );
        let mut pearl = DataflowPearl::new(
            "minmax",
            vec![PortSpec::input("x", 32), PortSpec::output("y", 32)],
            &program,
            |collected| {
                let xs = &collected[0];
                let max = *xs.iter().max().expect("4 inputs");
                let min = *xs.iter().min().expect("4 inputs");
                vec![vec![max, min]]
            },
        )
        .unwrap();
        assert_eq!(pearl.schedule().period(), 9);

        let data = [7u64, 3, 9, 1, 10, 20, 5, 15];
        let outs = drive(&mut pearl, 2, |_, nth| data[nth]);
        assert_eq!(outs[0], vec![9, 1, 20, 5]);
    }

    #[test]
    fn dataflow_pearl_reset_clears_state() {
        let program = DataflowProgram::new(1, 1, vec![DataflowOp::read(0), DataflowOp::write(0)]);
        let mut pearl = DataflowPearl::new(
            "echo",
            vec![PortSpec::input("x", 8), PortSpec::output("y", 8)],
            &program,
            |c| vec![c[0].clone()],
        )
        .unwrap();
        let mut ins = PortValues::empty(1);
        ins.set(0, 42);
        pearl.clock(&ins, &mut PortValues::empty(1));
        pearl.reset();
        // After reset, the first period starts fresh.
        let mut ins = PortValues::empty(1);
        ins.set(0, 7);
        pearl.clock(&ins, &mut PortValues::empty(1));
        let mut out = PortValues::empty(1);
        pearl.clock(&PortValues::empty(1), &mut out);
        // period = 2: write happens at step 1.
        assert!(out.get(0).is_none() || out.get(0) == Some(7));
    }

    #[test]
    fn matmul_pearl_multiplies_identity() {
        let mut pearl = MatMulPearl::new("mm");
        assert_eq!(pearl.schedule().period(), 64);
        // A = identity, B = 0..16 -> C = B.
        let outs = drive(&mut pearl, 1, |port, nth| match port {
            0 => u64::from(nth % MATMUL_DIM == nth / MATMUL_DIM),
            1 => nth as u64,
            _ => unreachable!(),
        });
        assert_eq!(outs[0], (0..16).map(|v| v as u64).collect::<Vec<_>>());
    }

    #[test]
    fn matmul_pearl_matches_reference() {
        let a: Vec<u64> = (1..=16).collect();
        let b: Vec<u64> = (17..=32).collect();
        let mut reference = vec![0u64; 16];
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    reference[i * 4 + j] =
                        reference[i * 4 + j].wrapping_add(a[i * 4 + k].wrapping_mul(b[k * 4 + j]));
                }
            }
        }
        let mut pearl = MatMulPearl::new("mm");
        let (a2, b2) = (a.clone(), b.clone());
        let outs = drive(&mut pearl, 1, move |port, nth| match port {
            0 => a2[nth],
            1 => b2[nth],
            _ => unreachable!(),
        });
        assert_eq!(outs[0], reference);
    }

    #[test]
    fn matmul_schedule_compresses_to_four_burst_ops() {
        let pearl = MatMulPearl::new("mm");
        let program = lis_schedule::compress_bursty(pearl.schedule());
        assert_eq!(program.len(), 3, "{program}");
        // read A (16), read B (16) + 16 quiet fold, write C (16).
        assert_eq!(program.ops()[0].run_cycles, 16);
        assert_eq!(program.ops()[1].run_cycles, 32);
        assert_eq!(program.ops()[2].run_cycles, 16);
    }
}
