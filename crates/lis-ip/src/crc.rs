//! CRC-32 (IEEE 802.3) — a bytewise streaming checksum IP with an
//! RS-like every-cycle I/O schedule (the FSM-hostile shape, at a small
//! port count).

use lis_proto::{Pearl, PortValues};
use lis_schedule::{Interface, IoSchedule, PortSpec, ScheduleBuilder};

/// The reflected CRC-32 polynomial (IEEE 802.3).
pub const CRC32_POLY: u32 = 0xEDB8_8320;

/// Computes the CRC-32 of `data` (reference implementation).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= CRC32_POLY;
            }
        }
    }
    !crc
}

/// Block length (bytes) of one [`CrcPearl`] frame.
pub const CRC_FRAME_BYTES: usize = 64;

/// A streaming CRC-32 pearl: ingests one byte per cycle; after each
/// 64-byte frame, emits the frame's CRC-32 on its second port while the
/// next frame already streams in.
///
/// Schedule shape: period 64, every cycle reads `byte`; the final cycle
/// additionally writes `crc` — 64 sync points, run 1 (the RS-like
/// worst case for FSM wrappers, at 1-in/1-out).
#[derive(Debug)]
pub struct CrcPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    step: usize,
    crc: u32,
}

impl CrcPearl {
    /// Creates the pearl.
    pub fn new(name: impl Into<String>) -> Self {
        let interface = Interface::new(vec![
            PortSpec::input("byte", 8),
            PortSpec::output("crc", 32),
        ]);
        let mut builder = ScheduleBuilder::new(1, 1);
        for i in 0..CRC_FRAME_BYTES {
            if i == CRC_FRAME_BYTES - 1 {
                builder = builder.io([0], [0]);
            } else {
                builder = builder.read(0);
            }
        }
        let schedule = builder.build().expect("crc schedule is valid");
        CrcPearl {
            name: name.into(),
            interface,
            schedule,
            step: 0,
            crc: 0xFFFF_FFFF,
        }
    }
}

impl Pearl for CrcPearl {
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
            let byte = inputs.get(0).expect("scheduled byte") as u8;
            self.crc ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = self.crc & 1;
                self.crc >>= 1;
                if lsb != 0 {
                    self.crc ^= CRC32_POLY;
                }
            }
        }
        if io.writes.contains(0) {
            out.set(0, u64::from(!self.crc));
            self.crc = 0xFFFF_FFFF;
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.crc = 0xFFFF_FFFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_schedule::compress;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn pearl_matches_reference_per_frame() {
        let mut pearl = CrcPearl::new("crc");
        let data: Vec<u8> = (0..2 * CRC_FRAME_BYTES as u32)
            .map(|i| (i * 7) as u8)
            .collect();
        let mut outs = Vec::new();
        for (i, &byte) in data.iter().enumerate() {
            let mut ins = PortValues::empty(1);
            ins.set(0, u64::from(byte));
            let mut produced = PortValues::empty(1);
            pearl.clock(&ins, &mut produced);
            if let Some(v) = produced.get(0) {
                outs.push(v as u32);
            }
            let _ = i;
        }
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], crc32(&data[..CRC_FRAME_BYTES]));
        assert_eq!(outs[1], crc32(&data[CRC_FRAME_BYTES..]));
    }

    #[test]
    fn schedule_is_the_fsm_hostile_shape() {
        let pearl = CrcPearl::new("crc");
        assert_eq!(pearl.schedule().period(), CRC_FRAME_BYTES);
        assert_eq!(pearl.schedule().sync_points(), CRC_FRAME_BYTES);
        let program = compress(pearl.schedule());
        assert_eq!(program.len(), CRC_FRAME_BYTES);
        assert_eq!(program.max_run(), 1);
    }

    #[test]
    fn reset_restarts_the_frame() {
        let mut pearl = CrcPearl::new("crc");
        let mut ins = PortValues::empty(1);
        ins.set(0, 0xAB);
        pearl.clock(&ins, &mut PortValues::empty(1));
        pearl.reset();
        assert_eq!(pearl.step, 0);
        assert_eq!(pearl.crc, 0xFFFF_FFFF);
    }
}
