//! Error types for netlist construction and validation.

use crate::id::{CellId, NetId, RomId};
use std::fmt;

/// An error found while validating a [`crate::Module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver (no cell output, ROM data bit, constant, or
    /// module input drives it).
    UndrivenNet {
        /// The offending net.
        net: NetId,
        /// Its debug name, when one was assigned.
        name: Option<String>,
    },
    /// A net is driven more than once.
    MultipleDrivers {
        /// The offending net.
        net: NetId,
    },
    /// A cell references a net id outside the module's arena.
    DanglingNet {
        /// The offending cell.
        cell: CellId,
        /// The out-of-range net id.
        net: NetId,
    },
    /// The combinational logic contains a cycle not broken by a flip-flop.
    CombinationalCycle {
        /// One net on the cycle, for diagnostics.
        net: NetId,
    },
    /// A ROM's content table does not match its address/data geometry.
    RomGeometry {
        /// The offending ROM.
        rom: RomId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A port references a net id outside the module's arena.
    DanglingPort {
        /// The port name.
        port: String,
        /// The out-of-range net id.
        net: NetId,
    },
    /// Two ports share the same name.
    DuplicatePort {
        /// The duplicated name.
        port: String,
    },
    /// A module's ports do not match the interface of the instance it
    /// is meant to fill.
    PortMismatch {
        /// The module whose interface was checked.
        module: String,
        /// Which port is missing, mis-sized or unexpected.
        detail: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet { net, name } => match name {
                Some(n) => write!(f, "net {net} ({n}) has no driver"),
                None => write!(f, "net {net} has no driver"),
            },
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net {net} has multiple drivers")
            }
            NetlistError::DanglingNet { cell, net } => {
                write!(f, "cell {cell} references out-of-range net {net}")
            }
            NetlistError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net {net}")
            }
            NetlistError::RomGeometry { rom, detail } => {
                write!(f, "rom {rom} geometry mismatch: {detail}")
            }
            NetlistError::DanglingPort { port, net } => {
                write!(f, "port {port} references out-of-range net {net}")
            }
            NetlistError::DuplicatePort { port } => {
                write!(f, "duplicate port name {port}")
            }
            NetlistError::PortMismatch { module, detail } => {
                write!(f, "module {module} does not fit its instance: {detail}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_usefully() {
        let e = NetlistError::UndrivenNet {
            net: NetId::from_index(3),
            name: Some("enable".to_owned()),
        };
        assert_eq!(e.to_string(), "net n3 (enable) has no driver");

        let e = NetlistError::CombinationalCycle {
            net: NetId::from_index(1),
        };
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NetlistError>();
    }
}
