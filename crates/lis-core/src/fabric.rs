//! One assembly API over lane width.
//!
//! A [`Fabric`] assembles wrapped IPs, relay-station links and traffic
//! endpoints into one system of [`Fabric::lanes`] scenario lanes. The
//! [`crate::SocBuilder`] is the one-lane instance, on the scalar
//! plumbing; the [`crate::FleetBuilder`] holds up to
//! [`lis_sim::LANES`] lanes on the packed plumbing. Code written once
//! against the trait (lis-topo's topology walk) builds solo SoCs and
//! fleet batches alike.

use lis_netlist::Module;
use lis_proto::{LisChannel, Pearl, StallPattern};
use lis_wrappers::{SyncPolicy, WrapperKind};

/// Handle to an encapsulated IP: its name and one channel per pearl
/// port. Channels are [`LisChannel`]s in a [`crate::SocBuilder`] and
/// packed channels carrying every lane of a port in a
/// [`crate::FleetBuilder`].
#[derive(Debug, Clone)]
pub struct IpHandle<C = LisChannel> {
    /// Instance name.
    pub name: String,
    /// Input channels, in pearl input-port order.
    pub inputs: Vec<C>,
    /// Output channels, in pearl output-port order.
    pub outputs: Vec<C>,
}

/// A system under construction whose every component carries
/// [`Fabric::lanes`] independent scenario lanes.
///
/// Methods that take one value per lane (pearls, policies, and the
/// `per_lane` closures of [`Fabric::feed`] and [`Fabric::capture`])
/// are asked for lanes `0..lanes()`.
pub trait Fabric {
    /// A channel carrying every lane of one port.
    type Channel: Clone;

    /// Number of scenario lanes.
    fn lanes(&self) -> usize;

    /// Allocates a free-standing staging channel (useful between a
    /// source and a relayed link).
    fn channel(&mut self, name: &str, width: u32) -> Self::Channel;

    /// Connects producer channel `from` to consumer channel `to`
    /// through `relay_count` relay stations and one zero-latency wire.
    fn link(&mut self, from: &Self::Channel, to: &Self::Channel, relay_count: usize);

    /// Attaches a token source to `channel`; `per_lane(k)` supplies
    /// lane `k`'s tokens, stall pattern and stall seed.
    fn feed(
        &mut self,
        name: impl Into<String>,
        channel: &Self::Channel,
        per_lane: impl FnMut(usize) -> (Vec<u64>, StallPattern, u64),
    );

    /// Attaches a recording sink to `channel`; `per_lane(k)` supplies
    /// lane `k`'s back-pressure pattern and seed.
    fn capture(
        &mut self,
        name: impl Into<String>,
        channel: &Self::Channel,
        per_lane: impl FnMut(usize) -> (StallPattern, u64),
    );

    /// Encapsulates one pearl per lane behind a behavioural wrapper
    /// running that lane's synchronization policy.
    ///
    /// # Panics
    ///
    /// Panics unless `pearls` and `policies` hold one entry per lane.
    fn add_ip_with_policies(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        policies: Vec<Box<dyn SyncPolicy>>,
    ) -> IpHandle<Self::Channel>;

    /// Encapsulates one pearl per lane behind the *complete* gate-level
    /// shell around `controller` (the controller plus one gate-level
    /// FIFO per port).
    ///
    /// The controller must implement the pearls' schedule: the shell
    /// records no violations, so a wrong program shows only in the
    /// token streams.
    ///
    /// # Panics
    ///
    /// Panics unless `pearls` holds one pearl per lane, all of one
    /// interface shape.
    fn add_ip_full_netlist_with_controller(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: Module,
    ) -> IpHandle<Self::Channel>;

    /// Encapsulates one pearl per lane behind the behavioural wrapper
    /// of `kind`.
    ///
    /// # Panics
    ///
    /// As [`Fabric::add_ip_with_policies`].
    fn add_ip(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        kind: WrapperKind,
    ) -> IpHandle<Self::Channel> {
        let policies = pearls
            .iter()
            .map(|p| kind.make_policy(p.schedule()))
            .collect();
        self.add_ip_with_policies(name, pearls, policies)
    }

    /// Encapsulates one pearl per lane behind the complete gate-level
    /// shell running the controller of `kind`.
    ///
    /// # Panics
    ///
    /// As [`Fabric::add_ip_full_netlist_with_controller`], and naming
    /// the IP if `kind` is [`WrapperKind::Comb`] or
    /// [`WrapperKind::ShiftReg`]: their controllers do not pop and push
    /// on the pearl's schedule (see [`WrapperKind::shell_controller`]).
    fn add_ip_full_netlist(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        kind: WrapperKind,
    ) -> IpHandle<Self::Channel> {
        let name = name.into();
        let schedule = pearls.first().expect("one pearl per lane").schedule();
        let controller = kind.shell_controller(&name, schedule);
        self.add_ip_full_netlist_with_controller(name, pearls, controller)
    }
}
