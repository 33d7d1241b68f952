//! The one place a locality's parcelport stack is assembled.
//!
//! Every stack has the TCP socket transport at the bottom. The resilient
//! stacks put the reliable-delivery layer on top, and a chaos stack adds
//! the seeded fault injector between the two. Outbound parcels go down
//! the stack and inbound events climb back up it to the owner's sink.
//! A [`crate::locality::Cluster`] and a process that drives one locality
//! on its own get their stacks from the same [`build_stack`].

use super::tcp::{TcpConfig, TcpParcelport};
use super::{Parcelport, PortSink};
use crate::error::{Error, Result};
use crate::resilience::{
    ChaosSpec, FaultPlan, FaultyParcelport, ReliableConfig, ReliableParcelport,
};
use std::sync::Arc;

/// Which layers sit on top of the TCP socket.
#[derive(Clone, Debug)]
pub enum Stack {
    /// TCP alone: framing and coalescing.
    Tcp,
    /// Reliable delivery (sequence numbers, acks, retransmission, dedup)
    /// over TCP.
    Reliable,
    /// Reliable delivery over the fault injector over TCP. Each locality
    /// draws its faults from its own [`FaultPlan`] stream of the spec.
    Chaos(ChaosSpec),
}

/// Build the stack of locality `locality`, listening on an ephemeral
/// loopback port; inbound parcels and peer losses reach `sink`.
///
/// Returns the top of the stack, which is all a sender needs, and the TCP
/// layer for addressing only: publish its `local_addr` to the peers and
/// `connect_peer` to theirs, then drop it.
pub fn build_stack(
    locality: u32,
    stack: &Stack,
    sink: PortSink,
) -> Result<(Arc<dyn Parcelport>, Arc<TcpParcelport>)> {
    let bind = |sink| {
        let addr = "127.0.0.1:0".parse().expect("loopback addr");
        TcpParcelport::bind(locality, addr, sink, TcpConfig::default())
            .map_err(|e| Error::Io(e.to_string()))
    };
    let chaos = match stack {
        Stack::Tcp => {
            let tcp = bind(sink)?;
            return Ok((tcp.clone(), tcp));
        }
        Stack::Reliable => None,
        Stack::Chaos(spec) => Some(spec),
    };
    let rel = ReliableParcelport::new(locality, ReliableConfig::default(), sink);
    let tcp = bind(rel.inbound_sink())?;
    let inner: Arc<dyn Parcelport> = match chaos {
        Some(spec) => {
            let plan = FaultPlan::for_stream(spec.clone(), locality as u64);
            FaultyParcelport::new(tcp.clone(), Arc::new(plan))
        }
        None => tcp.clone(),
    };
    rel.attach_inner(inner);
    Ok((rel, tcp))
}
