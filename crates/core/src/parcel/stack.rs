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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agas::Gid;
    use crate::parcel::Parcel;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Once, Weak};
    use std::time::{Duration, Instant};

    fn chaos_stack(locality: u32) -> (Arc<dyn Parcelport>, Arc<TcpParcelport>) {
        build_stack(locality, &Stack::Chaos(ChaosSpec::pinned()), Arc::new(|_| {})).unwrap()
    }

    /// Panics raised on the stack's own threads since the hook went in.
    fn stack_thread_panics() -> usize {
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let name = std::thread::current().name().unwrap_or("").to_string();
                if name.starts_with("parallex-retx-") || name.starts_with("px-tcp-") {
                    PANICS.fetch_add(1, Ordering::Relaxed);
                }
                previous(info);
            }));
        });
        PANICS.load(Ordering::Relaxed)
    }

    #[test]
    fn a_shut_down_stack_is_freed() {
        let (top, tcp) = chaos_stack(0);
        let weak = Arc::downgrade(&top);
        top.shutdown();
        drop((top, tcp));
        assert!(weak.upgrade().is_none(), "the shut-down stack is still referenced");
    }

    #[test]
    fn stacks_dropped_with_parcels_in_flight_are_freed_without_a_self_join() {
        let panics = stack_thread_panics();
        let mut weaks: Vec<Weak<dyn Parcelport>> = Vec::new();
        for _ in 0..10 {
            let (a, tcp_a) = chaos_stack(0);
            let (b, tcp_b) = chaos_stack(1);
            tcp_a.connect_peer(1, tcp_b.local_addr()).unwrap();
            tcp_b.connect_peer(0, tcp_a.local_addr()).unwrap();
            for i in 0..50u64 {
                for (port, dest) in [(&a, 1), (&b, 0)] {
                    port.send(Parcel {
                        source: 1 - dest,
                        dest_locality: dest,
                        dest: Gid { origin: dest, lid: 1 },
                        action: 7,
                        payload: Bytes::from(i.to_le_bytes().repeat(8)),
                        response_token: None,
                    })
                    .unwrap();
                }
            }
            weaks.push(Arc::downgrade(&a));
            weaks.push(Arc::downgrade(&b));
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while weaks.iter().any(|w| w.strong_count() > 0) {
            assert!(Instant::now() < deadline, "a dropped stack outlived its threads by 1 s");
            std::thread::sleep(Duration::from_millis(5));
        }
        // A join on the dropping thread panics after the count hits zero.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(stack_thread_panics(), panics, "a stack thread panicked while the stacks dropped");
    }
}
