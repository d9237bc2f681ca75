//! Pluggable message transports for the actor [`runtime`](crate::runtime).
//!
//! The runtime meters and routes messages; a [`Transport`] decides how they
//! travel. Every host-to-host send and every host-to-client reply is handed
//! to the runtime's transport together with a one-shot delivery handle
//! ([`Delivery`] / [`ReplyDelivery`]) that injects the message into the
//! destination mailbox. A transport may invoke the handle synchronously
//! ([`ChannelTransport`], the default — zero behavior change against the
//! hard-wired channel path it replaced), hold it for later
//! ([`SimWanTransport`](crate::SimWanTransport) delays, reorders, and drops
//! under a seeded fault model), or drop it entirely and move bytes instead
//! ([`TcpTransport`](crate::TcpTransport) serializes onto loopback sockets
//! and re-injects through an [`Inbound`] handle on the destination process).
//!
//! Lifecycle traffic (stop markers, crash tombstones) never touches the
//! transport, so a lossy or wedged transport can never block shutdown.
//!
//! # Implementing a transport
//!
//! ```
//! use std::sync::Arc;
//!
//! use skipweb_net::metrics::Counter;
//! use skipweb_net::runtime::{Actor, Context, Delivery, ReplyDelivery, Runtime, Sender};
//! use skipweb_net::transport::{CarryStatus, Transport};
//! use skipweb_net::HostId;
//!
//! /// Counts every carried message, then delivers it in-process.
//! struct Counting {
//!     carried: Counter,
//! }
//!
//! impl<M, R> Transport<M, R> for Counting {
//!     fn carry(&self, msg: M, delivery: Delivery<M, R>) -> CarryStatus {
//!         self.carried.add(1);
//!         delivery.deliver(msg)
//!     }
//!     fn carry_reply(&self, reply: R, delivery: ReplyDelivery<M, R>) {
//!         delivery.deliver(reply);
//!     }
//! }
//!
//! // A two-host fabric where host 0 forwards to host 1, which replies.
//! struct Hop;
//! #[derive(Debug)]
//! struct Ping(skipweb_net::runtime::ClientId);
//! impl Actor for Hop {
//!     type Msg = Ping;
//!     type Reply = u32;
//!     fn on_message(&mut self, _from: Sender, Ping(c): Ping, ctx: &mut Context<'_, Ping, u32>) {
//!         if ctx.host() == HostId(0) {
//!             ctx.send(HostId(1), Ping(c));
//!         } else {
//!             ctx.reply(c, 7);
//!         }
//!     }
//! }
//!
//! let transport = Arc::new(Counting { carried: Counter::default() });
//! let rt = Runtime::spawn_with_transport(2, transport.clone(), |_| Hop);
//! let client = rt.client();
//! client.send(HostId(0), Ping(client.id())).unwrap();
//! assert_eq!(client.recv().unwrap(), 7);
//! // The client injection and the 0 -> 1 hop both rode the transport.
//! assert_eq!(transport.carried.get(), 2);
//! rt.shutdown();
//! ```

use crate::metrics::TransportStats;
use crate::runtime::{Delivery, Inbound, ReplyDelivery};

/// What happened to a message handed to [`Transport::carry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryStatus {
    /// Delivered synchronously into the destination mailbox (in-process
    /// transports).
    Delivered,
    /// Accepted by the transport; delivery happens asynchronously — or the
    /// fault model dropped the message and the sender cannot tell, exactly
    /// like a real network.
    InFlight,
    /// The destination mailbox is closed: the runtime has shut down.
    Closed,
}

/// How messages travel between hosts (and back to clients).
///
/// The runtime does all metering and failure-model bookkeeping *around* the
/// transport: per-host sent counters are charged when a message is handed to
/// [`carry`](Self::carry), received counters when the delivery handle
/// injects it, and sends to dead hosts are dropped before the transport ever
/// sees them. Implementations therefore only decide *how* (and whether) the
/// payload moves. See the [module docs](self) for a worked example, and
/// [`ChannelTransport`] / [`SimWanTransport`](crate::SimWanTransport) /
/// [`TcpTransport`](crate::TcpTransport) for the three shipped impls.
pub trait Transport<M, R>: Send + Sync {
    /// Carries one host-to-host message (or a client injection — see
    /// [`Delivery::from`]). Call `delivery.deliver(msg)` to hand the message
    /// to the destination mailbox, now or later; drop the handle to lose
    /// the message.
    fn carry(&self, msg: M, delivery: Delivery<M, R>) -> CarryStatus;

    /// Carries one host-to-client reply.
    fn carry_reply(&self, reply: R, delivery: ReplyDelivery<M, R>);

    /// Called once when a runtime adopts this transport, handing it the
    /// injection handle a multi-process transport needs to deliver messages
    /// arriving from remote peers. In-process transports ignore it.
    fn attach(&self, inbound: Inbound<M, R>) {
        let _ = inbound;
    }

    /// Whether this transport can lose messages. Retry layers widen their
    /// timeout-resubmit gates when this is `true` (a timeout is then a loss
    /// signature even with every host alive).
    fn is_lossy(&self) -> bool {
        false
    }

    /// Cumulative transport-level counters (frames, bytes, losses).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Releases transport resources (timer threads, sockets). Called by
    /// [`Runtime::shutdown`](crate::runtime::Runtime::shutdown) after the
    /// hosts and their workers have stopped; must be idempotent.
    fn shutdown(&self) {}
}

/// The default transport: synchronous in-process delivery over the fabric's
/// own channels — the exact path the runtime hard-wired before transports
/// were pluggable, with identical metering (the hop-parity suites against
/// the cost-model simulator stay exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTransport;

impl<M, R> Transport<M, R> for ChannelTransport {
    fn carry(&self, msg: M, delivery: Delivery<M, R>) -> CarryStatus {
        delivery.deliver(msg)
    }

    fn carry_reply(&self, reply: R, delivery: ReplyDelivery<M, R>) {
        delivery.deliver(reply);
    }
}
