#![warn(missing_docs)]

//! Message-passing network substrate for the skip-webs reproduction.
//!
//! The PODC'05 skip-webs paper evaluates distributed data structures in a
//! peer-to-peer model (its §1.1) with exactly three observable costs:
//!
//! * `Q(n)` / `U(n)` — the number of **messages** needed to answer a query /
//!   perform an update,
//! * `M` — the **memory size** of a host (items + pointers + host IDs),
//! * `C(n)` — the **congestion** per host (local refs + remote refs + `n/H`).
//!
//! All three are combinatorial properties of the overlay: they do not depend
//! on wire latency, bandwidth, or failures (the paper assumes hosts do not
//! fail). This crate therefore provides two complementary substrates:
//!
//! 1. [`sim`] — a deterministic, single-threaded network that measures those
//!    costs *exactly* while structure walks execute. This is what every
//!    benchmark and experiment uses.
//! 2. [`runtime`] — an actor runtime (every host an actor with a mailbox,
//!    run by a worker pool of at most one thread per core, crossbeam
//!    channels) used by examples and integration tests to
//!    demonstrate that the very same routing steps work under real
//!    concurrent message passing. Unlike the paper's model, the runtime
//!    *does* let hosts fail: a crash tombstones only that host
//!    ([`runtime::HostState`]), the surviving fabric publishes a
//!    [`runtime::Membership`] view for failover routing, and hosts can be
//!    decommissioned or added live.
//!
//! Message delivery inside the runtime is pluggable through the
//! [`Transport`] trait: [`ChannelTransport`] keeps the original in-process
//! path, [`SimWanTransport`] injects seeded latency/reordering/loss, and
//! [`TcpTransport`] moves hosts into separate OS processes over loopback
//! TCP using the [`wire`] framing layer.
//!
//! # Example
//!
//! ```
//! use skipweb_net::sim::SimNetwork;
//! use skipweb_net::HostId;
//!
//! let mut net = SimNetwork::new(4);
//! let mut meter = net.meter();
//! meter.visit(HostId(0)); // query starts at its origin host: free
//! meter.visit(HostId(2)); // hop to another host: one message
//! meter.visit(HostId(2)); // intra-host pointer chase: free
//! meter.visit(HostId(1)); // one more message
//! assert_eq!(meter.messages(), 2);
//! net.absorb(&meter);
//! assert_eq!(net.metrics().total_messages, 2);
//! ```

pub mod metrics;
pub mod runtime;
pub mod sim;
pub mod tcp;
pub mod transport;
pub mod wan;
pub mod wire;

mod host;

pub use host::HostId;
pub use metrics::{CostReport, HostTraffic, SeriesStats, TransportStats};
pub use runtime::{HostState, Membership};
pub use sim::{MessageMeter, SimNetwork};
pub use tcp::{TcpCodec, TcpConfig, TcpTransport};
pub use transport::{CarryStatus, ChannelTransport, Transport};
pub use wan::{SimWanConfig, SimWanTransport};
