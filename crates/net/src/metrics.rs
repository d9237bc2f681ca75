//! Cost accounting matching §1.1 of the paper.
//!
//! The quantities tracked here are the columns of Table 1: `H`, `M`, `C(n)`,
//! `Q(n)`, and `U(n)`. [`CostReport`] is the summary every experiment prints.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Summary statistics over a set of observed per-operation costs
/// (e.g. messages per query).
///
/// # Example
///
/// ```
/// use skipweb_net::SeriesStats;
/// let s = SeriesStats::from_samples(&[1, 2, 3, 4, 5]);
/// assert_eq!(s.count, 5);
/// assert_eq!(s.max, 5);
/// assert!((s.mean - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeriesStats {
    /// Number of samples observed.
    pub count: usize,
    /// Arithmetic mean of the samples (0 when empty).
    pub mean: f64,
    /// Median (50th percentile, lower-nearest-rank; 0 when empty).
    pub p50: u64,
    /// 95th percentile (lower-nearest-rank; 0 when empty).
    pub p95: u64,
    /// Maximum sample (0 when empty).
    pub max: u64,
    /// Minimum sample (0 when empty).
    pub min: u64,
}

impl SeriesStats {
    /// Computes statistics from raw samples.
    ///
    /// # Example
    ///
    /// ```
    /// use skipweb_net::SeriesStats;
    /// assert_eq!(SeriesStats::from_samples(&[]).count, 0);
    /// ```
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let pct = |p: f64| -> u64 {
            let idx = ((count as f64 - 1.0) * p).floor() as usize;
            sorted[idx]
        };
        SeriesStats {
            count,
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            max: sorted[count - 1],
            min: sorted[0],
        }
    }
}

impl fmt::Display for SeriesStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.2} p50={} p95={} max={} (n={})",
            self.mean, self.p50, self.p95, self.max, self.count
        )
    }
}

/// A monotone event counter: messages, bytes, losses, ids handed out.
///
/// Every counter of the live fabric is one of these. Its value publishes no
/// other memory (nothing synchronizes on a count), so `Relaxed` is the
/// right ordering, and this type is the one place in the crate that says
/// so. [`add`](Self::add) is a single atomic read-modify-write.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` and returns the value before the add (so a counter doubles
    /// as a unique-id allocator).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-host message counters observed on a running network — the live
/// counterpart of the simulator's absorbed meters, produced by
/// [`Runtime::host_traffic`](crate::runtime::Runtime::host_traffic).
///
/// `sent[h]` / `received[h]` count host-to-host messages only (self-sends
/// and client injections/replies are free in the paper's cost model, so the
/// runtime does not count them either). `total_sent()` *is* the runtime's
/// global message count. `update_sent[h]` breaks out the share tagged as
/// update traffic (routing an insert/remove and its bottom-up repair) — the
/// live counterpart of keeping the paper's `Q(n)` and `U(n)` columns apart.
/// `dropped[h]` counts messages addressed to host `h` *after it crashed* —
/// lost on the wire, never delivered or counted as sent.
///
/// A coalesced multi-op envelope (batched operations sharing one host
/// crossing) counts once in `sent`/`received` — that is the point of
/// batching — and additionally in `batch_sent[h]` (envelopes) and
/// `batch_ops[h]` (the operations that rode inside them).
/// `stale_replies` counts late replies that clients discarded on arrival
/// because their correlation id had been abandoned by a timeout-resubmit (a
/// fabric-wide scalar: the runtime cannot attribute a client-side drop to
/// one host). `transport` is what the wire itself counted, read in the
/// same snapshot.
///
/// # Example
///
/// ```
/// use skipweb_net::{HostTraffic, TransportStats};
/// let t = HostTraffic {
///     sent: vec![3, 1],
///     received: vec![0, 4],
///     update_sent: vec![1, 0],
///     dropped: vec![0, 2],
///     batch_sent: vec![1, 1],
///     batch_ops: vec![3, 2],
///     stale_replies: 1,
///     transport: TransportStats::default(),
/// };
/// assert_eq!(t.total_sent(), 4);
/// assert_eq!(t.total_update_sent(), 1);
/// assert_eq!(t.total_query_sent(), 3);
/// assert_eq!(t.total_dropped(), 2);
/// assert_eq!(t.total_batch_sent(), 2);
/// assert_eq!(t.total_batch_ops(), 5);
/// assert_eq!(t.mean_batch_size(), 2.5);
/// assert_eq!(t.hosts(), 2);
/// assert!(t.to_string().contains("hosts=2 total=4 updates=1 batches=2 batched_ops=5 stale=1"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostTraffic {
    /// Messages sent by each host, indexed by host id.
    pub sent: Vec<u64>,
    /// Messages received by each host, indexed by host id.
    pub received: Vec<u64>,
    /// The update-tagged share of `sent`, indexed by host id.
    pub update_sent: Vec<u64>,
    /// Messages lost at each host because it had crashed, indexed by host
    /// id.
    pub dropped: Vec<u64>,
    /// Coalesced multi-op envelopes sent by each host (each also counted
    /// once in `sent` — one envelope is one host crossing).
    pub batch_sent: Vec<u64>,
    /// Operations that rode inside `batch_sent` envelopes, per host.
    pub batch_ops: Vec<u64>,
    /// Late replies clients dropped on arrival because their correlation id
    /// was abandoned by a timeout-resubmit (fabric-wide).
    pub stale_replies: u64,
    /// What the transport itself counted (see [`TransportStats`]).
    pub transport: TransportStats,
}

impl HostTraffic {
    /// Number of hosts covered.
    pub fn hosts(&self) -> usize {
        self.sent.len()
    }

    /// Total messages sent across all hosts (equals the total received).
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total update-tagged messages sent across all hosts — the live
    /// `U(n)` numerator.
    pub fn total_update_sent(&self) -> u64 {
        self.update_sent.iter().sum()
    }

    /// Total query-tagged messages sent across all hosts
    /// (`total_sent - total_update_sent`; saturating, since a snapshot
    /// taken while traffic flows is not atomic across the two counters).
    pub fn total_query_sent(&self) -> u64 {
        self.total_sent().saturating_sub(self.total_update_sent())
    }

    /// Total messages lost at crashed hosts — the observable cost of the
    /// crash window (zero on a healthy fabric).
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total coalesced multi-op envelopes sent across all hosts.
    pub fn total_batch_sent(&self) -> u64 {
        self.batch_sent.iter().sum()
    }

    /// Total operations that rode inside multi-op envelopes.
    pub fn total_batch_ops(&self) -> u64 {
        self.batch_ops.iter().sum()
    }

    /// Mean operations per multi-op envelope (0 when no envelope was sent)
    /// — how much coalescing the batching layer actually achieved.
    pub fn mean_batch_size(&self) -> f64 {
        let envelopes = self.total_batch_sent();
        if envelopes == 0 {
            return 0.0;
        }
        self.total_batch_ops() as f64 / envelopes as f64
    }
}

impl fmt::Display for HostTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hosts={} total={} updates={} batches={} batched_ops={} stale={} sent[{}] recv[{}]",
            self.hosts(),
            self.total_sent(),
            self.total_update_sent(),
            self.total_batch_sent(),
            self.total_batch_ops(),
            self.stale_replies,
            SeriesStats::from_samples(&self.sent),
            SeriesStats::from_samples(&self.received)
        )
    }
}

/// Cumulative counters of a [`Transport`](crate::transport::Transport):
/// what the wire itself did, as opposed to the per-host routing accounting
/// of [`HostTraffic`], which carries them as its `transport` field. The
/// in-process [`ChannelTransport`](crate::ChannelTransport) reports all
/// zeros; the simulated WAN counts its fault-model decisions; the TCP
/// transport counts frames and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to the transport (host-to-host sends, client
    /// injections, and replies).
    pub carried: u64,
    /// Messages the transport injected into a destination mailbox itself
    /// (asynchronous transports; synchronous in-process delivery and frames
    /// handed to a peer process are not re-counted here).
    pub delivered: u64,
    /// Messages the fault model dropped on the wire.
    pub lost: u64,
    /// Messages scheduled to arrive before an earlier message of the same
    /// link (latency-jitter reordering).
    pub reordered: u64,
    /// Wire bytes sent to peer processes (frame headers included).
    pub bytes_sent: u64,
    /// Wire bytes received from peer processes (frame headers included).
    pub bytes_received: u64,
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "carried={} delivered={} lost={} reordered={} tx_bytes={} rx_bytes={}",
            self.carried,
            self.delivered,
            self.lost,
            self.reordered,
            self.bytes_sent,
            self.bytes_received
        )
    }
}

/// The live counters behind a transport's [`TransportStats`], bumped by the
/// transport as it works; each counts only what its doc on
/// [`TransportStats`] says. A transport leaves the ones its wire cannot see
/// at zero.
#[derive(Debug, Default)]
pub(crate) struct TransportCounters {
    pub(crate) carried: Counter,
    pub(crate) delivered: Counter,
    pub(crate) lost: Counter,
    pub(crate) reordered: Counter,
    pub(crate) bytes_sent: Counter,
    pub(crate) bytes_received: Counter,
}

impl TransportCounters {
    /// The counters' values now.
    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            carried: self.carried.get(),
            delivered: self.delivered.get(),
            lost: self.lost.get(),
            reordered: self.reordered.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
        }
    }
}

/// The full cost report for one structure at one size — a row of Table 1.
///
/// `H`, `M`, `C(n)` are properties of the built structure; `Q(n)`/`U(n)` are
/// statistics over a batch of operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostReport {
    /// Number of hosts `H`.
    pub hosts: usize,
    /// Number of stored items `n`.
    pub items: usize,
    /// Maximum memory (items + pointers + host IDs) on any host — the `M` column.
    pub max_memory: u64,
    /// Mean memory across hosts.
    pub mean_memory: f64,
    /// Maximum congestion over hosts — the `C(n)` column (see
    /// [`SimNetwork::congestion`](crate::sim::SimNetwork::congestion)).
    pub max_congestion: f64,
    /// Messages per query — the `Q(n)` column.
    pub query_messages: SeriesStats,
    /// Messages per update — the `U(n)` column.
    pub update_messages: SeriesStats,
    /// Total messages absorbed by the network over the experiment.
    pub total_messages: u64,
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "H={} n={} M={} C={:.1} Q[{}] U[{}]",
            self.hosts,
            self.items,
            self.max_memory,
            self.max_congestion,
            self.query_messages,
            self.update_messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats_of_empty_is_zeroed() {
        let s = SeriesStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn series_stats_single_sample() {
        let s = SeriesStats::from_samples(&[42]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50, 42);
        assert_eq!(s.p95, 42);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
    }

    #[test]
    fn series_stats_percentiles_are_order_insensitive() {
        let a = SeriesStats::from_samples(&[5, 1, 4, 2, 3]);
        let b = SeriesStats::from_samples(&[1, 2, 3, 4, 5]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 3);
    }

    #[test]
    fn counter_sums_concurrent_adds_exactly() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn cost_report_display_mentions_all_columns() {
        let r = CostReport {
            hosts: 8,
            items: 64,
            max_memory: 12,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("H=8"));
        assert!(s.contains("n=64"));
        assert!(s.contains("M=12"));
    }
}
