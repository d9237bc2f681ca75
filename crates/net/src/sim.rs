//! Deterministic simulated network with exact message accounting.
//!
//! A structure walk (query or update) carries a [`MessageMeter`]. Every time
//! the walk touches a datum it calls [`MessageMeter::visit`] with that datum's
//! home host; the meter counts one message whenever the host changes, which
//! is precisely the paper's cost model: a host "processes the query as far as
//! it can internally" for free, and inter-host hyperlink traversals cost one
//! message each (§2.5).
//!
//! [`SimNetwork`] aggregates meters into per-host congestion counters and
//! also carries the static per-host storage accounting used for the `M` and
//! `C(n)` columns of Table 1.

use crate::host::HostId;
use crate::metrics::{CostReport, SeriesStats};

/// Per-operation message meter.
///
/// Create one with [`SimNetwork::meter`] (or [`MessageMeter::new`] for
/// stand-alone use), call [`visit`](Self::visit) for every datum touched,
/// then hand it back via [`SimNetwork::absorb`].
#[derive(Debug, Clone, Default)]
pub struct MessageMeter {
    current: Option<HostId>,
    messages: u64,
    /// Host visit trail: one entry per *host transition* (not per datum touch).
    trail: Vec<HostId>,
    /// Datum touches per host, merged into the network's congestion counters.
    touches: Vec<(HostId, u64)>,
}

impl MessageMeter {
    /// Creates a meter not yet positioned at any host; the first
    /// [`visit`](Self::visit) sets the origin for free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that the walk touches a datum stored on `host`.
    ///
    /// Counts one message if `host` differs from the previous visited host.
    /// The very first visit establishes the origin host and is free (the
    /// paper assumes each host has a local root to start from).
    pub fn visit(&mut self, host: HostId) {
        let moved = match self.current {
            Some(cur) => cur != host,
            None => {
                self.trail.push(host);
                false
            }
        };
        if moved {
            self.messages += 1;
            self.trail.push(host);
        }
        self.current = Some(host);
        match self.touches.last_mut() {
            Some((h, c)) if *h == host => *c += 1,
            _ => self.touches.push((host, 1)),
        }
    }

    /// Number of inter-host messages counted so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The host currently holding the walk, if any visit happened.
    pub fn current_host(&self) -> Option<HostId> {
        self.current
    }

    /// The sequence of distinct hosts visited, in order (origin first).
    pub fn trail(&self) -> &[HostId] {
        &self.trail
    }

    /// Adds `extra` messages that are not host transitions (e.g. the final
    /// answer being shipped back to the query origin, when an experiment
    /// chooses to charge for it).
    pub fn charge(&mut self, extra: u64) {
        self.messages += extra;
    }
}

/// Deterministic single-threaded network of `H` hosts.
///
/// Tracks, per host: storage units (items + pointers + host IDs), reference
/// counts (for the paper's congestion measure), and operational touch counts
/// absorbed from [`MessageMeter`]s.
///
/// # Example
///
/// ```
/// use skipweb_net::{HostId, SimNetwork};
///
/// let mut net = SimNetwork::new(2);
/// net.add_storage(HostId(0), 5);
/// net.add_refs(HostId(0), 3, 2);
/// net.set_items(10);
/// assert_eq!(net.max_memory(), 5);
/// // congestion = local refs + remote refs + n/H = 3 + 2 + 5
/// assert_eq!(net.congestion(HostId(0)), 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimNetwork {
    storage: Vec<u64>,
    local_refs: Vec<u64>,
    remote_refs: Vec<u64>,
    touches: Vec<u64>,
    items: usize,
    total_messages: u64,
    query_samples: Vec<u64>,
    update_samples: Vec<u64>,
}

impl SimNetwork {
    /// Creates a network with `hosts` hosts and no stored data.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero — the paper's model always has at least one
    /// host.
    pub fn new(hosts: usize) -> Self {
        assert!(hosts > 0, "a peer-to-peer network needs at least one host");
        SimNetwork {
            storage: vec![0; hosts],
            local_refs: vec![0; hosts],
            remote_refs: vec![0; hosts],
            touches: vec![0; hosts],
            items: 0,
            total_messages: 0,
            query_samples: Vec::new(),
            update_samples: Vec::new(),
        }
    }

    /// Number of hosts `H`.
    pub fn hosts(&self) -> usize {
        self.storage.len()
    }

    /// Declares the current ground-set size `n` (used by the `n/H` term of
    /// the congestion measure).
    pub fn set_items(&mut self, n: usize) {
        self.items = n;
    }

    /// Ground-set size `n` last declared.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Creates a fresh per-operation meter.
    pub fn meter(&self) -> MessageMeter {
        MessageMeter::new()
    }

    /// Adds `units` of storage (items, structure nodes, pointers, host IDs)
    /// to `host`, per the paper's definition of memory size `M`.
    pub fn add_storage(&mut self, host: HostId, units: u64) {
        self.storage[host.index()] += units;
    }

    /// Removes up to `units` of storage from `host` (saturating at zero).
    pub fn remove_storage(&mut self, host: HostId, units: u64) {
        let s = &mut self.storage[host.index()];
        *s = s.saturating_sub(units);
    }

    /// Registers reference counts held *by* `host`: `local` references to
    /// items stored at the host itself and `remote` references to items on
    /// other hosts.
    pub fn add_refs(&mut self, host: HostId, local: u64, remote: u64) {
        self.local_refs[host.index()] += local;
        self.remote_refs[host.index()] += remote;
    }

    /// Clears all storage and reference accounting (e.g. before re-assigning
    /// a rebuilt structure), keeping operational counters.
    pub fn reset_placement(&mut self) {
        self.storage.iter_mut().for_each(|s| *s = 0);
        self.local_refs.iter_mut().for_each(|s| *s = 0);
        self.remote_refs.iter_mut().for_each(|s| *s = 0);
    }

    /// Absorbs a finished meter: merges its touch counts into the per-host
    /// congestion counters and its message count into the running total. A
    /// host past [`hosts`](Self::hosts) (one an update added) gets a touch
    /// counter on demand.
    pub fn absorb(&mut self, meter: &MessageMeter) {
        self.total_messages += meter.messages();
        for &(h, c) in &meter.touches {
            if h.index() >= self.touches.len() {
                self.touches.resize(h.index() + 1, 0);
            }
            self.touches[h.index()] += c;
        }
    }

    /// Absorbs a meter that carried a *query*, recording its message count in
    /// the `Q(n)` sample set.
    pub fn absorb_query(&mut self, meter: &MessageMeter) {
        self.query_samples.push(meter.messages());
        self.absorb(meter);
    }

    /// Absorbs a meter that carried an *update*, recording its message count
    /// in the `U(n)` sample set.
    pub fn absorb_update(&mut self, meter: &MessageMeter) {
        self.update_samples.push(meter.messages());
        self.absorb(meter);
    }

    /// Storage units currently on `host`.
    pub fn storage(&self, host: HostId) -> u64 {
        self.storage[host.index()]
    }

    /// Maximum storage over all hosts — the `M` column of Table 1.
    pub fn max_memory(&self) -> u64 {
        self.storage.iter().copied().max().unwrap_or(0)
    }

    /// Mean storage across hosts.
    pub fn mean_memory(&self) -> f64 {
        let sum: u128 = self.storage.iter().map(|&v| v as u128).sum();
        sum as f64 / self.storage.len() as f64
    }

    /// The paper's congestion measure for one host: references to items
    /// stored at the host + references to items stored at other hosts +
    /// `n/H` (expected share of query starts).
    pub fn congestion(&self, host: HostId) -> f64 {
        let i = host.index();
        self.local_refs[i] as f64
            + self.remote_refs[i] as f64
            + self.items as f64 / self.hosts() as f64
    }

    /// Maximum congestion over all hosts — the `C(n)` column of Table 1.
    pub fn max_congestion(&self) -> f64 {
        (0..self.hosts())
            .map(|i| self.congestion(HostId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// Operational touch count for `host` (how many datum touches landed on
    /// it across all absorbed meters) — a load-balance diagnostic.
    pub fn touch_count(&self, host: HostId) -> u64 {
        self.touches.get(host.index()).copied().unwrap_or(0)
    }

    /// Maximum operational touch count over hosts.
    pub fn max_touch_count(&self) -> u64 {
        self.touches.iter().copied().max().unwrap_or(0)
    }

    /// Total messages across all absorbed meters.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Builds the Table 1 row for everything observed so far.
    pub fn metrics(&self) -> CostReport {
        CostReport {
            hosts: self.hosts(),
            items: self.items,
            max_memory: self.max_memory(),
            mean_memory: self.mean_memory(),
            max_congestion: self.max_congestion(),
            query_messages: SeriesStats::from_samples(&self.query_samples),
            update_messages: SeriesStats::from_samples(&self.update_samples),
            total_messages: self.total_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_visit_is_free() {
        let mut m = MessageMeter::new();
        m.visit(HostId(3));
        assert_eq!(m.messages(), 0);
        assert_eq!(m.current_host(), Some(HostId(3)));
    }

    #[test]
    fn intra_host_chasing_is_free() {
        let mut m = MessageMeter::new();
        m.visit(HostId(1));
        m.visit(HostId(1));
        m.visit(HostId(1));
        assert_eq!(m.messages(), 0);
    }

    #[test]
    fn each_host_change_costs_one_message() {
        let mut m = MessageMeter::new();
        for h in [0u32, 1, 1, 2, 0, 0, 3] {
            m.visit(HostId(h));
        }
        // transitions: 0->1, 1->2, 2->0, 0->3
        assert_eq!(m.messages(), 4);
        assert_eq!(
            m.trail(),
            &[HostId(0), HostId(1), HostId(2), HostId(0), HostId(3)]
        );
    }

    #[test]
    fn charge_adds_flat_messages() {
        let mut m = MessageMeter::new();
        m.visit(HostId(0));
        m.charge(2);
        assert_eq!(m.messages(), 2);
    }

    #[test]
    fn absorb_accumulates_touches_and_messages() {
        let mut net = SimNetwork::new(3);
        let mut m = net.meter();
        m.visit(HostId(0));
        m.visit(HostId(2));
        m.visit(HostId(2));
        net.absorb_query(&m);
        assert_eq!(net.total_messages(), 1);
        assert_eq!(net.touch_count(HostId(2)), 2);
        assert_eq!(net.touch_count(HostId(0)), 1);
        assert_eq!(net.touch_count(HostId(1)), 0);
        assert_eq!(net.max_touch_count(), 2);
        let report = net.metrics();
        assert_eq!(report.query_messages.count, 1);
        assert_eq!(report.query_messages.max, 1);
    }

    #[test]
    fn a_host_added_after_placement_counts_touches_but_not_towards_h() {
        let mut net = SimNetwork::new(2);
        net.add_storage(HostId(0), 6);
        let mut m = net.meter();
        m.visit(HostId(0));
        m.visit(HostId(5));
        net.absorb_update(&m);
        assert_eq!(net.touch_count(HostId(5)), 1);
        assert_eq!(net.touch_count(HostId(4)), 0);
        assert_eq!(net.hosts(), 2);
        assert_eq!(net.mean_memory(), 3.0);
    }

    #[test]
    fn congestion_matches_paper_formula() {
        let mut net = SimNetwork::new(4);
        net.set_items(8);
        net.add_refs(HostId(1), 5, 3);
        assert_eq!(net.congestion(HostId(1)), 5.0 + 3.0 + 2.0);
        assert_eq!(net.congestion(HostId(0)), 2.0);
        assert_eq!(net.max_congestion(), 10.0);
    }

    #[test]
    fn storage_accounting_tracks_max_and_mean() {
        let mut net = SimNetwork::new(2);
        net.add_storage(HostId(0), 4);
        net.add_storage(HostId(1), 8);
        assert_eq!(net.max_memory(), 8);
        assert!((net.mean_memory() - 6.0).abs() < 1e-12);
        net.remove_storage(HostId(1), 10);
        assert_eq!(net.storage(HostId(1)), 0);
    }

    #[test]
    fn reset_placement_keeps_operational_counters() {
        let mut net = SimNetwork::new(2);
        net.add_storage(HostId(0), 4);
        let mut m = net.meter();
        m.visit(HostId(0));
        m.visit(HostId(1));
        net.absorb_update(&m);
        net.reset_placement();
        assert_eq!(net.max_memory(), 0);
        assert_eq!(net.total_messages(), 1);
        assert_eq!(net.metrics().update_messages.count, 1);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_host_network_is_rejected() {
        let _ = SimNetwork::new(0);
    }
}
