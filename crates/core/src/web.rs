//! [`Web<D>`], the one typed wrapper around a [`SkipWeb`]: what every
//! structure shares, written once. Each structure's alias in
//! [`crate::onedim`] / [`crate::multidim`] adds its typed queries, each a
//! [`SkipWeb::ask`] unpacked into its outcome type.

use skipweb_net::sim::{MessageMeter, SimNetwork};
use skipweb_structures::traits::RangeDetermined;

use crate::engine::{DistributedSkipWeb, Routable};
use crate::skipweb::{SkipWeb, SkipWebBuilder};

/// A skip-web over structure `D` with the shared conveniences of every
/// typed wrapper.
#[derive(Debug, Clone)]
pub struct Web<D: RangeDetermined> {
    web: SkipWeb<D>,
}

impl<D: Routable + Send + Sync + 'static> Web<D> {
    /// Starts building over `items`.
    pub fn builder(items: Vec<D::Item>) -> WebBuilder<D> {
        WebBuilder {
            inner: SkipWeb::builder(items),
        }
    }

    /// Wraps a built generic web.
    pub fn from_web(web: SkipWeb<D>) -> Self {
        Web { web }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.web.len()
    }

    /// Whether no items are stored.
    pub fn is_empty(&self) -> bool {
        self.web.is_empty()
    }

    /// Number of hosts `H`.
    pub fn hosts(&self) -> usize {
        self.web.hosts()
    }

    /// A deterministic pseudo-random query origin.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty.
    pub fn random_origin(&self, seed: u64) -> usize {
        self.web.random_origin(seed)
    }

    /// Inserts `item`, returning the update's message cost (`None` for a
    /// duplicate, whose lookup is still paid).
    ///
    /// # Panics
    ///
    /// Panics if `item` violates a build-time precondition of `D` (a
    /// segment not in general position with the stored set).
    pub fn insert(&mut self, item: D::Item) -> Option<u64> {
        let mut meter = MessageMeter::new();
        self.web.insert(item, &mut meter).then(|| meter.messages())
    }

    /// Removes `item`, returning the update's message cost (`None` when it
    /// is absent).
    pub fn remove(&mut self, item: &D::Item) -> Option<u64> {
        let mut meter = MessageMeter::new();
        self.web.remove(item, &mut meter).then(|| meter.messages())
    }

    /// Serves this web over the actor runtime (see [`crate::engine`]): one
    /// actor per host, run by a core-sized worker pool, answering the
    /// structure's requests — and applying live inserts/removes — with real
    /// concurrent message passing.
    pub fn serve(&self) -> DistributedSkipWeb<D> {
        DistributedSkipWeb::builder(&self.web).spawn()
    }

    /// A simulated network sized for this web with storage and reference
    /// accounting applied.
    pub fn network(&self) -> SimNetwork {
        self.web.network()
    }

    /// The underlying generic skip-web.
    pub fn inner(&self) -> &SkipWeb<D> {
        &self.web
    }

    /// Mutable access to the underlying generic skip-web (e.g. to thread an
    /// external [`MessageMeter`] through updates, or to drive deterministic
    /// [`SkipWeb::insert_with`] updates for parity studies).
    pub fn inner_mut(&mut self) -> &mut SkipWeb<D> {
        &mut self.web
    }
}

/// Builder returned by [`Web::builder`].
#[derive(Debug, Clone)]
pub struct WebBuilder<D: RangeDetermined> {
    inner: SkipWebBuilder<D>,
}

impl<D: Routable + Send + Sync + 'static> WebBuilder<D> {
    /// Seeds the level randomization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// Uses bucketed placement with per-host memory `memory` (§2.4.1).
    pub fn bucketed(mut self, memory: usize) -> Self {
        self.inner = self.inner.bucketed(memory);
        self
    }

    /// Places every range on `k` hosts so the served web survives up to
    /// `k - 1` host crashes (see [`Replication`](crate::placement::Replication)).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn replicate(mut self, k: usize) -> Self {
        self.inner = self.inner.replicate(k);
        self
    }

    /// Builds the web.
    pub fn build(self) -> Web<D> {
        Web::from_web(self.inner.build())
    }
}
