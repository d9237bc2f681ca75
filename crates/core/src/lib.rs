#![warn(missing_docs)]

//! The skip-web framework (Arge, Eppstein, Goodrich — PODC 2005).
//!
//! A **skip-web** turns any *range-determined link structure* with a
//! *set-halving lemma* (see [`skipweb_structures`]) into a distributed data
//! structure: a hierarchy of `⌈log₂ n⌉` levels where each level randomly
//! halves the previous one's sets (§2.3), with *hyperlinks* from every range
//! to its conflict list one level down (§2.2), placed onto hosts either
//! owner-hosted (`H = n`) or bucketed (§2.4.1). Queries descend from a tiny
//! top-level structure, doing expected `O(1)` work per level (§2.5); updates
//! repair the hierarchy bottom-up (§4).
//!
//! * [`skipweb::SkipWeb`] — the generic structure. An update is one type
//!   at every layer, [`Update`], and [`SkipWeb::apply`] resolves a batch of
//!   them — inserts and removes in any mix, in op order — against stable
//!   item slots, splicing each op into the one set per level its tower
//!   names, byte-identical to the full rebuild ([`SkipWeb::apply_full`],
//!   the test oracle). A query's answer is one
//!   computation everywhere: [`SkipWeb::ask`] routes to the locus and asks
//!   the structure's [`Routable::answer`](engine::Routable::answer), the
//!   same call the engine's locus host replies with.
//! * [`web`] — [`Web<D>`](web::Web), the one typed wrapper: building,
//!   sizes, metered updates and serving, written once for every structure.
//! * [`onedim`] — one-dimensional nearest-neighbour skip-webs and the
//!   bucketed variant (Table 1's last two rows), plus
//!   [`DistributedOneDim`](onedim::DistributedOneDim), the served 1-D web
//!   with its nearest-key conveniences.
//! * [`multidim`] — quadtree/octree point location and approximate nearest
//!   neighbour, trie prefix search, trapezoidal-map point location (§3).
//! * [`engine`] — the generic distributed engine: any of the above served
//!   by the actor runtime with real message passing, correlation-id
//!   clients, per-host traffic counters, and live dynamic updates (§4):
//!   an [`Update`] routes to its locus, repairs the conflict
//!   neighbourhoods bottom-up paying one message per host crossing, and
//!   applies as an atomic topology-snapshot swap, so concurrent queries
//!   never observe a half-applied update. One admission path and one wait
//!   loop serve every client call, single or batched.
//!
//! # Quickstart
//!
//! ```
//! use skipweb_core::onedim::OneDimSkipWeb;
//!
//! let keys: Vec<u64> = (0..100).map(|i| i * 7).collect();
//! let web = OneDimSkipWeb::builder(keys).seed(1).build();
//! let outcome = web.nearest(web.random_origin(3), 40);
//! assert_eq!(outcome.answer.nearest, 42);
//! assert!(outcome.messages <= 40); // O(log n) expected
//! ```

pub mod engine;
pub mod levels;
pub mod multidim;
pub mod onedim;
pub mod placement;
pub mod skipweb;
pub mod web;
pub mod wire;

pub use placement::Blocking;
pub use skipweb::{Donors, QueryOutcome, SkipWeb, SkipWebBuilder, Update};
