#![warn(missing_docs)]

//! Benchmark harness for the skip-webs reproduction.
//!
//! Every table and figure of the paper has an experiment here (see
//! `DESIGN.md` §3 for the full index):
//!
//! * [`experiments::table1`] — the seven-method cost comparison (Table 1),
//! * [`experiments::fig1`] — skip-list search/space behaviour (Figure 1),
//! * [`experiments::fig2`] — the 1-D skip-web hierarchy (Figure 2),
//! * [`experiments::fig3`] — quadtree set-halving (Figure 3 / Lemma 3),
//! * [`experiments::fig4`] — trapezoidal maps (Figure 4 / Lemma 5),
//! * [`experiments::lemma1`] / [`experiments::lemma4`] — the 1-D and trie
//!   halving lemmas,
//! * [`experiments::thm2`] — Theorem 2's query bounds on all four
//!   instantiations,
//! * [`experiments::updates`] — §4's update costs,
//! * [`experiments::buckets`] — the bucket sweep (Table 1's `M`-parameterized
//!   rows),
//! * [`experiments::ablation`] — NoN-vs-skip-web trade-off,
//! * [`experiments::chord`] — the §1.2 DHT contrast.
//!
//! The `repro` binary prints any of them as TSV.

pub mod adapters;
pub mod experiments;
pub mod workloads;
