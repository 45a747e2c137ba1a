//! # wg-workload — experiment orchestration and load generation
//!
//! Every experiment of the paper puts one server behind one wire and changes
//! only the client load, and this crate has the same shape: one testbed — a
//! [`wg_server::NfsServer`] behind its LAN fan-in, one deterministic event
//! loop and the fault plan — driven by one of two client populations:
//!
//! * the file writers: [`system`], the single-client 10 MB copy behind
//!   Tables 1–6 and Figure 1, and [`multi`], the N-client fan-in reproducing
//!   the paper's "several clients" remarks (independent salted write streams
//!   on one shared medium or per-client LAN segments, with per-client,
//!   aggregate and fairness results);
//! * the [`sfs`] generators: a SPEC SFS 1.0 (LADDIS)-like mixed-operation
//!   load and the throughput/latency sweep behind Figures 2 and 3, scalable
//!   to N independent streams and sweepable in parallel on a thread pool.
//!
//! [`results`] holds the result records the benchmark harness prints, shaped
//! like the rows of the paper's tables.
//!
//! Everything is deterministic: the same configuration and seed produce the
//! same numbers.  Each run is one serial event loop; a host's cores are used
//! by running independent sweep points in parallel
//! ([`SfsSweep::run_parallel`]), which leaves every point bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multi;
pub mod results;
pub mod sfs;
pub mod system;
mod testbed;

pub use multi::{MultiClientConfig, MultiClientSystem};
pub use results::{FileCopyResult, MultiClientResult, SfsPoint, TableRow};
pub use sfs::{SfsConfig, SfsMix, SfsRunStats, SfsSweep};
pub use system::{ExperimentConfig, FileCopySystem, NetworkKind};
