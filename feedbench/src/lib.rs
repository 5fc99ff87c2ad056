//! End-to-end and per-layer benchmark of the Bistro feed server.
//!
//! Three workloads drive the real `Server`, `Relay`, `SubscriberClient`
//! and `SimNetwork` on `MemFs` under a `SimClock` (see README.md). Every
//! output is checked against the benchmark's own computation from the
//! generated trace and the subscription map.

pub mod cpu;
pub mod deploy;
pub mod gen;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Params, Report, Scale, Workload};
