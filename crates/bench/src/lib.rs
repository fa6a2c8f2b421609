#![warn(missing_docs)]
//! # allconcur-bench — regenerating the paper's tables and figures
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5); see DESIGN.md's experiment index for the
//! mapping.
//!
//! * [`workloads`] — the three §1.1 application profiles (travel
//!   reservation, multiplayer games, distributed exchange) expressed as
//!   request-rate-driven round loops, plus the fixed-batch throughput
//!   loop of Fig. 10 and the membership timeline of Fig. 7;
//! * [`output`] — plain-text table formatting shared by the binaries.

pub mod output;
pub mod workloads;
