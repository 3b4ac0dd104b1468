//! # csqp-source — capability-gated simulated Internet sources
//!
//! Substitutes for the paper's live 1999 web sources: an in-memory relation
//! behind an SSDL capability gate, with transfer metering and §6.2 cost
//! constants. See DESIGN.md §3 for why this substitution preserves the
//! behaviour the planners observe.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod cost;
pub mod fault;
pub mod source;

pub use catalog::Catalog;
pub use cost::CostParams;
pub use fault::{Fault, FaultProfile, OutageWindow, ResilienceMeter};
pub use source::{EstimatorInput, Meter, Source, SourceError, SourceStream};
