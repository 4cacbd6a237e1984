//! Impressions-style file-system model generator.
//!
//! §4 of the paper: "The trace generator starts from a list of files and
//! file sizes from the Impressions file system generator \[4\]." All
//! presented results use "the same 1.4 TB file server model we generated
//! with Impressions".
//!
//! We cannot run the original Impressions C tool, so this crate generates a
//! statistically equivalent model: file sizes drawn from a lognormal body
//! with a Pareto tail — the hybrid distribution Impressions itself uses,
//! following Agrawal et al.'s metadata study — and per-file
//! "small integer popularities … generated from a Zipfian distribution"
//! (§4) used to weight file selection.
//!
//! The output is exactly what the downstream trace generator consumes: a
//! list of `(file id, size, popularity)` plus a popularity-weighted sampler.

pub mod dist;
pub mod model;

pub use dist::{lognormal, pareto, ZipfSmallInt};
pub use model::{FileInfo, FsModel, FsModelConfig};
