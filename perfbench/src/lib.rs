//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! It serves the paper's two kernels (the eBNN tier-1 conv-pool block and
//! the YOLOv3 GEMM row kernel) through the public `pim_serve::serve`
//! entry point and times, from its own code, the calls it makes into each
//! layer: `serve()` itself, the `BatchEngine` adapters, and the kernel
//! engines, `DpuSet` and `Machine` entry points underneath. See
//! `README.md` in this directory for the metrics and workloads.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod catalogue;
pub mod probe;
pub mod provenance;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workload;
