//! In-device telemetry substrate for the DUST reproduction (§III-A).
//!
//! * [`agents`] — the testbed's ten user-defined monitor agents with the
//!   CPU/memory cost model calibrated against Fig. 1 (≈ 100 % of one core
//!   at 20 % line-rate traffic, ≈ 1.2 GiB resident);
//! * [`tsdb`] — the node-local Time Series Database the agents write to;
//! * [`compress`](mod@compress) — Gorilla-style in-situ compression (delta-of-delta
//!   timestamps, XOR values) as performed by SmartNICs in the architecture;
//! * [`federation`] — the Time-Series Federation aggregating series across
//!   the network.
//!
//! # Example
//!
//! ```
//! use dust_telemetry::{MonitorAgent, aggregate_load, Tsdb, compress, decompress};
//!
//! // the standard ten-agent deployment at 20 % line rate
//! let agents = MonitorAgent::standard_deployment();
//! let load = aggregate_load(&agents, 0.2);
//! assert!((load.cpu_percent - 100.0).abs() < 5.0); // Fig. 1 calibration
//!
//! // agents write series; blocks compress losslessly
//! let mut db = Tsdb::new();
//! for t in 0..100u64 {
//!     db.append("cpu", t * 1000, load.cpu_percent);
//! }
//! let block = compress(db.series("cpu").unwrap());
//! assert!(block.ratio() > 10.0);
//! assert_eq!(decompress(&block).unwrap().len(), 100);
//! ```

#![warn(missing_docs)]

pub mod agents;
pub mod compress;
pub mod federation;
pub mod framing;
pub mod tsdb;

pub use agents::{aggregate_load, AgentKind, AgentLoad, IntSampler, IntSampling, MonitorAgent};
pub use compress::{compress, compression_ratio, decompress, CompressedBlock};
pub use federation::{Aggregation, Federation};
pub use framing::{crc32, deframe, deframe_stream, frame, FrameError};
pub use tsdb::{Point, Series, Tsdb};
