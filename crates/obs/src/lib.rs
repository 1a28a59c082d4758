//! # vip-obs — zero-dependency observability for the AddressEngine stack
//!
//! The paper's argument is quantitative (Table 2 access counts, Table 3
//! call timings, the ×30 Amdahl bound), but per-call summaries alone cannot
//! show *why* a call costs what it does: DMA strip cadence, ZBT bank
//! traffic, IIM/OIM occupancy and process-unit stalls all happen inside a
//! call. This crate provides the pieces the simulator needs to make
//! that visible, with no external dependencies:
//!
//! 1. **Event bus** — [`Session`] owns a buffer of [`TraceRecord`]s;
//!    subsystems publish through cheap cloneable [`Recorder`] handles.
//!    A disabled recorder ([`Recorder::disabled`]) records nothing and
//!    costs a single branch on the hot path.
//! 2. **Metrics registry** — [`Registry`] holds named counters, gauges and
//!    fixed-bucket [`Histogram`]s with p50/p95/p99 summaries.
//! 3. **Exporters** — [`chrome::to_chrome_json`] serialises a recording to
//!    Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`,
//!    one "thread" per subsystem), and [`Registry::text_table`] renders a
//!    plain-text stats table. JSON is written by the in-crate
//!    [`json::JsonWriter`], not serde, and read back by
//!    [`json::JsonValue`].
//! 4. **Attribution & diffing** — [`Attribution`] turns a recording into
//!    per-track busy/idle breakdowns, and [`diff_chrome_traces`] aligns
//!    two exported traces and reports per-track deltas.
//!
//! Timestamps are `u64` nanoseconds on a *virtual* clock — the simulated
//! engine/PCI time, not wall time — so traces line up with the paper's
//! cycle accounting.
//!
//! # Examples
//!
//! ```
//! use vip_obs::{Session, Track};
//!
//! let session = Session::new();
//! let rec = session.recorder();
//! rec.span(Track::Dma, "strip", 0, 1_000, &[("strip", 0u64.into())]);
//! let recording = session.finish();
//! let json = recording.to_chrome_json();
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attrib;
pub mod chrome;
pub mod diff;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use attrib::{Attribution, TrackUtilization};
pub use diff::{diff_chrome_traces, TraceDiff, TrackDelta};
pub use event::{AttrValue, Phase, TraceRecord, Track};
pub use metrics::{Histogram, HistogramSummary, Registry};
pub use recorder::{Recorder, Recording, Session};
