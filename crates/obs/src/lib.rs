//! Cross-layer observability for the gossip-consensus workspace.
//!
//! Every layer of the stack — the gossip hot path, Paxos phase machinery,
//! the TCP transport, and the simulation harness — reports what it does as
//! structured [`Event`]s through an [`Observer`]. The crate provides:
//!
//! - [`Event`]: one enum covering all layers, with a stable snake_case
//!   `kind` per variant and an exact JSON codec (JSONL traces round-trip
//!   `u64` fields bit-for-bit).
//! - [`Observer`]: the sink trait. The default [`NoopObserver`] is disabled
//!   via an associated `const`, so uninstrumented components compile to the
//!   same code as before instrumentation existed.
//! - [`RingObserver`] / [`SharedRing`]: bounded buffers for single-owner
//!   (simulated time) and multi-threaded (monotonic time) recording;
//!   [`Tee`] fans one instrumentation point out to two sinks.
//! - [`HealthTracker`]: instance-lifecycle tracking and stall detection
//!   over the event stream — pending work with no in-order delivery past
//!   a threshold emits `stall_detected` / `stall_cleared` events.
//! - [`FlightRecorder`]: an always-on bounded ring of recent events that
//!   produces reasoned, trace-compatible JSONL dumps on failure.
//! - [`SpanTracker`]: stitches per-value events into a
//!   submit → 2a → quorum → decision → in-order-delivery latency breakdown.
//! - [`LogHistogram`]: a mergeable, log-bucketed, bounded-memory latency
//!   histogram with quantile estimation — the hot-path alternative to the
//!   exact sample-keeping `simnet::Histogram`.
//! - [`ResourceLedger`]: per-`(subsystem, message_class)` byte and CPU
//!   attribution, fed by instrumentation (its post-hoc twin, replayed from
//!   a recorded trace, is `testbed::ledger::TraceLedger`).
//! - [`Series`]: fixed-capacity windowed time-series (`(t, value)` ring
//!   with windowed rate/mean/max and histogram-backed quantiles) turning
//!   raw counters into `/metrics` rates.
//! - [`prom`]: hand-rolled Prometheus text exposition (counters, gauges,
//!   and cumulative histogram families) plus a parser for scraped text.
//! - [`Registry`] / [`MetricsServer`]: live gauges and histograms served
//!   over a dependency-free HTTP `/metrics` endpoint.
//! - [`Counter`]: the canonical monotone counter shared by
//!   `semantic_gossip` and `simnet`.
//!
//! `obs` is deliberately dependency-free (std only) so it can sit below
//! every other crate without cycles and build in fully offline
//! environments.

pub mod counter;
pub mod event;
pub mod flight;
pub mod health;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod observer;
pub mod prom;
pub mod series;
pub mod serve;
pub mod span;

pub use counter::Counter;
pub use event::{Event, TimedEvent, TraceParseError};
pub use flight::FlightRecorder;
pub use health::{HealthConfig, HealthSummary, HealthTracker};
pub use hist::LogHistogram;
pub use ledger::{LedgerCell, ResourceLedger};
pub use observer::{NoopObserver, Observer, RingObserver, SharedRing, Tee};
pub use series::Series;
pub use serve::{MetricsServer, Registry, SharedGauge, SharedHistogram};
pub use span::{SegmentStats, SpanSummary, SpanTracker, ValueSpan};
