//! What one experiment execution measures.
//!
//! Mirrors the paper's methodology (§4.2): clients measure end-to-end
//! latency from submission to in-order decision notification; throughput is
//! the rate of decided values; message counters quantify gossip's redundancy
//! (§4.3); "values submitted but not ordered" is Figure 6's reliability
//! metric.

use semantic_gossip::{MessageStats, PlumtreeStats};
use simnet::{Histogram, SimDuration, SimTime, NUM_REGIONS};

use paxos::ValueId;

use crate::audit::{RunAudit, Violation};

/// The lifecycle record of one submitted value.
#[derive(Debug, Clone, Copy)]
pub struct ValueFate {
    /// The value's id.
    pub value: ValueId,
    /// Region slot (0..13) of the submitting client.
    pub region_slot: usize,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// In-order decision notification at the submitting client, if it ever
    /// happened.
    pub ordered_at: Option<SimTime>,
    /// Whether the submission fell inside the measurement window.
    pub in_window: bool,
}

/// Measurements of one cluster run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Setup display name (Baseline / Gossip / Semantic Gossip).
    pub setup: String,
    /// System size.
    pub n: usize,
    /// Offered aggregate submission rate (values/s).
    pub rate: f64,
    /// Measurement window length.
    pub window: SimDuration,
    /// Run seed (for reproducing a specific execution).
    pub seed: u64,
    /// Values submitted inside the measurement window.
    pub submitted_in_window: u64,
    /// In-window values ordered by the end of the run.
    pub ordered: u64,
    /// In-window values never ordered (Figure 6's numerator).
    pub not_ordered_in_window: u64,
    /// End-to-end latencies of ordered in-window values.
    pub latency: Histogram,
    /// Latencies split by the submitting client's region slot.
    pub latency_by_region: Vec<Histogram>,
    /// Whether the safety audit found no violations (Paxos safety).
    pub safety_ok: bool,
    /// Violations found by the end-of-run [`SafetyAuditor`] pass
    /// (empty when `safety_ok`).
    ///
    /// [`SafetyAuditor`]: crate::audit::SafetyAuditor
    pub violations: Vec<Violation>,
    /// The raw cross-process audit evidence of the run (delivery logs,
    /// promised-round observations, submitted values) for cross-run
    /// checks such as semantic neutrality. Under sharding this is group
    /// 0's evidence — the full per-group set is in
    /// [`RunMetrics::audits`].
    pub audit: RunAudit,
    /// Per consensus group: the group's own audit evidence, indexed by
    /// group id. A single-group run has exactly one entry, identical to
    /// [`RunMetrics::audit`]. Every group is audited independently —
    /// `safety_ok`/`violations` cover all of them.
    pub audits: Vec<RunAudit>,
    /// In-window values ordered, per consensus group (indexed by group
    /// id; sums to [`RunMetrics::ordered`]).
    pub ordered_by_group: Vec<u64>,
    /// Raw messages received per process (post injected loss).
    pub node_received: Vec<u64>,
    /// Raw messages sent per process.
    pub node_sent: Vec<u64>,
    /// Merged gossip-layer counters (zero for Baseline).
    pub gossip: MessageStats,
    /// Merged eager/lazy tree counters (zero off the eager/lazy setup):
    /// announcements, requests and repairs, including requests the
    /// payload store could no longer serve.
    pub plumtree: PlumtreeStats,
    /// Physically received messages by protocol kind (index =
    /// `paxos::message::Kind::index()`), across all processes.
    pub received_by_kind: [u64; paxos::message::Kind::COUNT],
    /// Instances, summed over processes and groups, in which a learner held
    /// a quorum of votes before the value they name (votes carry the id
    /// only): the decision waited for the `Phase2a` or a Decision. The
    /// simulator's reading of the live `paxos_value_waits_total` counter.
    pub value_waits: u64,
    /// Thin proposals (a `Phase2a` naming its value by id) that a process
    /// received before the value itself and parked, summed over processes
    /// and groups, crashed incarnations included. The simulator's reading
    /// of the live `paxos_proposals_parked_total` counter.
    pub proposals_parked: u64,
    /// Client values still pooled to resolve thin proposals when the run
    /// ended, summed over processes and groups (the live
    /// `paxos_pooled_values` gauge). A value leaves the pool when it is
    /// decided, so this counts values not decided everywhere.
    pub pooled_values: u64,
    /// Thin proposals still parked when the run ended, summed over
    /// processes and groups (the live `paxos_parked_proposals` gauge).
    pub parked_proposals: u64,
    /// Per-`(subsystem, class)` byte and CPU attribution for the run:
    /// wire bytes out (transport), bytes in (gossip/paxos receive path),
    /// and modelled CPU nanoseconds, keyed by Paxos message-class names.
    pub ledger: obs::ResourceLedger,
    /// Machine-readable JSONL trace (one [`obs::TimedEvent`] per line),
    /// when tracing was enabled.
    pub trace_jsonl: Option<String>,
    /// Event counts by kind over the merged trace, sorted by kind name.
    pub trace_kinds: Vec<(&'static str, u64)>,
    /// Per-phase latency breakdown stitched from the trace
    /// (submit → 2a → quorum → decision → in-order delivery).
    pub span_summary: Option<obs::SpanSummary>,
    /// Health summary from the [`obs::HealthTracker`] run over the merged
    /// trace (stall counts, oldest open instance). `None` unless tracing
    /// was enabled — the tracker needs the complete event stream.
    pub health: Option<obs::HealthSummary>,
    /// Flight-recorder tail: the last `flight_capacity` merged events of
    /// the run, kept in memory and serialized only on demand (see
    /// [`RunMetrics::flight_dump`]). Empty when `flight_capacity` is 0.
    pub flight: Vec<obs::TimedEvent>,
}

impl RunMetrics {
    /// Creates an empty record for a run.
    pub fn new(setup: &str, n: usize, rate: f64, window: SimDuration) -> Self {
        RunMetrics {
            setup: setup.to_string(),
            n,
            rate,
            window,
            seed: 0,
            submitted_in_window: 0,
            ordered: 0,
            not_ordered_in_window: 0,
            latency: Histogram::new(),
            latency_by_region: (0..NUM_REGIONS).map(|_| Histogram::new()).collect(),
            safety_ok: true,
            violations: Vec::new(),
            audit: RunAudit::default(),
            audits: Vec::new(),
            ordered_by_group: Vec::new(),
            node_received: Vec::new(),
            node_sent: Vec::new(),
            gossip: MessageStats::default(),
            plumtree: PlumtreeStats::default(),
            received_by_kind: [0; paxos::message::Kind::COUNT],
            value_waits: 0,
            proposals_parked: 0,
            pooled_values: 0,
            parked_proposals: 0,
            ledger: obs::ResourceLedger::new(),
            trace_jsonl: None,
            trace_kinds: Vec::new(),
            span_summary: None,
            health: None,
            flight: Vec::new(),
        }
    }

    /// Renders the flight-recorder tail as a reasoned, trace-compatible
    /// JSONL dump, or `None` when the recorder captured nothing.
    pub fn flight_dump(&self, reason: &str) -> Option<String> {
        if self.flight.is_empty() {
            return None;
        }
        let mut rec = obs::FlightRecorder::with_capacity(self.flight.len());
        rec.extend(self.flight.iter().cloned());
        Some(rec.dump(reason))
    }

    /// The kind receiving the most messages, with its count.
    pub fn dominant_received_kind(&self) -> (paxos::message::Kind, u64) {
        let (idx, &count) = self
            .received_by_kind
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("non-empty kind array");
        (paxos::message::Kind::ALL[idx], count)
    }

    /// Folds one value's fate into the metrics.
    pub fn record_value(&mut self, fate: &ValueFate) {
        if !fate.in_window {
            return;
        }
        self.submitted_in_window += 1;
        match fate.ordered_at {
            Some(at) => {
                self.ordered += 1;
                let latency = at - fate.submitted_at;
                self.latency.record(latency);
                if let Some(h) = self.latency_by_region.get_mut(fate.region_slot) {
                    h.record(latency);
                }
            }
            None => self.not_ordered_in_window += 1,
        }
    }

    /// Folds one node's counters into the metrics.
    pub fn record_node(
        &mut self,
        _node: usize,
        raw_received: u64,
        raw_sent: u64,
        gossip: Option<MessageStats>,
    ) {
        self.node_received.push(raw_received);
        self.node_sent.push(raw_sent);
        if let Some(stats) = gossip {
            self.gossip += stats;
        }
    }

    /// Decided values per second over the measurement window.
    pub fn throughput(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ordered as f64 / secs
        }
    }

    /// Mean and standard deviation of client latency.
    pub fn latency_stats(&self) -> (SimDuration, SimDuration) {
        (self.latency.mean(), self.latency.std_dev())
    }

    /// Fraction of in-window submissions never ordered (Figure 6 cell).
    pub fn not_ordered_fraction(&self) -> f64 {
        if self.submitted_in_window == 0 {
            0.0
        } else {
            self.not_ordered_in_window as f64 / self.submitted_in_window as f64
        }
    }

    /// Total messages received by gossip layers across all processes.
    pub fn gossip_received(&self) -> u64 {
        self.gossip.received.get()
    }

    /// Messages received by the coordinator (process 0).
    pub fn coordinator_received(&self) -> u64 {
        self.node_received.first().copied().unwrap_or(0)
    }

    /// Mean raw messages received by non-coordinator processes.
    pub fn mean_regular_received(&self) -> f64 {
        if self.node_received.len() <= 1 {
            return 0.0;
        }
        let sum: u64 = self.node_received[1..].iter().sum();
        sum as f64 / (self.node_received.len() - 1) as f64
    }

    /// Share of received message parts discarded as duplicates (§4.3).
    pub fn duplicate_ratio(&self) -> f64 {
        self.gossip.duplicate_ratio()
    }

    /// Renders the run as Prometheus text exposition format, suitable for
    /// scraping or for `promtool`-style offline inspection.
    pub fn prometheus(&self) -> String {
        use obs::prom::{Exposition, MetricKind};
        let setup = self.setup.as_str();
        let base: &[(&str, &str)] = &[("setup", setup)];
        let mut exp = Exposition::new();

        exp.header(
            "testbed_submitted_total",
            "Values submitted inside the measurement window",
            MetricKind::Counter,
        );
        exp.sample_u64("testbed_submitted_total", base, self.submitted_in_window);
        exp.header(
            "testbed_ordered_total",
            "In-window values ordered by the end of the run",
            MetricKind::Counter,
        );
        exp.sample_u64("testbed_ordered_total", base, self.ordered);
        exp.header(
            "testbed_not_ordered_total",
            "In-window values never ordered",
            MetricKind::Counter,
        );
        exp.sample_u64(
            "testbed_not_ordered_total",
            base,
            self.not_ordered_in_window,
        );
        exp.header(
            "testbed_throughput_values_per_second",
            "Decided values per second over the measurement window",
            MetricKind::Gauge,
        );
        exp.sample_f64(
            "testbed_throughput_values_per_second",
            base,
            self.throughput(),
        );
        exp.header(
            "testbed_latency_mean_seconds",
            "Mean client-observed end-to-end latency",
            MetricKind::Gauge,
        );
        exp.sample_f64(
            "testbed_latency_mean_seconds",
            base,
            self.latency.mean().as_nanos() as f64 / 1e9,
        );
        if !self.latency.is_empty() {
            exp.histogram(
                "testbed_latency_seconds",
                "Client-observed end-to-end latency distribution",
                base,
                &self.latency.to_log(),
                1e9,
            );
        }
        exp.header(
            "testbed_value_waits_total",
            "Instances whose quorum of votes arrived before the value, over all learners",
            MetricKind::Counter,
        );
        exp.sample_u64("testbed_value_waits_total", base, self.value_waits);
        exp.header(
            "testbed_proposals_parked_total",
            "Thin proposals received before their value and parked, over all processes",
            MetricKind::Counter,
        );
        exp.sample_u64(
            "testbed_proposals_parked_total",
            base,
            self.proposals_parked,
        );
        exp.header(
            "testbed_pooled_values",
            "Client values pooled to resolve thin proposals at the end of the run",
            MetricKind::Gauge,
        );
        exp.sample_u64("testbed_pooled_values", base, self.pooled_values);
        exp.header(
            "testbed_parked_proposals",
            "Thin proposals still waiting for their value at the end of the run",
            MetricKind::Gauge,
        );
        exp.sample_u64("testbed_parked_proposals", base, self.parked_proposals);
        exp.header(
            "testbed_safety_ok",
            "1 when all processes delivered consistent prefixes",
            MetricKind::Gauge,
        );
        exp.sample_u64("testbed_safety_ok", base, u64::from(self.safety_ok));

        // Per-shard breakdowns, present once the run is sharded (a
        // single-group run emits the group="0" series only).
        if !self.ordered_by_group.is_empty() {
            exp.header(
                "testbed_group_ordered_total",
                "In-window values ordered, per consensus group",
                MetricKind::Counter,
            );
            for (g, &ordered) in self.ordered_by_group.iter().enumerate() {
                let group = g.to_string();
                exp.sample_u64(
                    "testbed_group_ordered_total",
                    &[("setup", setup), ("group", group.as_str())],
                    ordered,
                );
            }
        }
        if !self.audits.is_empty() {
            exp.header(
                "testbed_group_audit_clean",
                "1 when the group's own safety audit found no violations",
                MetricKind::Gauge,
            );
            for (g, audit) in self.audits.iter().enumerate() {
                let group = g.to_string();
                let clean = crate::audit::SafetyAuditor::audit(audit).is_clean();
                exp.sample_u64(
                    "testbed_group_audit_clean",
                    &[("setup", setup), ("group", group.as_str())],
                    u64::from(clean),
                );
            }
        }

        exp.header(
            "gossip_messages_total",
            "Gossip-layer counters summed over all processes",
            MetricKind::Counter,
        );
        for (counter, value) in [
            ("received", self.gossip.received.get()),
            ("received_parts", self.gossip.received_parts.get()),
            ("duplicates", self.gossip.duplicates.get()),
            ("delivered", self.gossip.delivered.get()),
            ("sent", self.gossip.sent.get()),
            ("filtered", self.gossip.filtered.get()),
            ("aggregated_away", self.gossip.aggregated_away.get()),
            ("send_overflow", self.gossip.send_overflow.get()),
            ("delivery_overflow", self.gossip.delivery_overflow.get()),
        ] {
            exp.sample_u64(
                "gossip_messages_total",
                &[("setup", setup), ("counter", counter)],
                value,
            );
        }

        exp.header(
            "plumtree_messages_total",
            "Eager/lazy tree counters summed over all processes",
            MetricKind::Counter,
        );
        let pt = &self.plumtree;
        for (counter, value) in [
            ("eager_sent", pt.eager_sent.get()),
            ("ihave_packets", pt.ihave_packets.get()),
            ("ihave_entries", pt.ihave_entries.get()),
            ("iwant_packets", pt.iwant_packets.get()),
            ("grafts", pt.grafts.get()),
            ("prunes", pt.prunes.get()),
            ("recovered", pt.recovered.get()),
            ("parent_changes", pt.parent_changes.get()),
            ("pruned_evictions", pt.pruned_evictions.get()),
            ("control_bytes", pt.control_bytes.get()),
            ("requests_served", pt.requests_served.get()),
            ("requests_unserved", pt.requests_unserved.get()),
        ] {
            exp.sample_u64(
                "plumtree_messages_total",
                &[("setup", setup), ("counter", counter)],
                value,
            );
        }

        exp.header(
            "gossip_bytes_total",
            "Wire bytes the gossip layer handed to the transport (sent) or suppressed (filtered)",
            MetricKind::Counter,
        );
        for (counter, value) in [
            ("sent", self.gossip.bytes_sent.get()),
            ("filtered", self.gossip.bytes_filtered.get()),
        ] {
            exp.sample_u64(
                "gossip_bytes_total",
                &[("setup", setup), ("counter", counter)],
                value,
            );
        }

        if !self.ledger.is_empty() {
            exp.header(
                "ledger_bytes_total",
                "Wire bytes attributed per (subsystem, message class) ledger cell",
                MetricKind::Counter,
            );
            exp.header(
                "ledger_messages_total",
                "Messages accounted per (subsystem, message class) ledger cell",
                MetricKind::Counter,
            );
            exp.header(
                "ledger_cpu_seconds_total",
                "Modelled CPU seconds attributed per (subsystem, message class) ledger cell",
                MetricKind::Counter,
            );
            for c in self.ledger.cells() {
                let labels: &[(&str, &str)] = &[
                    ("setup", setup),
                    ("subsystem", c.subsystem.as_str()),
                    ("class", c.class.as_str()),
                ];
                if c.bytes_out > 0 {
                    exp.sample_u64(
                        "ledger_bytes_total",
                        &[
                            ("setup", setup),
                            ("subsystem", c.subsystem.as_str()),
                            ("class", c.class.as_str()),
                            ("direction", "out"),
                        ],
                        c.bytes_out,
                    );
                }
                if c.bytes_in > 0 {
                    exp.sample_u64(
                        "ledger_bytes_total",
                        &[
                            ("setup", setup),
                            ("subsystem", c.subsystem.as_str()),
                            ("class", c.class.as_str()),
                            ("direction", "in"),
                        ],
                        c.bytes_in,
                    );
                }
                if c.messages > 0 {
                    exp.sample_u64("ledger_messages_total", labels, c.messages);
                }
                if c.cpu_ns > 0 {
                    exp.sample_f64("ledger_cpu_seconds_total", labels, c.cpu_ns as f64 / 1e9);
                }
            }
        }

        if !self.trace_kinds.is_empty() {
            exp.header(
                "trace_events_total",
                "Events in the merged execution trace by kind",
                MetricKind::Counter,
            );
            for (kind, count) in &self.trace_kinds {
                exp.sample_u64(
                    "trace_events_total",
                    &[("setup", setup), ("kind", kind)],
                    *count,
                );
            }
        }
        if let Some(health) = &self.health {
            exp.header(
                "health_stalls_total",
                "Stalls detected and cleared by the health tracker",
                MetricKind::Counter,
            );
            exp.sample_u64(
                "health_stalls_total",
                &[("setup", setup), ("state", "detected")],
                health.stalls_detected,
            );
            exp.sample_u64(
                "health_stalls_total",
                &[("setup", setup), ("state", "cleared")],
                health.stalls_cleared,
            );
            exp.header(
                "health_max_stall_seconds",
                "Longest observed progress gap past the stall threshold",
                MetricKind::Gauge,
            );
            exp.sample_f64(
                "health_max_stall_seconds",
                base,
                health.max_stall_ms as f64 / 1e3,
            );
            exp.header(
                "health_open_instances",
                "Consensus instances opened but never delivered, at end of run",
                MetricKind::Gauge,
            );
            exp.sample_u64("health_open_instances", base, health.open_instances);
            exp.header(
                "health_pending_values",
                "Submitted values never delivered in order, at end of run",
                MetricKind::Gauge,
            );
            exp.sample_u64("health_pending_values", base, health.pending_values);
        }
        if let Some(summary) = &self.span_summary {
            exp.header(
                "trace_phase_latency_seconds",
                "Per-phase latency from the trace (mean and max over values)",
                MetricKind::Gauge,
            );
            for seg in &summary.segments {
                exp.sample_f64(
                    "trace_phase_latency_seconds",
                    &[("setup", setup), ("phase", seg.name), ("stat", "mean")],
                    seg.mean_ns as f64 / 1e9,
                );
                exp.sample_f64(
                    "trace_phase_latency_seconds",
                    &[("setup", setup), ("phase", seg.name), ("stat", "max")],
                    seg.max_ns as f64 / 1e9,
                );
            }
        }
        exp.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semantic_gossip::NodeId;

    fn fate(seq: u64, submitted_ms: u64, ordered_ms: Option<u64>, in_window: bool) -> ValueFate {
        ValueFate {
            value: paxos::ValueId::new(NodeId::new(1), seq),
            region_slot: 2,
            submitted_at: SimTime::from_nanos(submitted_ms * 1_000_000),
            ordered_at: ordered_ms.map(|m| SimTime::from_nanos(m * 1_000_000)),
            in_window,
        }
    }

    #[test]
    fn values_outside_window_are_ignored() {
        let mut m = RunMetrics::new("Gossip", 13, 10.0, SimDuration::from_secs(1));
        m.record_value(&fate(0, 10, Some(20), false));
        assert_eq!(m.submitted_in_window, 0);
        assert_eq!(m.ordered, 0);
    }

    #[test]
    fn ordered_and_lost_values_are_counted() {
        let mut m = RunMetrics::new("Gossip", 13, 10.0, SimDuration::from_secs(2));
        m.record_value(&fate(0, 100, Some(250), true));
        m.record_value(&fate(1, 100, None, true));
        assert_eq!(m.submitted_in_window, 2);
        assert_eq!(m.ordered, 1);
        assert_eq!(m.not_ordered_in_window, 1);
        assert!((m.not_ordered_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(m.latency_stats().0, SimDuration::from_millis(150));
        assert_eq!(m.throughput(), 0.5);
        assert_eq!(m.latency_by_region[2].len(), 1);
    }

    #[test]
    fn node_counters_accumulate() {
        let mut m = RunMetrics::new("Gossip", 3, 10.0, SimDuration::from_secs(1));
        let mut stats = MessageStats::default();
        stats.received.add(10);
        stats.received_parts.add(10);
        stats.duplicates.add(4);
        m.record_node(0, 100, 50, Some(stats));
        m.record_node(1, 30, 20, Some(stats));
        m.record_node(2, 50, 40, Some(stats));
        assert_eq!(m.coordinator_received(), 100);
        assert_eq!(m.mean_regular_received(), 40.0);
        assert_eq!(m.gossip_received(), 30);
        assert!((m.duplicate_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prometheus_exposition_lists_run_counters() {
        let mut m = RunMetrics::new("Semantic Gossip", 13, 26.0, SimDuration::from_secs(2));
        m.record_value(&fate(0, 100, Some(250), true));
        m.gossip.received.add(7);
        m.plumtree.requests_unserved.add(4);
        m.plumtree.parent_changes.add(3);
        m.value_waits = 2;
        m.proposals_parked = 5;
        m.trace_kinds = vec![("decided", 3), ("phase2a", 9)];
        let text = m.prometheus();
        assert!(text.contains("testbed_value_waits_total{setup=\"Semantic Gossip\"} 2"));
        assert!(text.contains("testbed_proposals_parked_total{setup=\"Semantic Gossip\"} 5"));
        assert!(text.contains("testbed_parked_proposals{setup=\"Semantic Gossip\"} 0"));
        assert!(text.contains("# TYPE testbed_ordered_total counter"));
        assert!(text.contains("testbed_ordered_total{setup=\"Semantic Gossip\"} 1"));
        assert!(text
            .contains("gossip_messages_total{setup=\"Semantic Gossip\",counter=\"received\"} 7"));
        assert!(text.contains(
            "plumtree_messages_total{setup=\"Semantic Gossip\",counter=\"requests_unserved\"} 4"
        ));
        assert!(text.contains(
            "plumtree_messages_total{setup=\"Semantic Gossip\",counter=\"parent_changes\"} 3"
        ));
        assert!(text.contains("trace_events_total{setup=\"Semantic Gossip\",kind=\"phase2a\"} 9"));
        assert!(text.contains("testbed_safety_ok{setup=\"Semantic Gossip\"} 1"));
        // The latency distribution is exposed as a histogram family.
        assert!(text.contains("# TYPE testbed_latency_seconds histogram"));
        assert!(text
            .contains("testbed_latency_seconds_bucket{setup=\"Semantic Gossip\",le=\"+Inf\"} 1"));
        assert!(text.contains("testbed_latency_seconds_count{setup=\"Semantic Gossip\"} 1"));
        // An empty ledger contributes no families...
        assert!(!text.contains("ledger_bytes_total"));
    }

    #[test]
    fn ledger_cells_are_exposed_as_metrics() {
        let mut m = RunMetrics::new("Gossip", 3, 10.0, SimDuration::from_secs(1));
        m.gossip.bytes_sent.add(500);
        m.gossip.bytes_filtered.add(120);
        m.ledger.add_out("transport", "Phase2a", 300);
        m.ledger.add_in("transport", "Phase2a", 280);
        m.ledger.charge_cpu("paxos", "Phase2a", 1_500_000);
        m.ledger.add_messages("semantics", "Decision", 4);
        let text = m.prometheus();
        assert!(text.contains("gossip_bytes_total{setup=\"Gossip\",counter=\"sent\"} 500"));
        assert!(text.contains("gossip_bytes_total{setup=\"Gossip\",counter=\"filtered\"} 120"));
        assert!(text.contains(
            "ledger_bytes_total{setup=\"Gossip\",subsystem=\"transport\",\
             class=\"Phase2a\",direction=\"out\"} 300"
        ));
        assert!(text.contains(
            "ledger_bytes_total{setup=\"Gossip\",subsystem=\"transport\",\
             class=\"Phase2a\",direction=\"in\"} 280"
        ));
        assert!(text.contains(
            "ledger_messages_total{setup=\"Gossip\",subsystem=\"semantics\",class=\"Decision\"} 4"
        ));
        assert!(text.contains(
            "ledger_cpu_seconds_total{setup=\"Gossip\",subsystem=\"paxos\",class=\"Phase2a\"} 0.0015"
        ));
    }

    #[test]
    fn health_summary_is_exposed_as_metrics() {
        let mut m = RunMetrics::new("Gossip", 13, 10.0, SimDuration::from_secs(1));
        m.health = Some(obs::HealthSummary {
            stalls_detected: 1,
            stalls_cleared: 0,
            max_stall_ms: 2500,
            stalled_instance: Some(7),
            open_instances: 1,
            pending_values: 3,
        });
        let text = m.prometheus();
        assert!(text.contains("health_stalls_total{setup=\"Gossip\",state=\"detected\"} 1"));
        assert!(text.contains("health_stalls_total{setup=\"Gossip\",state=\"cleared\"} 0"));
        assert!(text.contains("health_max_stall_seconds{setup=\"Gossip\"} 2.5"));
        assert!(text.contains("health_open_instances{setup=\"Gossip\"} 1"));
        assert!(text.contains("health_pending_values{setup=\"Gossip\"} 3"));
    }

    #[test]
    fn flight_dump_is_reasoned_and_parseable() {
        let mut m = RunMetrics::new("Gossip", 3, 10.0, SimDuration::from_secs(1));
        assert!(m.flight_dump("test").is_none());
        m.flight = vec![obs::TimedEvent {
            at: 42,
            event: obs::Event::Decided {
                node: 1,
                instance: 0,
                origin: 2,
                seq: 9,
            },
        }];
        let dump = m.flight_dump("audit failure").expect("non-empty flight");
        assert!(dump.contains("flight dump: audit failure"));
        let lines: Vec<obs::TimedEvent> = dump
            .lines()
            .map(|l| obs::TimedEvent::from_json(l).expect("valid trace line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].at, 42);
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = RunMetrics::new("Baseline", 13, 10.0, SimDuration::ZERO);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.not_ordered_fraction(), 0.0);
        assert_eq!(m.mean_regular_received(), 0.0);
        assert_eq!(m.coordinator_received(), 0);
    }
}
