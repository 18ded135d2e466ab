//! Post-mortem trace analytics: the paper's headline numbers from a JSONL
//! event stream.
//!
//! [`analyze_str`] folds a recorded trace (one [`obs::TimedEvent`] per
//! line, as written by `wan_paxos --trace` or `live_tcp --trace`) into a
//! [`TraceAnalysis`]:
//!
//! * **semantic efficacy** — how many outgoing messages the semantic layer
//!   suppressed (`semantic_filtered`) or merged away (`votes_aggregated`),
//!   relative to everything that reached the send path (§5 of the paper);
//! * **redundancy** — wire receptions vs fresh deliveries, i.e. how many
//!   copies of each message the gossip epidemic actually paid for;
//! * **hop counts** — causal delivery paths reconstructed from each node's
//!   *first* reception of each message id;
//! * **per-phase latency** — submit → 2a → quorum → decided → ordered
//!   quantiles (p50/p90/p99/p999), one bounded
//!   [`LogHistogram`](obs::LogHistogram) per segment.
//!
//! The text report and CSV are deterministic byte-for-byte for a given
//! trace, so they can be golden-tested and diffed across runs.

use std::collections::{BTreeMap, BTreeSet};

use obs::span::SEGMENTS;
use obs::{Event, LogHistogram, TimedEvent};

use crate::ledger::TraceLedger;
pub use crate::replay::AnalyzeError;
use crate::replay::{control_class, parse_jsonl, runs, RunIndex};
use crate::report::Table;

/// Wire-byte redundancy breakdown of one run: where every sent byte went,
/// split into fresh payload traffic, dissemination-control overhead
/// (IHAVE/IWANT/GRAFT/PRUNE), and payload bytes that arrived as
/// duplicates — the substrate-comparison columns of ROADMAP item 2.
///
/// `encoded_bytes` is the denominator of the headline ratio: every node
/// that delivers a message encodes its frame once (PR 3's encode-once
/// discipline), so Σ over deliveries of the message's frame size is the
/// cluster's total encoding work. Pure push resends that frame to every
/// peer (ratio ≈ fanout); an eager/lazy tree sends it on ~1 link per
/// node plus 8-byte announcements (ratio → 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireRedundancy {
    /// Payload frame bytes handed to the wire.
    pub payload_bytes: u64,
    /// Control frame bytes per class, in [`CONTROL_CLASSES`] order
    /// (IHAVE, IWANT, GRAFT, PRUNE). All zero for push-gossip runs.
    pub control_bytes: [u64; 4],
    /// Payload bytes whose reception was discarded as a duplicate
    /// (duplicate drops × the message's frame size).
    pub duplicate_bytes: u64,
    /// Frame bytes encoded: Σ over fresh deliveries of the delivered
    /// message's frame size.
    pub encoded_bytes: u64,
}

impl WireRedundancy {
    /// Total control bytes across all four classes.
    pub fn total_control_bytes(&self) -> u64 {
        self.control_bytes.iter().sum()
    }

    /// All bytes handed to the wire: payload + control.
    pub fn wire_bytes(&self) -> u64 {
        self.payload_bytes + self.total_control_bytes()
    }

    /// The headline ratio: wire bytes out per byte encoded. ~fanout for
    /// pure push, → 1 for a converged eager/lazy tree.
    pub fn bytes_sent_per_byte_encoded(&self) -> f64 {
        ratio(self.wire_bytes(), self.encoded_bytes)
    }

    /// Fraction of payload bytes that arrived as duplicates.
    pub fn duplicate_byte_share(&self) -> f64 {
        ratio(self.duplicate_bytes, self.payload_bytes)
    }

    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &WireRedundancy) {
        self.payload_bytes += other.payload_bytes;
        for (a, b) in self.control_bytes.iter_mut().zip(&other.control_bytes) {
            *a += b;
        }
        self.duplicate_bytes += other.duplicate_bytes;
        self.encoded_bytes += other.encoded_bytes;
    }
}

/// Latency distribution of one pipeline segment.
#[derive(Debug, Clone)]
pub struct PhaseLatency {
    /// Segment name (e.g. `"submit -> phase2a"`).
    pub name: &'static str,
    /// Per-value segment durations, in nanoseconds.
    pub hist: LogHistogram,
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Total events in the trace.
    pub events: usize,
    /// Distinct node ids appearing in the trace.
    pub nodes: usize,
    /// Concatenated runs detected in the trace (see [`crate::replay::runs`]).
    pub runs: usize,
    /// Traced time summed over runs, in nanoseconds.
    pub duration_ns: u64,
    /// Events per kind string.
    pub kind_counts: BTreeMap<&'static str, u64>,

    // -- semantic efficacy (send path) --
    /// Messages handed to the wire (`gossip_sent`).
    pub sent: u64,
    /// Messages suppressed by semantic filtering (`semantic_filtered`).
    pub filtered: u64,
    /// Messages merged away by aggregation (Σ `before - after` over
    /// `votes_aggregated`).
    pub merged: u64,

    // -- redundancy (receive path) --
    /// Wire messages received (`gossip_received`).
    pub receptions: u64,
    /// Individual parts after disaggregation.
    pub parts: u64,
    /// Parts discarded as recently-seen duplicates (`duplicate_dropped`).
    pub duplicates: u64,
    /// Fresh messages handed to the consensus layer (`gossip_delivered`).
    pub deliveries: u64,

    // -- hop counts --
    /// Deliveries per hop count (0 = delivered at the origin).
    pub hops: BTreeMap<u32, u64>,
    /// Deliveries whose causal chain could not be resolved (truncated or
    /// inconsistent traces).
    pub unresolved_hops: u64,

    // -- resource attribution --
    /// Per-`(subsystem, class)` byte/CPU attribution replayed from the
    /// trace's byte-carrying wire events, merged over runs (class joins
    /// never cross a run boundary).
    pub ledger: TraceLedger,

    // -- wire redundancy --
    /// Per-run wire-byte redundancy breakdown, in run order. A multi-run
    /// trace (`wan_paxos --trace` concatenates one run per substrate) gets
    /// one entry per substrate, which is the per-substrate comparison.
    pub wire: Vec<WireRedundancy>,

    // -- per-phase latency --
    /// One distribution per pipeline segment, in pipeline order.
    pub phases: Vec<PhaseLatency>,
    /// Distinct values observed / values with every milestone.
    pub values_tracked: usize,
    /// Values whose every milestone was observed.
    pub values_complete: usize,
}

/// Parses and analyzes a JSONL trace.
///
/// # Errors
///
/// Returns the first malformed line (blank lines are not tolerated:
/// a trace is exactly one event per line).
pub fn analyze_str(input: &str) -> Result<TraceAnalysis, AnalyzeError> {
    Ok(analyze(&parse_jsonl(input)?))
}

/// Analyzes an already-decoded event stream, run by run (see
/// [`crate::replay`]): hop chains, value spans and class joins never cross
/// a run boundary; per-run results are merged into one analysis.
pub fn analyze(events: &[TimedEvent]) -> TraceAnalysis {
    let mut analysis = TraceAnalysis {
        events: events.len(),
        kind_counts: obs::prom::event_kind_counts(events),
        phases: SEGMENTS
            .iter()
            .map(|&(name, _)| PhaseLatency {
                name,
                hist: LogHistogram::new(),
            })
            .collect(),
        ..TraceAnalysis::default()
    };

    let mut nodes = BTreeSet::new();
    for run in runs(events) {
        let ix = RunIndex::build(run);
        analyze_run(run, &ix, &mut analysis);
        nodes.extend(ix.nodes);
    }
    analysis.nodes = nodes.len();
    analysis
}

/// Folds one run's events into the analysis.
fn analyze_run(run: &[TimedEvent], ix: &RunIndex, out: &mut TraceAnalysis) {
    out.runs += 1;
    out.duration_ns += ix.duration_ns;
    let mut wire = WireRedundancy::default();
    let mut ledger = TraceLedger::new();

    for timed in run {
        ledger.observe(timed, ix);
        match &timed.event {
            Event::GossipSent { .. } => out.sent += 1,
            Event::SemanticFiltered { .. } => out.filtered += 1,
            Event::VotesAggregated { before, after, .. } => {
                out.merged += before.saturating_sub(*after);
            }
            Event::GossipReceived { .. } => {
                out.receptions += 1;
                out.parts += 1;
            }
            Event::GossipDisaggregated { parts: p, .. } => {
                // The reception itself already counted one part.
                out.parts += p.saturating_sub(1);
            }
            Event::DuplicateDropped { msg, .. } => {
                out.duplicates += 1;
                wire.duplicate_bytes += ix.frame_size(*msg);
            }
            Event::GossipDelivered { node, msg } => {
                out.deliveries += 1;
                wire.encoded_bytes += ix.frame_size(*msg);
                // Hop count: the delivery's first-reception chain back to
                // a node with no recorded reception of the id (its origin).
                match ix.chain(*msg, None, *node) {
                    Some(hops) => *out.hops.entry(hops.len() as u32).or_insert(0) += 1,
                    None => out.unresolved_hops += 1,
                }
            }
            Event::WireFrame { kind, bytes, .. } => match control_class(kind) {
                Some(i) => wire.control_bytes[i] += bytes,
                None => wire.payload_bytes += bytes,
            },
            Event::FrameShared { fanout, bytes, .. } => {
                // One encode, `fanout` transmissions of the same frame.
                wire.payload_bytes += bytes * fanout;
            }
            _ => {}
        }
    }
    out.wire.push(wire);
    out.ledger.merge(&ledger);

    // Per-phase latency distributions from the stitched value spans.
    out.values_tracked += ix.spans.len();
    for (_, span) in ix.spans.iter() {
        out.values_complete += usize::from(span.complete());
        for (phase, &(_, measure)) in out.phases.iter_mut().zip(SEGMENTS.iter()) {
            if let Some(ns) = measure(span) {
                phase.hist.record(ns);
            }
        }
    }
}

/// One replay ledger per run in a (possibly concatenated) trace. Per-run
/// ledgers are what expose the paper's Gossip-vs-SemanticGossip per-class
/// savings — `wan_paxos --trace` writes all setups into one file, and
/// merging them would blur exactly the contrast being measured.
pub fn ledgers(events: &[TimedEvent]) -> Vec<TraceLedger> {
    runs(events)
        .map(|run| TraceLedger::replay(run, &RunIndex::build(run)))
        .collect()
}

impl TraceAnalysis {
    /// Messages that reached the send path: sent, suppressed, or merged.
    pub fn outgoing_candidates(&self) -> u64 {
        self.sent + self.filtered + self.merged
    }

    /// Fraction of outgoing candidates suppressed by semantic filtering.
    pub fn filter_efficacy(&self) -> f64 {
        ratio(self.filtered, self.outgoing_candidates())
    }

    /// Fraction of outgoing candidates merged away by aggregation.
    pub fn aggregation_efficacy(&self) -> f64 {
        ratio(self.merged, self.outgoing_candidates())
    }

    /// Parts that arrived per fresh delivery off the wire: 1.0 means no
    /// redundant copies, 2.0 means every message arrived twice.
    pub fn redundancy_ratio(&self) -> f64 {
        ratio(self.parts, self.parts.saturating_sub(self.duplicates))
    }

    /// Fraction of received parts discarded as duplicates.
    pub fn duplicate_share(&self) -> f64 {
        ratio(self.duplicates, self.parts)
    }

    /// Mean hops per resolved delivery.
    pub fn mean_hops(&self) -> f64 {
        let total: u64 = self.hops.values().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.hops.iter().map(|(&h, &c)| h as u64 * c).sum();
        weighted as f64 / total as f64
    }

    /// The per-phase latency quantiles as a table (the CSV's rows).
    pub fn phase_table(&self) -> Table {
        let mut t = Table::new(vec![
            "phase", "count", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms",
        ]);
        for phase in &self.phases {
            let q = |q: f64| match phase.hist.quantile(q) {
                Some(ns) => format!("{:.3}", ns as f64 / 1e6),
                None => "-".to_string(),
            };
            let max = match phase.hist.max() {
                Some(ns) => format!("{:.3}", ns as f64 / 1e6),
                None => "-".to_string(),
            };
            t.row(vec![
                phase.name.to_string(),
                phase.hist.count().to_string(),
                q(0.50),
                q(0.90),
                q(0.99),
                q(0.999),
                max,
            ]);
        }
        t
    }

    /// Wire bytes and send/filter counts per message class, as a table
    /// (the redundancy section's per-class byte columns).
    pub fn class_byte_table(&self) -> Table {
        let mut t = Table::new(vec!["class", "bytes_out", "byte_share", "sent", "filtered"]);
        let total = self.ledger.ledger.total_bytes_out();
        let counts = self.ledger.send_filter_by_class();
        for (class, bytes) in self.ledger.ledger.bytes_out_by_class() {
            let (sent, filtered) = counts
                .iter()
                .find(|(c, _, _)| *c == class)
                .map(|&(_, s, f)| (s, f))
                .unwrap_or((0, 0));
            t.row(vec![
                class,
                bytes.to_string(),
                format!("{:.1}%", ratio(bytes, total) * 100.0),
                sent.to_string(),
                filtered.to_string(),
            ]);
        }
        t
    }

    /// Every run's wire-redundancy breakdown merged into one (blurs the
    /// per-substrate contrast of a multi-run trace; prefer [`Self::wire`]
    /// for comparisons).
    pub fn wire_merged(&self) -> WireRedundancy {
        let mut merged = WireRedundancy::default();
        for w in &self.wire {
            merged.merge(w);
        }
        merged
    }

    /// The per-run (per-substrate) wire-redundancy breakdown as a table.
    pub fn wire_table(&self) -> Table {
        let mut t = Table::new(vec![
            "run",
            "payload_B",
            "ihave_B",
            "iwant_B",
            "graft_B",
            "prune_B",
            "dup_B",
            "encoded_B",
            "sent_per_encoded",
        ]);
        for (i, w) in self.wire.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                w.payload_bytes.to_string(),
                w.control_bytes[0].to_string(),
                w.control_bytes[1].to_string(),
                w.control_bytes[2].to_string(),
                w.control_bytes[3].to_string(),
                w.duplicate_bytes.to_string(),
                w.encoded_bytes.to_string(),
                format!("{:.2}", w.bytes_sent_per_byte_encoded()),
            ]);
        }
        t
    }

    /// The hop-count distribution as a table.
    pub fn hop_table(&self) -> Table {
        let mut t = Table::new(vec!["hops", "deliveries", "share"]);
        let total: u64 = self.hops.values().sum();
        for (&h, &c) in &self.hops {
            t.row(vec![
                h.to_string(),
                c.to_string(),
                format!("{:.1}%", ratio(c, total) * 100.0),
            ]);
        }
        t
    }

    /// The full text report (deterministic for a given trace).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== trace ==");
        let _ = writeln!(out, "events           {}", self.events);
        let _ = writeln!(out, "nodes            {}", self.nodes);
        let _ = writeln!(out, "runs             {}", self.runs);
        let _ = writeln!(
            out,
            "traced time      {:.3} s",
            self.duration_ns as f64 / 1e9
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "== semantic efficacy (send path) ==");
        let _ = writeln!(out, "outgoing candidates  {}", self.outgoing_candidates());
        let _ = writeln!(
            out,
            "sent                 {}  ({:.1}%)",
            self.sent,
            ratio(self.sent, self.outgoing_candidates()) * 100.0
        );
        let _ = writeln!(
            out,
            "filter-suppressed    {}  ({:.1}%)",
            self.filtered,
            self.filter_efficacy() * 100.0
        );
        let _ = writeln!(
            out,
            "aggregation-merged   {}  ({:.1}%)",
            self.merged,
            self.aggregation_efficacy() * 100.0
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "== redundancy (receive path) ==");
        let _ = writeln!(out, "wire receptions      {}", self.receptions);
        let _ = writeln!(out, "parts after disagg   {}", self.parts);
        let _ = writeln!(out, "duplicate drops      {}", self.duplicates);
        let _ = writeln!(out, "fresh deliveries     {}", self.deliveries);
        let _ = writeln!(
            out,
            "redundancy ratio     {:.2}  (parts per fresh delivery)",
            self.redundancy_ratio()
        );
        let _ = writeln!(
            out,
            "duplicate share      {:.1}%",
            self.duplicate_share() * 100.0
        );
        // Per-class wire bytes, when the trace carried byte-attribution
        // events (wire_frame / frame_shared); older traces without them
        // keep the exact report they always produced.
        let wire_bytes = self.ledger.attributed_bytes + self.ledger.unattributed_bytes;
        if wire_bytes > 0 {
            let _ = writeln!(out);
            let _ = writeln!(out, "wire bytes           {wire_bytes}");
            let _ = writeln!(
                out,
                "bytes attributed     {:.1}%",
                self.ledger.attribution_ratio() * 100.0
            );
            out.push_str(&self.class_byte_table().render());
        }
        // Per-run byte split: payload vs tree-control vs duplicate bytes,
        // and the headline sent-per-encoded ratio (one row per substrate
        // in a `wan_paxos --trace` style multi-run trace).
        if self.wire.iter().any(|w| w.wire_bytes() > 0) {
            let _ = writeln!(out);
            let _ = writeln!(out, "== wire redundancy (per run) ==");
            out.push_str(&self.wire_table().render());
            let merged = self.wire_merged();
            let _ = writeln!(
                out,
                "bytes sent per byte encoded  {:.2}  (all runs)",
                merged.bytes_sent_per_byte_encoded()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "== hop counts (causal delivery paths) ==");
        if self.hops.is_empty() {
            let _ = writeln!(out, "no gossip deliveries in this trace");
        } else {
            out.push_str(&self.hop_table().render());
            let _ = writeln!(out, "mean hops            {:.2}", self.mean_hops());
        }
        if self.unresolved_hops > 0 {
            let _ = writeln!(out, "unresolved paths     {}", self.unresolved_hops);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "== per-phase latency (ms) ==");
        out.push_str(&self.phase_table().render());
        let _ = writeln!(
            out,
            "values tracked       {}  (complete: {})",
            self.values_tracked, self.values_complete
        );
        out
    }

    /// The per-phase latency quantiles as CSV.
    pub fn csv(&self) -> String {
        self.phase_table().to_csv()
    }

    /// The analysis as one machine-readable JSON object (deterministic
    /// for a given trace; keys sorted, integers exact).
    pub fn to_json(&self) -> String {
        use obs::json::JsonValue as J;
        use std::collections::BTreeMap as Map;

        let int = |v: u64| J::Int(v as i128);
        let obj = |entries: Vec<(&str, J)>| {
            J::Obj(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect::<Map<String, J>>(),
            )
        };

        let kinds = J::Obj(
            self.kind_counts
                .iter()
                .map(|(&k, &c)| (k.to_string(), int(c)))
                .collect(),
        );
        let hops = J::Obj(
            self.hops
                .iter()
                .map(|(&h, &c)| (h.to_string(), int(c)))
                .collect(),
        );
        let phases = J::Arr(
            self.phases
                .iter()
                .map(|p| {
                    let q = |q: f64| match p.hist.quantile(q) {
                        Some(ns) => int(ns),
                        None => J::Null,
                    };
                    obj(vec![
                        ("name", J::Str(p.name.to_string())),
                        ("count", int(p.hist.count())),
                        ("p50_ns", q(0.50)),
                        ("p90_ns", q(0.90)),
                        ("p99_ns", q(0.99)),
                        ("p999_ns", q(0.999)),
                        ("max_ns", p.hist.max().map_or(J::Null, int)),
                    ])
                })
                .collect(),
        );

        let mut root = vec![
            ("events", int(self.events as u64)),
            ("nodes", int(self.nodes as u64)),
            ("runs", int(self.runs as u64)),
            ("duration_ns", int(self.duration_ns)),
            ("kind_counts", kinds),
            (
                "semantic",
                obj(vec![
                    ("sent", int(self.sent)),
                    ("filtered", int(self.filtered)),
                    ("merged", int(self.merged)),
                    ("outgoing_candidates", int(self.outgoing_candidates())),
                    ("filter_efficacy", J::Float(self.filter_efficacy())),
                    (
                        "aggregation_efficacy",
                        J::Float(self.aggregation_efficacy()),
                    ),
                ]),
            ),
            (
                "redundancy",
                obj(vec![
                    ("receptions", int(self.receptions)),
                    ("parts", int(self.parts)),
                    ("duplicates", int(self.duplicates)),
                    ("deliveries", int(self.deliveries)),
                    ("redundancy_ratio", J::Float(self.redundancy_ratio())),
                    ("duplicate_share", J::Float(self.duplicate_share())),
                ]),
            ),
            (
                "hops",
                obj(vec![
                    ("by_count", hops),
                    ("mean", J::Float(self.mean_hops())),
                    ("unresolved", int(self.unresolved_hops)),
                ]),
            ),
            ("phases", phases),
            (
                "values",
                obj(vec![
                    ("tracked", int(self.values_tracked as u64)),
                    ("complete", int(self.values_complete as u64)),
                ]),
            ),
        ];
        // Wire redundancy appears only when some run carried byte events,
        // so pre-ledger traces keep their exact JSON.
        if self.wire.iter().any(|w| w.wire_bytes() > 0) {
            let runs = J::Arr(
                self.wire
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("payload_bytes", int(w.payload_bytes)),
                            ("ihave_bytes", int(w.control_bytes[0])),
                            ("iwant_bytes", int(w.control_bytes[1])),
                            ("graft_bytes", int(w.control_bytes[2])),
                            ("prune_bytes", int(w.control_bytes[3])),
                            ("duplicate_bytes", int(w.duplicate_bytes)),
                            ("encoded_bytes", int(w.encoded_bytes)),
                            (
                                "bytes_sent_per_byte_encoded",
                                J::Float(w.bytes_sent_per_byte_encoded()),
                            ),
                        ])
                    })
                    .collect(),
            );
            root.push(("wire_redundancy", runs));
        }
        // Byte attribution appears only when the trace carried byte
        // events, so pre-ledger traces keep their exact JSON.
        if self.ledger.attributed_bytes + self.ledger.unattributed_bytes > 0 {
            root.push(("ledger", self.ledger.to_json()));
        }
        obj(root).render()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl(events: &[(u64, Event)]) -> String {
        events
            .iter()
            .map(|(at, event)| {
                TimedEvent {
                    at: *at,
                    event: event.clone(),
                }
                .to_json()
                    + "\n"
            })
            .collect()
    }

    /// A three-node line 0 → 1 → 2: node 0 originates message 5, both
    /// others deliver it, node 2 also receives a redundant copy directly
    /// from 0 and drops it.
    fn line_trace() -> String {
        use Event::*;
        jsonl(&[
            (10, GossipDelivered { node: 0, msg: 5 }),
            (
                11,
                GossipSent {
                    node: 0,
                    to: 1,
                    msg: 5,
                },
            ),
            (
                12,
                GossipSent {
                    node: 0,
                    to: 2,
                    msg: 5,
                },
            ),
            (
                20,
                GossipReceived {
                    node: 1,
                    from: 0,
                    msg: 5,
                },
            ),
            (21, GossipDelivered { node: 1, msg: 5 }),
            (
                22,
                GossipSent {
                    node: 1,
                    to: 2,
                    msg: 5,
                },
            ),
            (
                30,
                GossipReceived {
                    node: 2,
                    from: 1,
                    msg: 5,
                },
            ),
            (31, GossipDelivered { node: 2, msg: 5 }),
            (
                40,
                GossipReceived {
                    node: 2,
                    from: 0,
                    msg: 5,
                },
            ),
            (41, DuplicateDropped { node: 2, msg: 5 }),
        ])
    }

    #[test]
    fn hop_chains_follow_first_receptions() {
        let a = analyze_str(&line_trace()).unwrap();
        // 0 delivered at 0 hops, 1 at one hop, 2 at two (via 1, its first
        // reception), despite the later direct copy from 0.
        assert_eq!(a.hops, BTreeMap::from([(0, 1), (1, 1), (2, 1)]));
        assert_eq!(a.unresolved_hops, 0);
        assert_eq!(a.mean_hops(), 1.0);
        assert_eq!(a.receptions, 3);
        assert_eq!(a.parts, 3);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.deliveries, 3);
        // 3 parts for 2 fresh network deliveries → 1.5 copies each.
        assert_eq!(a.redundancy_ratio(), 1.5);
    }

    /// Wire redundancy splits payload vs tree-control vs duplicate bytes
    /// and prices encoded bytes from one frame per delivered message.
    #[test]
    fn wire_redundancy_splits_payload_control_and_duplicates() {
        use Event::*;
        let wf = |node: u32, peer: u32, msg: u64, kind: &str, bytes: u64| WireFrame {
            node,
            peer,
            msg,
            kind: kind.to_string(),
            bytes,
        };
        let trace = jsonl(&[
            // Node 0 broadcasts msg 5 (100-byte frame) eagerly to 1 and 2,
            // with an 11-byte IHAVE echo to each.
            (10, GossipDelivered { node: 0, msg: 5 }),
            (11, wf(0, 1, 5, "Ping", 100)),
            (12, wf(0, 2, 5, "Ping", 100)),
            (13, wf(0, 1, 0, "IHAVE", 11)),
            (14, wf(0, 2, 0, "IHAVE", 11)),
            (20, GossipDelivered { node: 1, msg: 5 }),
            // Node 1 relays the payload to 2, which already has it: a
            // duplicate worth one frame, answered with a PRUNE. Node 2
            // asks for a phantom id with an IWANT; 1 grafts back.
            (21, wf(1, 2, 5, "Ping", 100)),
            (30, GossipDelivered { node: 2, msg: 5 }),
            (31, DuplicateDropped { node: 2, msg: 5 }),
            (32, wf(2, 1, 0, "PRUNE", 5)),
            (33, wf(2, 1, 0, "IWANT", 11)),
            (34, wf(1, 2, 0, "GRAFT", 15)),
            // A TCP-runtime style shared frame: msg 6 (40 bytes) to 3 peers.
            (
                40,
                FrameShared {
                    node: 0,
                    msg: 6,
                    fanout: 3,
                    bytes: 40,
                },
            ),
        ]);
        let a = analyze_str(&trace).unwrap();
        let w = a.wire_merged();
        // Payload: 100 + 100 + 100 + 40×3 = 420.
        assert_eq!(w.payload_bytes, 420);
        // Control in CONTROL_CLASSES order: IHAVE, IWANT, GRAFT, PRUNE.
        assert_eq!(w.control_bytes, [22, 11, 15, 5]);
        assert_eq!(w.total_control_bytes(), 53);
        // One duplicate of msg 5, priced at its 100-byte frame.
        assert_eq!(w.duplicate_bytes, 100);
        // Three deliveries of msg 5 (100 each); msg 6 was never delivered.
        assert_eq!(w.encoded_bytes, 300);
        assert_eq!(w.wire_bytes(), 473);
        assert!((w.bytes_sent_per_byte_encoded() - 473.0 / 300.0).abs() < 1e-12);
        assert!((w.duplicate_byte_share() - 100.0 / 420.0).abs() < 1e-12);
        // The report and JSON both surface the section.
        assert!(a.report().contains("== wire redundancy (per run) =="));
        assert!(a.to_json().contains("\"wire_redundancy\""));
        // A trace with no wire bytes keeps its JSON free of the section.
        let plain = analyze_str(&line_trace()).unwrap();
        assert!(!plain.to_json().contains("wire_redundancy"));
    }

    #[test]
    fn efficacy_counts_filter_and_merge() {
        use Event::*;
        let trace = jsonl(&[
            (
                1,
                GossipSent {
                    node: 0,
                    to: 1,
                    msg: 1,
                },
            ),
            (
                2,
                GossipSent {
                    node: 0,
                    to: 1,
                    msg: 2,
                },
            ),
            (3, SemanticFiltered { node: 0, msg: 3 }),
            (
                4,
                VotesAggregated {
                    node: 0,
                    before: 4,
                    after: 1,
                },
            ),
        ]);
        let a = analyze_str(&trace).unwrap();
        assert_eq!(a.sent, 2);
        assert_eq!(a.filtered, 1);
        assert_eq!(a.merged, 3);
        assert_eq!(a.outgoing_candidates(), 6);
        assert!((a.filter_efficacy() - 1.0 / 6.0).abs() < 1e-12);
        assert!((a.aggregation_efficacy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disaggregated_parts_count_toward_redundancy() {
        use Event::*;
        let trace = jsonl(&[
            (
                1,
                GossipReceived {
                    node: 1,
                    from: 0,
                    msg: 9,
                },
            ),
            (
                2,
                GossipDisaggregated {
                    node: 1,
                    msg: 9,
                    parts: 3,
                },
            ),
            (3, GossipDelivered { node: 1, msg: 101 }),
            (4, GossipDelivered { node: 1, msg: 102 }),
            (5, DuplicateDropped { node: 1, msg: 103 }),
        ]);
        let a = analyze_str(&trace).unwrap();
        assert_eq!(a.receptions, 1);
        assert_eq!(a.parts, 3);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.duplicate_share(), 1.0 / 3.0);
    }

    #[test]
    fn phase_quantiles_come_from_spans() {
        use Event::*;
        let mut events = Vec::new();
        for seq in 0..20u64 {
            let base = seq * 1000;
            events.push((
                base,
                ValueSubmitted {
                    node: 0,
                    origin: 0,
                    seq,
                },
            ));
            events.push((
                base + 2_000_000,
                Phase2a {
                    node: 1,
                    instance: seq,
                    round: 0,
                    origin: 0,
                    seq,
                },
            ));
            events.push((
                base + 5_000_000,
                QuorumReached {
                    node: 1,
                    instance: seq,
                    origin: 0,
                    seq,
                },
            ));
            events.push((
                base + 6_000_000,
                Decided {
                    node: 1,
                    instance: seq,
                    origin: 0,
                    seq,
                },
            ));
            events.push((
                base + 10_000_000,
                OrderedDelivered {
                    node: 1,
                    instance: seq,
                    origin: 0,
                    seq,
                },
            ));
        }
        let a = analyze_str(&jsonl(&events)).unwrap();
        assert_eq!(a.values_tracked, 20);
        assert_eq!(a.values_complete, 20);
        assert_eq!(a.phases.len(), 5);
        assert_eq!(a.phases[0].name, "submit -> phase2a");
        assert_eq!(a.phases[0].hist.count(), 20);
        // All durations identical: the p50 estimate is within one bucket
        // of 2 ms.
        let p50 = a.phases[0].hist.quantile(0.5).unwrap();
        let (lo, hi) = obs::hist::bucket_bounds(2_000_000);
        assert!((lo..=hi).contains(&p50));
        let total = a.phases.last().unwrap();
        assert_eq!(total.name, "total submit -> ordered");
        assert_eq!(total.hist.count(), 20);
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = analyze_str(&line_trace()).unwrap();
        let r1 = a.report();
        let r2 = analyze_str(&line_trace()).unwrap().report();
        assert_eq!(r1, r2);
        for needle in [
            "== semantic efficacy",
            "== redundancy",
            "== hop counts",
            "== per-phase latency",
            "redundancy ratio     1.50",
            "mean hops            1.00",
        ] {
            assert!(r1.contains(needle), "missing {needle:?} in:\n{r1}");
        }
        let csv = a.csv();
        assert!(csv.starts_with("phase,count,p50_ms,p90_ms,p99_ms,p999_ms,max_ms\n"));
        assert_eq!(csv.lines().count(), 6); // header + 5 phases
    }

    #[test]
    fn concatenated_runs_are_segmented_at_clock_resets() {
        // Two identical runs back to back: message ids repeat, but the
        // timestamp reset keeps the hop chains from crossing runs.
        let trace = format!("{}{}", line_trace(), line_trace());
        let a = analyze_str(&trace).unwrap();
        assert_eq!(a.runs, 2);
        assert_eq!(a.hops, BTreeMap::from([(0, 2), (1, 2), (2, 2)]));
        assert_eq!(a.unresolved_hops, 0);
        assert_eq!(a.duplicates, 2);
        // Traced time sums per-run extents (each run spans ts 10..41).
        assert_eq!(a.duration_ns, 62);
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let a = analyze_str(&line_trace()).unwrap();
        let json = a.to_json();
        let v = obs::json::JsonValue::parse(&json).expect("valid JSON");
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["events"].as_u64(), Some(10));
        let redundancy = obj["redundancy"].as_obj().unwrap();
        assert_eq!(redundancy["parts"].as_u64(), Some(3));
        let hops = obj["hops"].as_obj().unwrap();
        let by_count = hops["by_count"].as_obj().unwrap();
        assert_eq!(by_count["2"].as_u64(), Some(1));
        let kinds = obj["kind_counts"].as_obj().unwrap();
        assert_eq!(kinds["gossip_delivered"].as_u64(), Some(3));
        // Deterministic byte-for-byte.
        assert_eq!(json, analyze_str(&line_trace()).unwrap().to_json());
    }

    #[test]
    fn bad_line_is_located() {
        let mut trace = line_trace();
        trace.push_str("{\"ts\":1,\"type\":\"warp_drive\"}\n");
        let err = analyze_str(&trace).unwrap_err();
        assert_eq!(err.line, 11);
        assert!(err.to_string().contains("warp_drive"));
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let a = analyze_str("").unwrap();
        assert_eq!(a.events, 0);
        assert_eq!(a.outgoing_candidates(), 0);
        assert_eq!(a.filter_efficacy(), 0.0);
        assert_eq!(a.redundancy_ratio(), 0.0);
        assert!(a.report().contains("no gossip deliveries"));
    }

    /// A run with class-annotated wire traffic: two Phase2a frames for
    /// message 5, one Decision frame for message 6, and their gossip-layer
    /// send events.
    fn wire_trace() -> String {
        use Event::*;
        jsonl(&[
            (
                10,
                WireFrame {
                    node: 0,
                    peer: 1,
                    msg: 5,
                    kind: "Phase2a".to_string(),
                    bytes: 100,
                },
            ),
            (
                11,
                GossipSent {
                    node: 0,
                    to: 1,
                    msg: 5,
                },
            ),
            (
                12,
                WireFrame {
                    node: 0,
                    peer: 2,
                    msg: 5,
                    kind: "Phase2a".to_string(),
                    bytes: 100,
                },
            ),
            (
                13,
                GossipSent {
                    node: 0,
                    to: 2,
                    msg: 5,
                },
            ),
            (
                20,
                WireFrame {
                    node: 1,
                    peer: 2,
                    msg: 6,
                    kind: "Decision".to_string(),
                    bytes: 40,
                },
            ),
            (
                21,
                GossipSent {
                    node: 1,
                    to: 2,
                    msg: 6,
                },
            ),
        ])
    }

    #[test]
    fn ledger_attributes_wire_bytes_by_class() {
        let a = analyze_str(&wire_trace()).unwrap();
        assert_eq!(a.ledger.attributed_bytes, 240);
        assert_eq!(a.ledger.unattributed_bytes, 0);
        assert_eq!(a.ledger.attribution_ratio(), 1.0);
        assert_eq!(
            a.ledger.ledger.bytes_out_by_class(),
            vec![("Decision".to_string(), 40), ("Phase2a".to_string(), 200)]
        );
        // The inline frame class also tags the gossip-layer send counts.
        let sends = a.ledger.send_filter_by_class();
        assert!(sends.contains(&("Phase2a".to_string(), 2, 0)));
        assert!(sends.contains(&("Decision".to_string(), 1, 0)));
        // ...and the human report grows its attribution section.
        let report = a.report();
        assert!(report.contains("bytes attributed"), "{report}");
        assert!(report.contains("100.0%"), "{report}");
        assert!(report.contains("Phase2a"), "{report}");
        // JSON export carries the same numbers.
        let v = obs::json::JsonValue::parse(&a.to_json()).unwrap();
        let ledger = v.as_obj().unwrap()["ledger"].as_obj().unwrap();
        assert_eq!(ledger["bytes_attributed"].as_u64(), Some(240));
        assert_eq!(ledger["attribution_ratio"].as_f64(), Some(1.0));
    }

    #[test]
    fn ledgers_segment_runs_at_clock_resets() {
        // Same run twice: wire ids repeat, so class joins must not cross
        // the boundary — each run gets its own ledger.
        let trace = format!("{}{}", wire_trace(), wire_trace());
        let runs = ledgers(&parse_jsonl(&trace).unwrap());
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(run.attributed_bytes, 240);
            assert_eq!(run.attribution_ratio(), 1.0);
        }
        let mut merged = TraceLedger::new();
        for run in &runs {
            merged.merge(run);
        }
        assert_eq!(merged.attributed_bytes, 480);
        assert_eq!(
            merged.ledger.bytes_out_by_class(),
            vec![("Decision".to_string(), 80), ("Phase2a".to_string(), 400)]
        );
        // The whole-trace analysis folds both runs into one ledger too.
        let a = analyze_str(&trace).unwrap();
        assert_eq!(a.ledger.attributed_bytes, 480);
    }
}
