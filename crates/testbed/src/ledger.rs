//! The replay ledger: a run's wire bytes and CPU attributed to message
//! classes after the fact.
//!
//! [`TraceLedger`] is the post-hoc twin of the [`ResourceLedger`] the
//! simulator fills while it runs: it rebuilds the same `(subsystem, class)`
//! table from a recorded trace and reports how much of the wire it could
//! attribute — the `tracetool ledger` command and the ≥95%-attribution CI
//! gate are built on it. Like every analyzer it is a plain fold over one
//! run and that run's [`RunIndex`], which owns the wire-id → class join.

use std::collections::BTreeMap;

use obs::json::JsonValue;
use obs::ledger::{ResourceLedger, CLASS_UNCLASSIFIED, SUBSYS_TRANSPORT};
use obs::{Event, TimedEvent};

use crate::replay::RunIndex;

/// Post-hoc byte/CPU attribution replayed from a recorded run.
///
/// `wire_frame` (simulated sends) and `frame_shared` (live encode-once
/// broadcasts, `fanout × bytes`) carry the bytes, `cpu_charged` summaries
/// the modelled CPU; classes come from the run's [`RunIndex`]. Bytes whose
/// wire id nothing declares land in [`CLASS_UNCLASSIFIED`] and count
/// against [`TraceLedger::attribution_ratio`] — the CI gate requires ≥95%.
///
/// Transport-level `frame_sent` events describe the *same* frames the
/// classifiable events already account (a frame shared to k peers is later
/// sent k times), so they are tallied separately as a cross-check, never
/// added into the ledger — adding both would double count.
#[derive(Debug, Clone, Default)]
pub struct TraceLedger {
    /// The attribution table being built.
    pub ledger: ResourceLedger,
    /// Bytes from byte-carrying wire events joined to a class.
    pub attributed_bytes: u64,
    /// Bytes from byte-carrying wire events with no declared class.
    pub unattributed_bytes: u64,
    /// Cross-check only: bytes seen by transport `frame_sent` events.
    pub transport_frame_bytes: u64,
    /// Cross-check only: frames seen by transport `frame_sent` events.
    pub transport_frames: u64,
    /// Per class: gossip sends queued toward peers, and outgoing messages
    /// suppressed by the semantic filter.
    by_class: BTreeMap<String, (u64, u64)>,
}

impl TraceLedger {
    /// An empty replay ledger.
    pub fn new() -> Self {
        TraceLedger::default()
    }

    /// Replays one run.
    pub fn replay(run: &[TimedEvent], ix: &RunIndex) -> Self {
        let mut ledger = TraceLedger::new();
        for timed in run {
            ledger.observe(timed, ix);
        }
        ledger
    }

    fn counts(&mut self, class: &str) -> &mut (u64, u64) {
        if !self.by_class.contains_key(class) {
            self.by_class.insert(class.to_string(), (0, 0));
        }
        self.by_class.get_mut(class).expect("just inserted")
    }

    /// Accounts one frame of `class` sent to `fanout` peers.
    fn wire(&mut self, class: &str, fanout: u64, bytes: u64) {
        let total = fanout.saturating_mul(bytes);
        if class == CLASS_UNCLASSIFIED {
            self.unattributed_bytes += total;
        } else {
            self.attributed_bytes += total;
        }
        self.ledger
            .add_out_shared(SUBSYS_TRANSPORT, class, fanout, bytes);
    }

    /// Folds one event of the run `ix` indexes into the attribution table.
    pub fn observe(&mut self, ev: &TimedEvent, ix: &RunIndex) {
        match &ev.event {
            Event::WireFrame {
                msg, kind, bytes, ..
            } => {
                // Prefer the sender's inline class declaration; an empty
                // `kind` (hand-written or older traces) falls back to the
                // `wire_tagged` join.
                let class = if kind.is_empty() {
                    ix.class_of(*msg)
                } else {
                    kind
                };
                self.wire(class, 1, *bytes);
            }
            Event::FrameShared {
                msg, fanout, bytes, ..
            } => self.wire(ix.class_of(*msg), *fanout, *bytes),
            Event::FrameSent { bytes, .. } => {
                self.transport_frame_bytes += *bytes;
                self.transport_frames += 1;
            }
            Event::CpuCharged {
                subsystem,
                class,
                ns,
                ..
            } => self.ledger.charge_cpu(subsystem, class, *ns),
            Event::GossipSent { msg, .. } => self.counts(ix.class_of(*msg)).0 += 1,
            Event::SemanticFiltered { msg, .. } => self.counts(ix.class_of(*msg)).1 += 1,
            _ => {}
        }
    }

    /// Merges another run's totals into this one (multi-run traces: one
    /// `TraceLedger` per run, merged after).
    pub fn merge(&mut self, other: &TraceLedger) {
        self.ledger.merge(&other.ledger);
        self.attributed_bytes += other.attributed_bytes;
        self.unattributed_bytes += other.unattributed_bytes;
        self.transport_frame_bytes += other.transport_frame_bytes;
        self.transport_frames += other.transport_frames;
        for (class, (sent, filtered)) in &other.by_class {
            let counts = self.counts(class);
            counts.0 += sent;
            counts.1 += filtered;
        }
    }

    /// Share of byte-carrying wire bytes that joined to a concrete class,
    /// in `[0, 1]`; `1.0` when the trace carried no byte events.
    pub fn attribution_ratio(&self) -> f64 {
        let total = self.attributed_bytes + self.unattributed_bytes;
        if total == 0 {
            1.0
        } else {
            self.attributed_bytes as f64 / total as f64
        }
    }

    /// Per-class `(sent, filtered)` counts, sorted by class — the paper's
    /// filtering savings broken down by message class.
    pub fn send_filter_by_class(&self) -> Vec<(String, u64, u64)> {
        self.by_class
            .iter()
            .map(|(class, &(sent, filtered))| (class.clone(), sent, filtered))
            .collect()
    }

    /// Byte totals, attribution ratio and cells as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        let int = |v: u64| JsonValue::Int(v as i128);
        JsonValue::Obj(BTreeMap::from([
            ("bytes_attributed".to_string(), int(self.attributed_bytes)),
            (
                "bytes_unattributed".to_string(),
                int(self.unattributed_bytes),
            ),
            (
                "attribution_ratio".to_string(),
                JsonValue::Float(self.attribution_ratio()),
            ),
            ("cells".to_string(), self.ledger.to_json()),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { at: 0, event }
    }

    fn tagged(msg: u64, node: u32, kind: &str, instance: u64) -> TimedEvent {
        te(Event::WireTagged {
            node,
            msg,
            kind: kind.into(),
            instance,
            origin: node,
            seq: 0,
        })
    }

    fn frame(msg: u64, kind: &str, bytes: u64) -> TimedEvent {
        te(Event::WireFrame {
            node: 0,
            peer: 1,
            msg,
            kind: kind.into(),
            bytes,
        })
    }

    fn ledger_of(events: &[TimedEvent]) -> TraceLedger {
        TraceLedger::replay(events, &RunIndex::build(events))
    }

    #[test]
    fn trace_ledger_joins_bytes_to_tags() {
        let t = ledger_of(&[
            tagged(42, 0, "phase2b", 1),
            // No inline class: joins via the tag.
            frame(42, "", 100),
            // Never tagged, no inline class.
            frame(999, "", 40),
        ]);
        assert_eq!(t.attributed_bytes, 100);
        assert_eq!(t.unattributed_bytes, 40);
        assert!((t.attribution_ratio() - 100.0 / 140.0).abs() < 1e-12);
        let cells = t.ledger.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].class, "phase2b");
        assert_eq!(cells[0].bytes_out, 100);
        assert_eq!(cells[1].class, CLASS_UNCLASSIFIED);
    }

    #[test]
    fn trace_ledger_prefers_inline_kind_over_tag_join() {
        // No wire_tagged event exists for msg 7 (a drain-time aggregate
        // with a fresh wire id): the inline declaration classifies its
        // bytes, and the `gossip_sent` that precedes it in the trace.
        let t = ledger_of(&[
            te(Event::GossipSent {
                node: 0,
                to: 1,
                msg: 7,
            }),
            frame(7, "Phase2b(agg)", 64),
        ]);
        assert_eq!(t.attributed_bytes, 64);
        assert_eq!(t.unattributed_bytes, 0);
        assert_eq!(t.ledger.cells()[0].class, "Phase2b(agg)");
        assert_eq!(
            t.send_filter_by_class(),
            vec![("Phase2b(agg)".to_string(), 1, 0)]
        );
    }

    #[test]
    fn trace_ledger_expands_shared_frames_by_fanout() {
        let t = ledger_of(&[
            tagged(7, 3, "decision", 9),
            te(Event::FrameShared {
                node: 3,
                msg: 7,
                fanout: 4,
                bytes: 250,
            }),
            // frame_sent is a cross-check, never double-added.
            te(Event::FrameSent {
                node: 3,
                peer: 1,
                bytes: 250,
            }),
        ]);
        assert_eq!(t.attributed_bytes, 1_000);
        let cells = t.ledger.cells();
        assert_eq!(cells[0].messages, 4);
        assert_eq!(cells[0].bytes_out, 1_000);
        assert_eq!(t.transport_frame_bytes, 250);
        assert_eq!(t.ledger.total_bytes_out(), 1_000);
    }

    #[test]
    fn trace_ledger_folds_cpu_and_filter_counts() {
        let t = ledger_of(&[
            tagged(1, 0, "phase2b", 0),
            te(Event::CpuCharged {
                node: 0,
                subsystem: "paxos".into(),
                class: "phase2b".into(),
                ns: 5_000,
            }),
            te(Event::GossipSent {
                node: 0,
                to: 1,
                msg: 1,
            }),
            te(Event::SemanticFiltered { node: 0, msg: 1 }),
        ]);
        assert_eq!(t.ledger.total_cpu_ns(), 5_000);
        assert_eq!(
            t.send_filter_by_class(),
            vec![("phase2b".to_string(), 1, 1)]
        );
    }

    #[test]
    fn attribution_ratio_empty_trace_is_one() {
        assert_eq!(TraceLedger::new().attribution_ratio(), 1.0);
    }
}
