//! Structured events covering every layer of the stack.
//!
//! One `Event` is one observable state transition: a gossip hot-path step,
//! a Paxos phase transition, a transport lifecycle change, or a simulation
//! marker. Variants, their `kind` strings, the JSON codec, and the
//! per-variant examples are all generated from a single `events!` table so
//! they cannot drift apart — adding a variant automatically extends
//! serialization and the exhaustive round-trip test.
//!
//! Value identity is carried as `(origin, seq)` pairs (the fields of a
//! `ValueId`), which is what lets [`SpanTracker`](crate::span::SpanTracker)
//! stitch submit → 2a → quorum → decision → delivery chains back together
//! from a flat event stream.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Per-field JSON conversion used by the generated codec.
trait FieldCodec: Sized {
    fn encode(&self) -> JsonValue;
    fn decode(v: &JsonValue) -> Option<Self>;
    fn example() -> Self;
}

impl FieldCodec for u32 {
    fn encode(&self) -> JsonValue {
        JsonValue::Int(*self as i128)
    }
    fn decode(v: &JsonValue) -> Option<Self> {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    }
    fn example() -> Self {
        7
    }
}

impl FieldCodec for u64 {
    fn encode(&self) -> JsonValue {
        JsonValue::Int(*self as i128)
    }
    fn decode(v: &JsonValue) -> Option<Self> {
        v.as_u64()
    }
    fn example() -> Self {
        // Above 2^53: catches any codec that squeezes u64 through an f64.
        (1 << 61) + 5
    }
}

impl FieldCodec for String {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn decode(v: &JsonValue) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
    fn example() -> Self {
        "example \"label\"".to_string()
    }
}

/// Why deserializing an event line failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The JSON text did not parse at all.
    Json(String),
    /// The document was not an object.
    NotAnObject,
    /// The object has no string `type` key.
    MissingType,
    /// `type` named no known event kind.
    UnknownKind(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field had the wrong JSON type or was out of range.
    BadField(&'static str),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Json(e) => write!(f, "invalid JSON: {e}"),
            TraceParseError::NotAnObject => write!(f, "event line is not a JSON object"),
            TraceParseError::MissingType => write!(f, "event object has no \"type\""),
            TraceParseError::UnknownKind(k) => write!(f, "unknown event type {k:?}"),
            TraceParseError::MissingField(name) => write!(f, "missing field {name:?}"),
            TraceParseError::BadField(name) => write!(f, "malformed field {name:?}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

macro_rules! events {
    (
        $(
            $(#[$vmeta:meta])*
            $variant:ident = $kind:literal { $( $field:ident : $fty:ty ),* $(,)? }
        ),* $(,)?
    ) => {
        /// One observable state transition somewhere in the stack.
        ///
        /// Every variant carries the `node` it happened on; message ids are
        /// a 64-bit fold of the gossip `MessageId` (`trace_id()`), unique
        /// per wire message in practice.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant { $($field: $fty),* } ),*
        }

        impl Event {
            /// Every `kind` string, in declaration order (drives Prometheus
            /// per-kind counters and the exhaustive codec test).
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// Stable snake_case tag identifying the variant.
            pub fn kind(&self) -> &'static str {
                match self { $( Event::$variant { .. } => $kind ),* }
            }

            /// The node the event occurred on.
            pub fn node(&self) -> u32 {
                match self { $( Event::$variant { node, .. } => *node ),* }
            }

            /// Encodes as a JSON object with a `type` tag.
            pub fn to_json_value(&self) -> JsonValue {
                match self {
                    $(
                        #[allow(unused_variables)]
                        Event::$variant { $($field),* } => {
                            let mut map = BTreeMap::new();
                            map.insert("type".to_string(), JsonValue::Str($kind.to_string()));
                            $( map.insert(stringify!($field).to_string(), FieldCodec::encode($field)); )*
                            JsonValue::Obj(map)
                        }
                    ),*
                }
            }

            /// Decodes from a JSON object; unknown extra keys are ignored.
            pub fn from_json_value(v: &JsonValue) -> Result<Event, TraceParseError> {
                let obj = v.as_obj().ok_or(TraceParseError::NotAnObject)?;
                let kind = obj
                    .get("type")
                    .and_then(|t| t.as_str())
                    .ok_or(TraceParseError::MissingType)?;
                match kind {
                    $(
                        $kind => Ok(Event::$variant {
                            $(
                                $field: <$fty as FieldCodec>::decode(
                                    obj.get(stringify!($field))
                                        .ok_or(TraceParseError::MissingField(stringify!($field)))?,
                                )
                                .ok_or(TraceParseError::BadField(stringify!($field)))?,
                            )*
                        }),
                    )*
                    _ => Err(TraceParseError::UnknownKind(kind.to_string())),
                }
            }

            /// One synthetic instance of every variant (for exhaustive
            /// codec tests and documentation).
            pub fn examples() -> Vec<Event> {
                vec![ $( Event::$variant { $( $field: FieldCodec::example() ),* } ),* ]
            }
        }
    };
}

events! {
    // ------------------------------------------------------------------
    // Gossip hot path (semantic_gossip::GossipNode)
    // ------------------------------------------------------------------
    /// A message arrived from a peer, before disaggregation and duplicate
    /// checking.
    GossipReceived = "gossip_received" { node: u32, from: u32, msg: u64 },
    /// An aggregated message was split into `parts` individual messages.
    GossipDisaggregated = "gossip_disaggregated" { node: u32, msg: u64, parts: u64 },
    /// A received part was discarded as a recently-seen duplicate.
    DuplicateDropped = "duplicate_dropped" { node: u32, msg: u64 },
    /// The semantic filter suppressed an outgoing message.
    SemanticFiltered = "semantic_filtered" { node: u32, msg: u64 },
    /// Aggregation replaced `before` pending messages with `after`.
    VotesAggregated = "votes_aggregated" { node: u32, before: u64, after: u64 },
    /// A fresh message was handed to the consensus layer.
    GossipDelivered = "gossip_delivered" { node: u32, msg: u64 },
    /// A message was queued for a peer.
    GossipSent = "gossip_sent" { node: u32, to: u32, msg: u64 },
    /// A locally broadcast message entered the gossip substrate as wire
    /// message `msg`, carrying consensus identity (`kind`, `instance`,
    /// `origin`, `seq`). Joins the wire-level `gossip_sent`/`gossip_received`
    /// timeline to protocol state for causal critical-path analysis;
    /// `instance` is `u64::MAX` when the message is not instance-bound.
    WireTagged = "wire_tagged" { node: u32, msg: u64, kind: String, instance: u64, origin: u32, seq: u64 },
    /// A per-peer send queue overflowed and the message was dropped.
    SendQueueOverflow = "send_queue_overflow" { node: u32, to: u32, msg: u64 },
    /// The delivery queue overflowed and the message was dropped.
    DeliveryQueueOverflow = "delivery_queue_overflow" { node: u32, msg: u64 },

    // ------------------------------------------------------------------
    // Eager/lazy dissemination (semantic_gossip::EagerLazyNode)
    // ------------------------------------------------------------------
    /// A full payload was queued along an eager (tree) link toward `to`.
    EagerSent = "eager_sent" { node: u32, to: u32, msg: u64 },
    /// A batched IHAVE announcement of `entries` message ids was queued
    /// toward lazy peer `to`.
    IhaveSent = "ihave_sent" { node: u32, to: u32, entries: u64 },
    /// The miss timer fired and an IWANT for `entries` missing ids was
    /// queued toward announcer `to`.
    IwantSent = "iwant_sent" { node: u32, to: u32, entries: u64 },
    /// The lazy link to `peer` delivered missed message `msg`: it was
    /// promoted to the eager set and a GRAFT was queued to make the
    /// promotion mutual.
    Graft = "graft" { node: u32, peer: u32, msg: u64 },
    /// The eager link to `peer` delivered duplicate `msg`: it was demoted
    /// to the lazy set and a PRUNE was queued to stop the peer's pushes.
    Prune = "prune" { node: u32, peer: u32, msg: u64 },

    // ------------------------------------------------------------------
    // Paxos transitions (paxos::PaxosProcess)
    // ------------------------------------------------------------------
    /// A client value entered the system at this process.
    ValueSubmitted = "value_submitted" { node: u32, origin: u32, seq: u64 },
    /// The coordinator started (or took over) a round.
    RoundStarted = "round_started" { node: u32, round: u32 },
    /// An acceptor handled a Phase 1a (prepare) message.
    Phase1a = "phase1a" { node: u32, round: u32, from_instance: u64 },
    /// The coordinator handled a Phase 1b (promise) message.
    Phase1b = "phase1b" { node: u32, round: u32, sender: u32 },
    /// An acceptor handled a Phase 2a (accept request) for a value.
    Phase2a = "phase2a" { node: u32, instance: u64, round: u32, origin: u32, seq: u64 },
    /// A learner handled a Phase 2b (vote) carrying `voters` votes.
    Phase2b = "phase2b" { node: u32, instance: u64, round: u32, voters: u64 },
    /// A majority of acceptors is known to have voted for value
    /// `(origin, seq)` in `round`, but votes carry the value's id only and
    /// that round's Phase 2a has not arrived here: the decision is held
    /// until the proposal or a Decision brings the value.
    ValueAwaited = "value_awaited" { node: u32, instance: u64, round: u32, origin: u32, seq: u64 },
    /// A majority of acceptors is known to have voted for the value, and
    /// the value is known here.
    QuorumReached = "quorum_reached" { node: u32, instance: u64, origin: u32, seq: u64 },
    /// The instance's value became decided at this process.
    Decided = "decided" { node: u32, instance: u64, origin: u32, seq: u64 },
    /// The decided value was released in instance order to the application.
    OrderedDelivered = "ordered_delivered" { node: u32, instance: u64, origin: u32, seq: u64 },
    /// The instance decided a value already delivered at a lower instance
    /// (the same client value was assigned two instances by different
    /// rounds' coordinators); the slot was released as a no-op.
    DuplicateSuppressed = "duplicate_suppressed" { node: u32, instance: u64, origin: u32, seq: u64 },

    // ------------------------------------------------------------------
    // Transport lifecycle (transport::Endpoint)
    // ------------------------------------------------------------------
    /// An outbound connection attempt to `peer` started.
    Dialed = "dialed" { node: u32, peer: u32 },
    /// An inbound connection from `peer` was accepted.
    Accepted = "accepted" { node: u32, peer: u32 },
    /// The connection to `peer` went away.
    PeerDropped = "peer_dropped" { node: u32, peer: u32 },
    /// A frame of `bytes` payload bytes was handed to the wire.
    FrameSent = "frame_sent" { node: u32, peer: u32, bytes: u64 },
    /// A frame of `bytes` payload bytes arrived off the wire.
    FrameReceived = "frame_received" { node: u32, peer: u32, bytes: u64 },
    /// A frame was dropped before the wire (unknown peer or full queue).
    FrameDropped = "frame_dropped" { node: u32, peer: u32 },
    /// A send routine flushed `frames` pending frames (`bytes` total
    /// payload) in one batched write instead of one syscall each.
    FramesCoalesced = "frames_coalesced" { node: u32, peer: u32, frames: u64, bytes: u64 },
    /// One encoding of message `msg` (`bytes` long) was shared across
    /// `fanout` per-peer sends instead of being re-encoded per peer.
    FrameShared = "frame_shared" { node: u32, msg: u64, fanout: u64, bytes: u64 },
    /// Wire message `msg` (`bytes` payload bytes) physically left `node`
    /// toward `peer`. Unlike [`Event::FrameSent`] this carries the wire
    /// message id *and* the sender's own class declaration (`kind`), so
    /// post-hoc attribution never depends on a [`Event::WireTagged`] join
    /// surviving ring eviction — direct-mode sends and drain-time
    /// aggregates (fresh wire ids, never tagged) stay classifiable. An
    /// empty `kind` falls back to the tag join. This is the
    /// byte-attribution substrate of `tracetool ledger`.
    WireFrame = "wire_frame" { node: u32, peer: u32, msg: u64, kind: String, bytes: u64 },

    // ------------------------------------------------------------------
    // Periodic gauge samples (live runs; mirrored by /metrics gauges)
    // ------------------------------------------------------------------
    /// Snapshot of the gossip send queue toward `peer`: `depth` messages
    /// waiting.
    QueueDepthSampled = "queue_depth_sampled" { node: u32, peer: u32, depth: u64 },
    /// Snapshot of the duplicate-suppression cache: `entries` message ids
    /// currently remembered.
    CacheOccupancySampled = "cache_occupancy_sampled" { node: u32, entries: u64 },
    /// Snapshot of the Paxos instance window: `open` instances voted on
    /// or decided but not yet released in order.
    InstanceWindowSampled = "instance_window_sampled" { node: u32, open: u64 },
    /// Snapshot of a per-peer send queue's head-of-line wait: the queue
    /// toward `peer` has been continuously non-empty for `lag_ns`.
    QueueLagSampled = "queue_lag_sampled" { node: u32, peer: u32, lag_ns: u64 },

    // ------------------------------------------------------------------
    // Health / liveness (obs::health)
    // ------------------------------------------------------------------
    /// The health tracker saw pending work but no in-order delivery for
    /// longer than its threshold. `instance` is the oldest open undecided
    /// instance (or the log head when all seen instances have closed) and
    /// `phase` the lifecycle phase it is stuck in; `age_ms` is the
    /// progress gap at detection time.
    StallDetected = "stall_detected" { node: u32, instance: u64, phase: String, age_ms: u64 },
    /// In-order delivery resumed after a detected stall: `instance` is the
    /// instance named by the matching [`Event::StallDetected`] and
    /// `stalled_ms` the full progress gap the stall spanned.
    StallCleared = "stall_cleared" { node: u32, instance: u64, stalled_ms: u64 },

    // ------------------------------------------------------------------
    // Simulation / cluster markers (simnet, testbed)
    // ------------------------------------------------------------------
    /// The network model discarded an in-flight message.
    MessageLost = "message_lost" { node: u32, msg: u64, reason: String },
    /// The process crashed (fault injection).
    Crashed = "crashed" { node: u32 },
    /// The process recovered from a crash.
    Recovered = "recovered" { node: u32 },
    /// The cross-process safety auditor found an invariant violation
    /// involving this node (`detail` names the invariant and the evidence).
    AuditViolation = "audit_violation" { node: u32, detail: String },
    /// Scoped CPU time attributed to a `(subsystem, class)` ledger cell:
    /// `node` spent `ns` nanoseconds of modelled (or measured) CPU in
    /// `subsystem` handling messages of `class`. Emitted as end-of-run
    /// summaries by the simulated cluster so `tracetool ledger` can
    /// attribute CPU alongside bytes.
    CpuCharged = "cpu_charged" { node: u32, subsystem: String, class: String, ns: u64 },
    /// Free-form annotation.
    Mark = "mark" { node: u32, label: String },
}

/// An [`Event`] plus the timestamp it was recorded at.
///
/// Timestamps are nanoseconds on whatever clock the recording observer
/// uses: simulated time inside simnet, monotonic elapsed time for live
/// transport runs. `obs` never reads a clock itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the observer's epoch.
    pub at: u64,
    /// What happened.
    pub event: Event,
}

impl TimedEvent {
    /// Encodes as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut v = self.event.to_json_value();
        if let JsonValue::Obj(map) = &mut v {
            map.insert("ts".to_string(), JsonValue::Int(self.at as i128));
        }
        v.render()
    }

    /// Decodes one JSONL line.
    pub fn from_json(line: &str) -> Result<TimedEvent, TraceParseError> {
        let v = JsonValue::parse(line).map_err(|e| TraceParseError::Json(e.to_string()))?;
        let at = v
            .as_obj()
            .ok_or(TraceParseError::NotAnObject)?
            .get("ts")
            .ok_or(TraceParseError::MissingField("ts"))?
            .as_u64()
            .ok_or(TraceParseError::BadField("ts"))?;
        Ok(TimedEvent {
            at,
            event: Event::from_json_value(&v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_match_examples() {
        let examples = Event::examples();
        assert_eq!(examples.len(), Event::KINDS.len());
        let mut kinds: Vec<&str> = examples.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, Event::KINDS);
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), Event::KINDS.len(), "duplicate kind string");
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in Event::examples() {
            let line = TimedEvent {
                at: u64::MAX - 1,
                event: event.clone(),
            }
            .to_json();
            let back = TimedEvent::from_json(&line).unwrap();
            assert_eq!(back.at, u64::MAX - 1);
            assert_eq!(back.event, event, "variant {} corrupted", event.kind());
        }
    }

    #[test]
    fn unknown_kind_is_reported() {
        let err = TimedEvent::from_json(r#"{"ts":1,"type":"warp_drive"}"#).unwrap_err();
        assert_eq!(err, TraceParseError::UnknownKind("warp_drive".into()));
    }

    #[test]
    fn missing_field_is_reported() {
        let err = TimedEvent::from_json(r#"{"ts":1,"type":"mark","node":2}"#).unwrap_err();
        assert_eq!(err, TraceParseError::MissingField("label"));
    }
}
