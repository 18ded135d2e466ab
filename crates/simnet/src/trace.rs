//! Lightweight execution tracing for simulated runs.
//!
//! Distributed-protocol debugging lives and dies by message timelines:
//! *where did this Phase 2b go, who dropped it, when did the decision reach
//! region X?* [`Tracer`] records bounded, structured [`obs::Event`]s —
//! stamped with virtual time. Tracing is opt-in and the disabled tracer
//! compiles down to a branch per call.
//!
//! The event vocabulary is the workspace-wide [`obs::Event`] enum (this
//! module used to define its own `TraceKind`; it was absorbed into `obs` so
//! simulated and live runs speak one trace format). Buffering is
//! [`obs::RingObserver`] driven with simulated time via
//! [`RingObserver::set_now`].

pub use obs::{Event, TimedEvent};
use obs::{Observer, RingObserver};

use crate::time::SimTime;

/// Renders one timed event as a human-readable log line
/// (`[virtual-time] pN what-happened`).
pub fn render_event(timed: &TimedEvent) -> String {
    let at = SimTime::from_nanos(timed.at);
    let node = timed.event.node();
    let what = match &timed.event {
        Event::GossipSent { to, msg, .. } => format!("sent {msg:#x} -> p{to}"),
        Event::GossipReceived { from, msg, .. } => format!("received {msg:#x} <- p{from}"),
        Event::DuplicateDropped { msg, .. } => format!("dropped {msg:#x} (duplicate)"),
        Event::SemanticFiltered { msg, .. } => format!("dropped {msg:#x} (filtered)"),
        Event::SendQueueOverflow { to, msg, .. } => {
            format!("dropped {msg:#x} (send queue to p{to} full)")
        }
        Event::DeliveryQueueOverflow { msg, .. } => {
            format!("dropped {msg:#x} (delivery queue full)")
        }
        Event::MessageLost { msg, reason, .. } => format!("dropped {msg:#x} ({reason})"),
        Event::OrderedDelivered {
            instance,
            origin,
            seq,
            ..
        } => format!("delivered #{instance} (origin p{origin} seq {seq})"),
        Event::Crashed { .. } => "crashed".to_string(),
        Event::Recovered { .. } => "recovered".to_string(),
        Event::StallDetected {
            instance,
            phase,
            age_ms,
            ..
        } => format!("STALL: instance {instance} ({phase}) stuck for {age_ms} ms"),
        Event::StallCleared {
            instance,
            stalled_ms,
            ..
        } => format!("stall cleared: instance {instance} after {stalled_ms} ms"),
        Event::AuditViolation { detail, .. } => format!("AUDIT VIOLATION: {detail}"),
        Event::Mark { label, .. } => format!("mark: {label}"),
        other => format!("{} {}", other.kind(), other.to_json_value().render()),
    };
    format!("[{at}] p{node} {what}")
}

/// A bounded, opt-in event recorder.
///
/// Keeps at most `capacity` events; older events are discarded FIFO (the
/// interesting part of a bug is usually the end of the run). Disabled
/// tracers ignore all records.
///
/// # Example
///
/// ```
/// use simnet::trace::{Event, Tracer};
/// use simnet::SimTime;
///
/// let mut t = Tracer::enabled(1024);
/// t.record(SimTime::ZERO, Event::GossipSent { node: 0, to: 1, msg: 42 });
/// t.record(
///     SimTime::from_nanos(5),
///     Event::GossipReceived { node: 1, from: 0, msg: 42 },
/// );
/// assert_eq!(t.events().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: RingObserver,
    enabled: bool,
}

impl Tracer {
    /// An enabled tracer holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            ring: RingObserver::with_capacity(capacity),
            enabled: true,
        }
    }

    /// A disabled tracer: every record is a no-op.
    pub fn disabled() -> Self {
        Tracer {
            ring: RingObserver::with_capacity(0),
            enabled: false,
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event at virtual time `at` (no-op when disabled).
    #[inline]
    pub fn record(&mut self, at: SimTime, event: Event) {
        if !self.enabled {
            return;
        }
        self.ring.set_now(at.as_nanos());
        self.ring.record(event);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn delivered(node: u32, instance: u64) -> Event {
        Event::OrderedDelivered {
            node,
            instance,
            origin: 0,
            seq: instance,
        }
    }

    #[test]
    fn records_and_orders_events() {
        let mut tr = Tracer::enabled(16);
        tr.record(
            t(1),
            Event::GossipSent {
                node: 0,
                to: 1,
                msg: 7,
            },
        );
        tr.record(
            t(2),
            Event::GossipReceived {
                node: 1,
                from: 0,
                msg: 7,
            },
        );
        tr.record(t(3), delivered(1, 0));
        let times: Vec<u64> = tr.events().map(|e| e.at).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.record(
            t(1),
            Event::Mark {
                node: 0,
                label: "x".to_string(),
            },
        );
        assert_eq!(tr.events().count(), 0);
        assert!(!tr.is_enabled());
    }

    #[test]
    fn capacity_bound_discards_oldest() {
        let mut tr = Tracer::enabled(2);
        for i in 0..5u64 {
            tr.record(t(i), delivered(0, i));
        }
        let items: Vec<u64> = tr
            .events()
            .map(|e| match e.event {
                Event::OrderedDelivered { instance, .. } => instance,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(items, vec![3, 4]);
    }

    #[test]
    fn render_formats_are_readable() {
        let timed = TimedEvent {
            at: 1_000_000,
            event: Event::GossipSent {
                node: 3,
                to: 4,
                msg: 255,
            },
        };
        let s = render_event(&timed);
        assert!(s.contains("p3"));
        assert!(s.contains("0xff"));
        assert!(s.contains("p4"));
        // Kinds without a bespoke line still show their fields.
        let generic = TimedEvent {
            at: 0,
            event: Event::Dialed { node: 1, peer: 2 },
        };
        assert!(render_event(&generic).contains("dialed"));
        assert!(render_event(&generic).contains("\"peer\":2"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Tracer::enabled(0);
    }
}
