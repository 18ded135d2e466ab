//! Consensus liveness tracking: per-instance lifecycle state and stall
//! detection.
//!
//! [`HealthTracker`] consumes the flat [`Event`] stream the Paxos and
//! gossip layers already emit and maintains the cluster's *pipeline
//! state*: which consensus instances are open, what lifecycle phase each
//! is in (proposed → voting → awaiting value → decided), and which submitted client values
//! have not yet been released in order. From that state it derives the
//! one liveness judgement the raw counters cannot express: **is the log
//! still advancing?**
//!
//! A *stall* is a progress gap, not a slow value. Under gossip some
//! client values are legitimately lost forever (a value submitted while
//! the coordinator is down is dropped by every non-coordinator), so
//! per-value timeouts would flag healthy runs. Instead the tracker
//! watches the in-order delivery frontier: when pending work exists
//! (open instances or undelivered submitted values) and no
//! `ordered_delivered` has occurred for longer than
//! [`HealthConfig::stall_after`], it emits one [`Event::StallDetected`]
//! naming the oldest open instance (or the log head when every seen
//! instance has closed), and one [`Event::StallCleared`] when delivery
//! resumes. The emitted events are regular trace events: they serialize
//! into the same JSONL stream and render in the same timeline as the
//! transitions that caused them.
//!
//! The tracker is sans-IO and clock-free like the rest of `obs`: it only
//! sees the timestamps carried by the events themselves, so it works
//! identically over simulated traces, live runs, and recorded files.

use std::collections::BTreeMap;

use crate::event::{Event, TimedEvent};

/// Lifecycle phase of an open consensus instance, as reconstructed from
/// the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// A Phase 2a carried a value for the instance.
    Proposed,
    /// Phase 2b votes are arriving, no quorum observed yet.
    Voting,
    /// A learner holds a quorum of votes — which name the value by id —
    /// but not the proposal that carries the value, and nobody has decided.
    AwaitingValue,
    /// Decided (quorum or decision observed) but not yet released in
    /// instance order.
    Decided,
}

impl Phase {
    /// Stable lowercase name (used in emitted `stall_detected` events and
    /// gauge labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Proposed => "proposed",
            Phase::Voting => "voting",
            Phase::AwaitingValue => "awaiting_value",
            Phase::Decided => "decided",
        }
    }
}

/// Label used for work that is pending but not yet tied to an instance
/// (submitted values before their Phase 2a), including the log head named
/// by a stall when no instance is open.
pub const PHASE_SUBMITTED: &str = "submitted";

/// Stall-detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Progress gap (nanoseconds of event time) after which pending work
    /// with no in-order delivery is declared stalled.
    pub stall_after: u64,
}

impl Default for HealthConfig {
    /// Two seconds: an order of magnitude above WAN decision latency,
    /// below any human-visible outage.
    fn default() -> Self {
        HealthConfig {
            stall_after: 2_000_000_000,
        }
    }
}

/// One open instance's tracked state.
#[derive(Debug, Clone, Copy)]
struct OpenInstance {
    phase: Phase,
    since: u64,
}

/// An active (detected, not yet cleared) stall.
#[derive(Debug, Clone, Copy)]
struct ActiveStall {
    instance: u64,
    /// The progress mark the gap is measured from.
    since: u64,
}

/// Aggregated liveness verdict over everything a tracker has observed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthSummary {
    /// Stalls detected.
    pub stalls_detected: u64,
    /// Stalls that cleared (delivery resumed).
    pub stalls_cleared: u64,
    /// Longest progress gap spanned by any stall, in milliseconds
    /// (includes a still-active stall's gap up to the last event seen).
    pub max_stall_ms: u64,
    /// Instance named by the still-active stall, if any.
    pub stalled_instance: Option<u64>,
    /// Instances open (seen but not released in order) at the end.
    pub open_instances: u64,
    /// Submitted values never released in order.
    pub pending_values: u64,
}

/// Event-driven instance-lifecycle tracker and stall detector.
///
/// Feed it the (time-ordered) event stream via
/// [`observe`](HealthTracker::observe); collect the stall events it emits
/// with [`take_events`](HealthTracker::take_events) and the final verdict
/// with [`summary`](HealthTracker::summary). Call
/// [`finalize`](HealthTracker::finalize) once the stream ends so a stall
/// that began before the last event is still reported.
///
/// # Example
///
/// ```
/// use obs::health::{HealthConfig, HealthTracker};
/// use obs::{Event, TimedEvent};
///
/// let mut t = HealthTracker::new(HealthConfig { stall_after: 1_000 });
/// t.observe(&TimedEvent {
///     at: 0,
///     event: Event::ValueSubmitted { node: 0, origin: 0, seq: 1 },
/// });
/// t.finalize(5_000);
/// assert_eq!(t.summary().stalls_detected, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    cfg: HealthConfig,
    /// Submitted-but-not-yet-ordered values, keyed `(origin, seq)`.
    pending: BTreeMap<(u32, u64), u64>,
    /// Open instances, oldest first.
    instances: BTreeMap<u64, OpenInstance>,
    /// Instances already released in order, as disjoint inclusive ranges
    /// `first → last`. Guards against reopening an instance when another
    /// node's phase events arrive (in merged-trace time order) after the
    /// first node delivered it. A log delivered in order keeps one range
    /// per consensus group (group-scoped instance ids are far apart), so
    /// this does not grow with the work done.
    closed: BTreeMap<u64, u64>,
    highest_instance: Option<u64>,
    /// Time of the last in-order delivery anywhere.
    last_progress: Option<u64>,
    /// Time pending work first appeared (progress baseline before the
    /// first delivery).
    baseline: Option<u64>,
    last_seen: u64,
    last_node: u32,
    stall: Option<ActiveStall>,
    emitted: Vec<TimedEvent>,
    stalls_detected: u64,
    stalls_cleared: u64,
    max_stall_ns: u64,
}

impl HealthTracker {
    /// A tracker with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthTracker {
            cfg,
            ..HealthTracker::default()
        }
    }

    /// Consumes one event; may append stall events to the emitted buffer.
    ///
    /// Events must arrive in non-decreasing `at` order (the order every
    /// trace in this workspace is produced in).
    pub fn observe(&mut self, e: &TimedEvent) {
        self.last_seen = self.last_seen.max(e.at);
        self.last_node = e.event.node();
        match e.event {
            Event::ValueSubmitted { origin, seq, .. } => {
                self.pending.entry((origin, seq)).or_insert(e.at);
                self.baseline.get_or_insert(e.at);
            }
            Event::Phase2a { instance, .. } => {
                self.open(instance, Phase::Proposed, e.at);
            }
            Event::Phase2b { instance, .. } => {
                self.open(instance, Phase::Voting, e.at);
            }
            Event::ValueAwaited { instance, .. } => {
                self.open(instance, Phase::AwaitingValue, e.at);
            }
            Event::QuorumReached { instance, .. } | Event::Decided { instance, .. } => {
                self.open(instance, Phase::Decided, e.at);
            }
            Event::OrderedDelivered {
                node,
                instance,
                origin,
                seq,
            }
            | Event::DuplicateSuppressed {
                node,
                instance,
                origin,
                seq,
            } => {
                // Either way the ordering frontier advanced past `instance`.
                self.close(instance);
                self.pending.remove(&(origin, seq));
                self.progress(e.at, node);
            }
            _ => {}
        }
        self.check_stall(e.at, e.event.node());
    }

    /// Consumes a whole (time-ordered) slice of events.
    pub fn observe_all(&mut self, events: &[TimedEvent]) {
        for e in events {
            self.observe(e);
        }
    }

    /// Declares the end of the stream at `end`, so a stall whose threshold
    /// was crossed after the last observed event is still detected.
    pub fn finalize(&mut self, end: u64) {
        self.last_seen = self.last_seen.max(end);
        self.check_stall(self.last_seen, self.last_node);
    }

    fn open(&mut self, instance: u64, phase: Phase, at: u64) {
        self.highest_instance = Some(self.highest_instance.map_or(instance, |h| h.max(instance)));
        if self.is_closed(instance) {
            return;
        }
        self.baseline.get_or_insert(at);
        let entry = self
            .instances
            .entry(instance)
            .or_insert(OpenInstance { phase, since: at });
        // Phases only advance; a straggler 2b after the decision must not
        // demote the instance.
        entry.phase = entry.phase.max(phase);
    }

    fn is_closed(&self, instance: u64) -> bool {
        let below = self.closed.range(..=instance).next_back();
        below.is_some_and(|(_, &last)| instance <= last)
    }

    fn close(&mut self, instance: u64) {
        self.highest_instance = Some(self.highest_instance.map_or(instance, |h| h.max(instance)));
        self.instances.remove(&instance);
        if self.is_closed(instance) {
            return;
        }
        // Grow the range that ends just below, swallow the one that starts
        // just above.
        let first = match self.closed.range(..instance).next_back() {
            Some((&first, &last)) if last + 1 == instance => first,
            _ => instance,
        };
        let above = instance.checked_add(1).and_then(|n| self.closed.remove(&n));
        self.closed.insert(first, above.unwrap_or(instance));
    }

    fn progress(&mut self, at: u64, node: u32) {
        self.last_progress = Some(at);
        if let Some(stall) = self.stall.take() {
            let gap = at.saturating_sub(stall.since);
            self.max_stall_ns = self.max_stall_ns.max(gap);
            self.stalls_cleared += 1;
            self.emitted.push(TimedEvent {
                at,
                event: Event::StallCleared {
                    node,
                    instance: stall.instance,
                    stalled_ms: gap / 1_000_000,
                },
            });
        }
    }

    /// The time progress gaps are measured from: the last delivery, or the
    /// moment pending work first appeared.
    fn progress_mark(&self) -> Option<u64> {
        self.last_progress.or(self.baseline)
    }

    fn check_stall(&mut self, now: u64, node: u32) {
        if self.stall.is_some() || !self.has_pending_work() {
            return;
        }
        let Some(mark) = self.progress_mark() else {
            return;
        };
        let gap = now.saturating_sub(mark);
        if gap <= self.cfg.stall_after {
            return;
        }
        let (instance, phase) = match self.instances.iter().next() {
            Some((&instance, open)) => (instance, open.phase.name()),
            // All seen instances closed: the stall is at the log head,
            // where submitted values wait for a coordinator to propose.
            None => (self.highest_instance.map_or(0, |h| h + 1), PHASE_SUBMITTED),
        };
        self.stall = Some(ActiveStall {
            instance,
            since: mark,
        });
        self.stalls_detected += 1;
        self.emitted.push(TimedEvent {
            at: now,
            event: Event::StallDetected {
                node,
                instance,
                phase: phase.to_string(),
                age_ms: gap / 1_000_000,
            },
        });
    }

    fn has_pending_work(&self) -> bool {
        !self.instances.is_empty() || !self.pending.is_empty()
    }

    /// Stall events emitted so far (detections and clearances, in order).
    pub fn events(&self) -> &[TimedEvent] {
        &self.emitted
    }

    /// Removes and returns the emitted stall events.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.emitted)
    }

    /// Whether a detected stall is currently unresolved.
    pub fn is_stalled(&self) -> bool {
        self.stall.is_some()
    }

    /// Age of the oldest unresolved work item at `now` (oldest open
    /// instance or oldest undelivered submitted value), in nanoseconds.
    /// The headline liveness gauge: it climbs during a stall and drops
    /// back when delivery catches up.
    pub fn oldest_open_age(&self, now: u64) -> u64 {
        let oldest_instance = self.instances.values().map(|o| o.since).min();
        let oldest_value = self.pending.values().copied().min();
        match (oldest_instance, oldest_value) {
            (None, None) => 0,
            (a, b) => now.saturating_sub(a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX))),
        }
    }

    /// The aggregated liveness verdict so far. An active stall contributes
    /// its gap up to the last event seen.
    pub fn summary(&self) -> HealthSummary {
        let mut max_stall_ns = self.max_stall_ns;
        if let Some(stall) = &self.stall {
            max_stall_ns = max_stall_ns.max(self.last_seen.saturating_sub(stall.since));
        }
        HealthSummary {
            stalls_detected: self.stalls_detected,
            stalls_cleared: self.stalls_cleared,
            max_stall_ms: max_stall_ns / 1_000_000,
            stalled_instance: self.stall.as_ref().map(|s| s.instance),
            open_instances: self.instances.len() as u64,
            pending_values: self.pending.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn tracker(stall_after_ms: u64) -> HealthTracker {
        HealthTracker::new(HealthConfig {
            stall_after: stall_after_ms * MS,
        })
    }

    fn ev(at_ms: u64, event: Event) -> TimedEvent {
        TimedEvent {
            at: at_ms * MS,
            event,
        }
    }

    fn lifecycle(instance: u64, origin: u32, seq: u64, start_ms: u64) -> Vec<TimedEvent> {
        vec![
            ev(
                start_ms,
                Event::ValueSubmitted {
                    node: 1,
                    origin,
                    seq,
                },
            ),
            ev(
                start_ms + 5,
                Event::Phase2a {
                    node: 0,
                    instance,
                    round: 0,
                    origin,
                    seq,
                },
            ),
            ev(
                start_ms + 10,
                Event::Phase2b {
                    node: 2,
                    instance,
                    round: 0,
                    voters: 1,
                },
            ),
            ev(
                start_ms + 15,
                Event::Decided {
                    node: 0,
                    instance,
                    origin,
                    seq,
                },
            ),
            ev(
                start_ms + 20,
                Event::OrderedDelivered {
                    node: 0,
                    instance,
                    origin,
                    seq,
                },
            ),
        ]
    }

    #[test]
    fn clean_pipeline_reports_no_stalls() {
        let mut t = tracker(1_000);
        for i in 0..5 {
            t.observe_all(&lifecycle(i, 1, i, i * 100));
        }
        t.finalize(5_000 * MS);
        let s = t.summary();
        assert_eq!(s.stalls_detected, 0);
        assert_eq!(s.open_instances, 0);
        assert_eq!(s.pending_values, 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn delayed_decision_raises_exactly_one_stall_then_clears() {
        // The satellite-mandated schedule: an instance enters voting, the
        // decision is delayed past the threshold, then delivery resumes.
        let mut t = tracker(1_000);
        t.observe(&ev(
            0,
            Event::ValueSubmitted {
                node: 1,
                origin: 1,
                seq: 7,
            },
        ));
        t.observe(&ev(
            5,
            Event::Phase2a {
                node: 0,
                instance: 3,
                round: 0,
                origin: 1,
                seq: 7,
            },
        ));
        t.observe(&ev(
            10,
            Event::Phase2b {
                node: 2,
                instance: 3,
                round: 0,
                voters: 1,
            },
        ));
        // Unrelated traffic while the decision is delayed: each event
        // drives the detector, but only one stall may fire.
        for at in [500u64, 1_200, 1_800, 2_400] {
            t.observe(&ev(
                at,
                Event::QueueDepthSampled {
                    node: 2,
                    peer: 0,
                    depth: 1,
                },
            ));
        }
        t.observe(&ev(
            3_000,
            Event::OrderedDelivered {
                node: 0,
                instance: 3,
                origin: 1,
                seq: 7,
            },
        ));
        t.finalize(3_100 * MS);

        let events = t.events();
        assert_eq!(events.len(), 2, "exactly one detection and one clearance");
        match &events[0].event {
            Event::StallDetected {
                instance,
                phase,
                age_ms,
                ..
            } => {
                assert_eq!(*instance, 3, "names the stuck instance");
                assert_eq!(phase, "voting");
                assert!(*age_ms >= 1_000);
            }
            other => panic!("expected stall_detected, got {other:?}"),
        }
        match &events[1].event {
            Event::StallCleared {
                instance,
                stalled_ms,
                ..
            } => {
                assert_eq!(*instance, 3);
                assert_eq!(*stalled_ms, 3_000, "full progress gap");
            }
            other => panic!("expected stall_cleared, got {other:?}"),
        }
        let s = t.summary();
        assert_eq!((s.stalls_detected, s.stalls_cleared), (1, 1));
        assert_eq!(s.max_stall_ms, 3_000);
        assert_eq!(s.stalled_instance, None);
    }

    #[test]
    fn stall_with_no_open_instance_names_the_log_head() {
        let mut t = tracker(1_000);
        t.observe_all(&lifecycle(4, 1, 1, 0));
        // A value submitted after instance 4 closed, never proposed.
        t.observe(&ev(
            100,
            Event::ValueSubmitted {
                node: 2,
                origin: 2,
                seq: 9,
            },
        ));
        t.observe(&ev(
            2_000,
            Event::Mark {
                node: 2,
                label: "tick".into(),
            },
        ));
        let events = t.events();
        assert_eq!(events.len(), 1);
        match &events[0].event {
            Event::StallDetected {
                instance, phase, ..
            } => {
                assert_eq!(*instance, 5, "log head = highest seen + 1");
                assert_eq!(phase, PHASE_SUBMITTED);
            }
            other => panic!("expected stall_detected, got {other:?}"),
        }
        assert!(t.is_stalled());
        assert_eq!(t.summary().stalled_instance, Some(5));
    }

    #[test]
    fn finalize_detects_a_stall_past_the_last_event() {
        let mut t = tracker(1_000);
        t.observe(&ev(
            0,
            Event::ValueSubmitted {
                node: 0,
                origin: 0,
                seq: 1,
            },
        ));
        assert!(t.events().is_empty());
        t.finalize(5_000 * MS);
        assert_eq!(t.summary().stalls_detected, 1);
        assert_eq!(t.summary().stalls_cleared, 0);
        assert!(t.summary().max_stall_ms >= 4_000);
    }

    #[test]
    fn lost_values_alone_do_not_stall_while_log_advances() {
        // A value lost forever must not trip the detector as long as other
        // values keep being delivered (the failover scenario).
        let mut t = tracker(1_000);
        t.observe(&ev(
            0,
            Event::ValueSubmitted {
                node: 3,
                origin: 3,
                seq: 1,
            },
        ));
        for i in 0..10 {
            t.observe_all(&lifecycle(i, 1, i, 10 + i * 500));
        }
        t.finalize(5_000 * MS);
        assert_eq!(t.summary().stalls_detected, 0);
        assert_eq!(t.summary().pending_values, 1);
    }

    #[test]
    fn straggler_vote_does_not_reopen_a_closed_instance() {
        let mut t = tracker(1_000);
        t.observe_all(&lifecycle(0, 1, 1, 0));
        // Another node's late 2b for the already-released instance.
        t.observe(&ev(
            30,
            Event::Phase2b {
                node: 4,
                instance: 0,
                round: 0,
                voters: 1,
            },
        ));
        t.finalize(5_000 * MS);
        assert_eq!(t.summary().open_instances, 0);
        assert_eq!(t.summary().stalls_detected, 0);
    }

    #[test]
    fn gauges_track_phases_and_age() {
        let mut t = tracker(1_000);
        t.observe(&ev(
            0,
            Event::ValueSubmitted {
                node: 0,
                origin: 0,
                seq: 1,
            },
        ));
        // A learner that missed instance 3's proposal holds a quorum of
        // vote ids; a straggler vote afterwards does not demote the phase.
        t.observe(&ev(
            40,
            Event::ValueAwaited {
                node: 1,
                instance: 3,
                round: 0,
                origin: 0,
                seq: 4,
            },
        ));
        t.observe(&ev(
            45,
            Event::Phase2b {
                node: 1,
                instance: 3,
                round: 0,
                voters: 1,
            },
        ));
        assert_eq!(t.oldest_open_age(100 * MS), 100 * MS);
        assert_eq!(HealthTracker::default().oldest_open_age(5), 0);
        t.finalize(2_000 * MS);
        match &t.events()[0].event {
            Event::StallDetected {
                instance, phase, ..
            } => assert_eq!((*instance, phase.as_str()), (3, "awaiting_value")),
            other => panic!("expected stall_detected, got {other:?}"),
        }
    }

    /// Closed instances are remembered as ranges: whatever order the log
    /// closes in, membership answers stay exact, and a long in-order life
    /// retains no more than its first retention period did.
    #[test]
    fn closed_instances_coalesce_and_long_runs_stay_flat() {
        let mut t = tracker(1_000);
        for i in [5, 3, 4, 9, u64::MAX, 1 << 56, (1 << 56) + 1] {
            t.close(i);
        }
        let ranges: Vec<_> = t.closed.iter().map(|(&a, &b)| (a, b)).collect();
        let group1 = 1u64 << 56;
        assert_eq!(
            ranges,
            vec![(3, 5), (9, 9), (group1, group1 + 1), (u64::MAX, u64::MAX)]
        );
        for (i, closed) in [(2, false), (3, true), (5, true), (6, false), (9, true)] {
            assert_eq!(t.is_closed(i), closed, "instance {i}");
        }

        let retained = |t: &HealthTracker| {
            t.pending.len() + t.instances.len() + t.closed.len() + t.emitted.len()
        };
        let mut t = tracker(1_000);
        let mut high_water = 0;
        for period in 0..10u64 {
            for i in period * 1024..(period + 1) * 1024 {
                t.observe_all(&lifecycle(i, 1, i, i * 30));
                // Another node's events for the instance just released.
                t.observe(&ev(
                    i * 30 + 25,
                    Event::Phase2b {
                        node: 4,
                        instance: i,
                        round: 0,
                        voters: 1,
                    },
                ));
                if period == 0 {
                    high_water = high_water.max(retained(&t));
                }
                assert!(retained(&t) <= high_water, "instance {i}");
            }
        }
        let s = t.summary();
        assert_eq!(
            (s.stalls_detected, s.open_instances, s.pending_values),
            (0, 0, 0)
        );
    }
}
