//! Observer trait and the two concrete sinks.
//!
//! Instrumented components take an `O: Observer` type parameter (not a
//! `dyn` object) and guard every emission with `if O::ENABLED`. With the
//! default [`NoopObserver`] the constant is `false`, the branch folds away
//! at monomorphization, and no `Event` is ever constructed — instrumented
//! and uninstrumented nodes compile to the same hot path (the
//! `obs_overhead` benchmark in `crates/bench` checks this claim).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, TimedEvent};

/// A sink for [`Event`]s.
///
/// Implementations decide what a timestamp means; components never read
/// clocks. Emission sites must be wrapped in `if O::ENABLED` so disabled
/// observers cost nothing — including the cost of building the event.
pub trait Observer {
    /// Whether events should be constructed at all. Emission sites guard
    /// on this constant; `false` makes them vanish at compile time.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn record(&mut self, event: Event);

    /// Sets the timestamp applied to subsequently recorded events, for
    /// sinks whose clock is driven from outside (a sans-IO runtime stamps
    /// its observers with the time of the event it is about to process).
    /// Sinks that read their own clock ignore it — the default.
    fn set_now(&mut self, now_nanos: u64) {
        let _ = now_nanos;
    }
}

/// The zero-cost default: disabled at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// A bounded in-memory event buffer with an externally driven clock.
///
/// Sans-IO: the owner calls [`set_now`](RingObserver::set_now) before
/// handing control to instrumented components, so simulated runs stamp
/// events with simulated time. When full, the oldest events are discarded
/// (and counted), bounding memory on long runs.
#[derive(Debug, Clone, Default)]
pub struct RingObserver {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    now: u64,
    discarded: u64,
}

impl RingObserver {
    /// A ring holding at most `capacity` events; capacity 0 records
    /// nothing (but still counts discards).
    pub fn with_capacity(capacity: usize) -> Self {
        RingObserver {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            now: 0,
            discarded: 0,
        }
    }

    /// Sets the timestamp applied to subsequently recorded events.
    pub fn set_now(&mut self, now_nanos: u64) {
        self.now = now_nanos;
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the ring was full.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Iterates over buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<TimedEvent> {
        self.events.drain(..).collect()
    }

    /// Serializes the buffered events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl Observer for RingObserver {
    fn record(&mut self, event: Event) {
        if self.capacity == 0 {
            self.discarded += 1;
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.discarded += 1;
        }
        self.events.push_back(TimedEvent {
            at: self.now,
            event,
        });
    }

    fn set_now(&mut self, now_nanos: u64) {
        RingObserver::set_now(self, now_nanos);
    }
}

/// Fans every event out to two observers.
///
/// Enabled whenever either side is; the event is cloned only when both
/// sides are enabled, so `Tee<SharedRing, NoopObserver>` costs the same
/// as the bare ring. Live runtimes use this to feed one global trace ring
/// and a per-node sink (e.g. a local ring drained into a
/// [`HealthTracker`](crate::health::HealthTracker)) from a single
/// instrumentation point.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B> {
    /// First sink.
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Combines two observers into one.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&mut self, event: Event) {
        if A::ENABLED && B::ENABLED {
            self.a.record(event.clone());
            self.b.record(event);
        } else if A::ENABLED {
            self.a.record(event);
        } else if B::ENABLED {
            self.b.record(event);
        }
    }

    fn set_now(&mut self, now_nanos: u64) {
        self.a.set_now(now_nanos);
        self.b.set_now(now_nanos);
    }
}

/// A cloneable, thread-safe ring that stamps events with monotonic elapsed
/// nanoseconds — the observer for live (threaded) transport runs, where no
/// single owner can drive `set_now`.
#[derive(Debug, Clone)]
pub struct SharedRing {
    inner: Arc<Mutex<RingObserver>>,
    epoch: Instant,
}

impl SharedRing {
    /// A shared ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        SharedRing {
            inner: Arc::new(Mutex::new(RingObserver::with_capacity(capacity))),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingObserver> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TimedEvent> {
        self.lock().drain()
    }

    /// Events discarded because the ring was full.
    pub fn discarded(&self) -> u64 {
        self.lock().discarded()
    }

    /// Serializes the buffered events as JSONL.
    pub fn to_jsonl(&self) -> String {
        self.lock().to_jsonl()
    }

    /// Records on a shared handle (usable behind `&self`, unlike the
    /// `Observer` entry point).
    ///
    /// The stamp is taken under the ring lock, so ring order is stamp
    /// order: a snapshot is non-decreasing in `at`, which is what trace
    /// replay takes a run to be.
    pub fn record_shared(&self, event: Event) {
        let mut ring = self.lock();
        ring.set_now(self.epoch.elapsed().as_nanos() as u64);
        ring.record(event);
    }
}

impl Observer for SharedRing {
    fn record(&mut self, event: Event) {
        self.record_shared(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(node: u32, label: &str) -> Event {
        Event::Mark {
            node,
            label: label.to_string(),
        }
    }

    #[test]
    fn noop_is_compile_time_disabled() {
        const { assert!(!NoopObserver::ENABLED) };
        const { assert!(RingObserver::ENABLED) };
    }

    #[test]
    fn tee_enablement_follows_either_side() {
        const { assert!(!<Tee<NoopObserver, NoopObserver>>::ENABLED) };
        const { assert!(<Tee<RingObserver, NoopObserver>>::ENABLED) };
        const { assert!(<Tee<NoopObserver, RingObserver>>::ENABLED) };
        const { assert!(<Tee<RingObserver, RingObserver>>::ENABLED) };
    }

    #[test]
    fn tee_records_into_both_sides() {
        let mut tee = Tee::new(
            RingObserver::with_capacity(4),
            RingObserver::with_capacity(4),
        );
        tee.a.set_now(1);
        tee.b.set_now(2);
        tee.record(mark(0, "x"));
        assert_eq!(tee.a.len(), 1);
        assert_eq!(tee.b.len(), 1);
        assert_eq!(tee.a.drain()[0].at, 1);
        assert_eq!(tee.b.drain()[0].at, 2);
    }

    #[test]
    fn tee_with_one_disabled_side_still_records() {
        let mut tee = Tee::new(NoopObserver, RingObserver::with_capacity(4));
        tee.record(mark(3, "y"));
        assert_eq!(tee.b.len(), 1);
    }

    #[test]
    fn ring_keeps_newest_and_counts_discards() {
        let mut ring = RingObserver::with_capacity(2);
        ring.set_now(1);
        ring.record(mark(0, "a"));
        ring.set_now(2);
        ring.record(mark(0, "b"));
        ring.set_now(3);
        ring.record(mark(0, "c"));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.discarded(), 1);
        let drained = ring.drain();
        assert_eq!(drained[0].at, 2);
        assert_eq!(drained[1].at, 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = RingObserver::with_capacity(0);
        ring.record(mark(1, "x"));
        assert!(ring.is_empty());
        assert_eq!(ring.discarded(), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut ring = RingObserver::with_capacity(8);
        ring.set_now(5);
        ring.record(mark(2, "hello"));
        ring.record(Event::FrameSent {
            node: 2,
            peer: 3,
            bytes: 128,
        });
        let jsonl = ring.to_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, original) in lines.iter().zip(ring.iter()) {
            assert_eq!(&TimedEvent::from_json(line).unwrap(), original);
        }
    }

    #[test]
    fn shared_ring_is_cloneable_and_threadsafe() {
        let ring = SharedRing::new(64);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let r = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    r.record_shared(mark(t, &format!("{i}")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.snapshot().len(), 32);
    }

    #[test]
    fn shared_ring_order_is_stamp_order() {
        const THREADS: usize = 4;
        const EACH: usize = 10_000;
        let ring = SharedRing::new(THREADS * EACH);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS as u32 {
                let (ring, start) = (&ring, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..EACH {
                        ring.record_shared(Event::Crashed { node: t });
                    }
                });
            }
        });
        let events = ring.snapshot();
        assert_eq!(events.len(), THREADS * EACH);
        let backwards = events.windows(2).filter(|w| w[1].at < w[0].at).count();
        assert_eq!(backwards, 0, "stamps stepped back between neighbours");
    }
}
