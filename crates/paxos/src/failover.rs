//! Coordinator failover: a progress-based failure detector driving round
//! changes.
//!
//! Paxos is safe with concurrent coordinators, but for progress a single
//! process should coordinate at a time (§2.3 of the paper). This module
//! provides the minimal liveness machinery the paper assumes (and disables
//! for its reliability experiments): every process watches for ordered
//! progress; when none happens for a timeout, it suspects the coordinator
//! and — if it is the next coordinator in line — starts the next round.
//!
//! Time is abstract (`u64` ticks, typically nanoseconds), so the detector
//! runs unchanged under the simulator and under wall-clock runtimes.

use semantic_gossip::NodeId;

use crate::types::Round;

/// A per-process round-change timer.
///
/// Drive it with [`on_progress`](Self::on_progress) whenever consensus
/// delivers something and with [`observe_round`](Self::observe_round)
/// whenever a message from a newer round arrives; poll
/// [`suspect`](Self::suspect) from a timer.
///
/// # Example
///
/// ```
/// use paxos::failover::RoundChangeTimer;
/// use paxos::Round;
/// use semantic_gossip::NodeId;
///
/// // Process 1 of 3, 100-tick timeout, starting at round 0.
/// let mut timer = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
/// // No progress for 150 ticks: round 1's coordinator is process 1 — us.
/// assert_eq!(timer.suspect(150), Some(Round::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct RoundChangeTimer {
    id: NodeId,
    n: usize,
    /// Leadership rotation offset — the consensus group id under sharding
    /// (see [`Round::coordinator_at`]); 0 for a single-group deployment.
    offset: u32,
    timeout: u64,
    current_round: Round,
    last_progress: u64,
    /// Rounds this timer already fired for (avoid re-firing every poll).
    fired_for: Option<Round>,
}

impl RoundChangeTimer {
    /// Creates a timer for process `id` in a system of `n`, suspecting after
    /// `timeout` ticks without progress. Watches group 0; sharded runtimes
    /// use [`RoundChangeTimer::for_group`], one timer per group.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `timeout == 0`.
    pub fn new(id: NodeId, n: usize, timeout: u64, now: u64) -> Self {
        Self::for_group(id, n, 0, timeout, now)
    }

    /// Creates a timer watching consensus group `group`, whose round `r` is
    /// led by process `(r + group) mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `timeout == 0`.
    pub fn for_group(id: NodeId, n: usize, group: u32, timeout: u64, now: u64) -> Self {
        assert!(n > 0, "system must have processes");
        assert!(timeout > 0, "timeout must be positive");
        RoundChangeTimer {
            id,
            n,
            offset: group,
            timeout,
            current_round: Round::ZERO,
            last_progress: now,
            fired_for: None,
        }
    }

    /// Notes consensus progress (an ordered delivery) at `now`.
    pub fn on_progress(&mut self, now: u64) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Notes a message from `round`; newer rounds reset the timer (someone
    /// is making an attempt — give them time).
    pub fn observe_round(&mut self, round: Round, now: u64) {
        if round > self.current_round {
            self.current_round = round;
            self.last_progress = self.last_progress.max(now);
            self.fired_for = None;
        }
    }

    /// The round this timer currently believes the system is in.
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// When [`suspect`](Self::suspect) can next return a round, for hosts
    /// that sleep until something is due instead of polling: the end of the
    /// current silence, or `None` while this process is not the one to act
    /// (it does not coordinate the next round, or already started it).
    pub fn deadline(&self) -> Option<u64> {
        let next = self.current_round.next();
        let ours = next.coordinator_at(self.offset, self.n) == self.id;
        (ours && self.fired_for != Some(next)).then(|| self.last_progress + self.timeout)
    }

    /// Polls the timer: returns the round this process should start, if the
    /// current coordinator has been silent past the timeout *and* this
    /// process coordinates the next round. Fires at most once per round.
    pub fn suspect(&mut self, now: u64) -> Option<Round> {
        if now.saturating_sub(self.last_progress) < self.timeout {
            return None;
        }
        let next = self.current_round.next();
        if next.coordinator_at(self.offset, self.n) != self.id {
            return None;
        }
        if self.fired_for == Some(next) {
            return None;
        }
        self.fired_for = Some(next);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_set_only_while_this_process_is_the_one_to_act() {
        // Process 1 of 3 coordinates round 1; process 2 does not.
        let mut next = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
        let other = RoundChangeTimer::new(NodeId::new(2), 3, 100, 0);
        assert_eq!(next.deadline(), Some(100));
        assert_eq!(other.deadline(), None);
        next.on_progress(40);
        assert_eq!(next.deadline(), Some(140));
        assert_eq!(next.suspect(140), Some(Round::new(1)));
        assert_eq!(next.deadline(), None, "fired: nothing more to wait for");
    }

    #[test]
    fn no_suspicion_while_progressing() {
        let mut t = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
        t.on_progress(50);
        assert_eq!(t.suspect(120), None); // only 70 ticks of silence
        assert_eq!(t.suspect(149), None);
        assert!(t.suspect(150).is_some());
    }

    #[test]
    fn only_next_coordinator_fires() {
        // Round 1's coordinator is process 1; process 2 must stay quiet.
        let mut p2 = RoundChangeTimer::new(NodeId::new(2), 3, 100, 0);
        assert_eq!(p2.suspect(1000), None);
        let mut p1 = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
        assert_eq!(p1.suspect(1000), Some(Round::new(1)));
    }

    #[test]
    fn fires_once_per_round() {
        let mut t = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
        assert!(t.suspect(200).is_some());
        assert_eq!(t.suspect(300), None, "must not re-fire for the same round");
    }

    #[test]
    fn observing_newer_round_resets() {
        let mut t = RoundChangeTimer::new(NodeId::new(2), 3, 100, 0);
        t.observe_round(Round::new(1), 50);
        assert_eq!(t.current_round(), Round::new(1));
        // Now round 2's coordinator is process 2 — fires after silence.
        assert_eq!(t.suspect(149), None);
        assert_eq!(t.suspect(151), Some(Round::new(2)));
    }

    #[test]
    fn stale_round_observation_is_ignored() {
        let mut t = RoundChangeTimer::new(NodeId::new(1), 3, 100, 0);
        t.observe_round(Round::new(2), 10);
        t.observe_round(Round::new(1), 20); // stale
        assert_eq!(t.current_round(), Round::new(2));
    }

    #[test]
    fn rotation_wraps_around() {
        // n = 3: round 3's coordinator is process 0.
        let mut t = RoundChangeTimer::new(NodeId::new(0), 3, 100, 0);
        t.observe_round(Round::new(2), 0);
        assert_eq!(t.suspect(500), Some(Round::new(3)));
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timeout_panics() {
        RoundChangeTimer::new(NodeId::new(0), 3, 0, 0);
    }

    #[test]
    fn group_timer_tracks_offset_rotation() {
        // Group 1 of 3: round 1 is led by (1 + 1) mod 3 = process 2, so
        // process 1 (round 1's group-0 leader) must stay quiet and process
        // 2 fires.
        let mut p1 = RoundChangeTimer::for_group(NodeId::new(1), 3, 1, 100, 0);
        assert_eq!(p1.suspect(1000), None);
        let mut p2 = RoundChangeTimer::for_group(NodeId::new(2), 3, 1, 100, 0);
        assert_eq!(p2.suspect(1000), Some(Round::new(1)));
    }
}
