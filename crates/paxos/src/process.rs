//! A full Paxos process: proposer + acceptor + learner behind one handler.
//!
//! The paper assumes "each Paxos process plays all these roles" (§2.3).
//! [`PaxosProcess`] glues the three role state machines together and speaks
//! only in terms of [`PaxosMessage`]s in and [`Outbound`]s out; the
//! communication substrate (direct channels or gossip) interprets the
//! [`Route`] tags.

use std::collections::HashSet;

use obs::{Event, NoopObserver, Observer};
use semantic_gossip::NodeId;

use crate::acceptor::Acceptor;
use crate::config::PaxosConfig;
use crate::coordinator::Coordinator;
use crate::learner::{Delivered, Learner};
use crate::message::{Kind, PaxosMessage};
use crate::storage::{MemoryStorage, StableStorage};
use crate::types::{InstanceId, Round, Value, ValueId};

/// Where a message logically goes.
///
/// Routes express Paxos's communication patterns without fixing a transport:
/// the Baseline setup maps them to direct channels, the gossip setups
/// broadcast everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One-to-many: to every process (Phase 1a/2a, Decision).
    ToAll,
    /// Many-to-one: to the coordinator of the message's round (Phase 1b/2b,
    /// forwarded client values).
    ToCoordinator,
}

/// An outbound message tagged with its logical route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound {
    /// The protocol message.
    pub msg: PaxosMessage,
    /// Its logical destination.
    pub route: Route,
}

impl Outbound {
    fn to_all(msg: PaxosMessage) -> Self {
        Outbound {
            msg,
            route: Route::ToAll,
        }
    }

    fn to_coordinator(msg: PaxosMessage) -> Self {
        Outbound {
            msg,
            route: Route::ToCoordinator,
        }
    }
}

/// One Paxos process playing proposer, acceptor and learner.
///
/// Drive it with [`handle`](Self::handle) for protocol messages and
/// [`submit`](Self::submit) for client values; collect decided values with
/// [`take_decisions`](Self::take_decisions) (ordered, gap-free).
///
/// **Self-delivery:** the runtime must deliver a process's
/// [`Route::ToAll`] messages back to the process itself too (gossip does
/// this by construction; a direct-channel runtime must loop them back).
///
/// The `O` parameter is the [`Observer`] receiving phase-transition trace
/// events; the default [`NoopObserver`] compiles all emission away.
#[derive(Debug)]
pub struct PaxosProcess<S: StableStorage = MemoryStorage, O = NoopObserver> {
    id: NodeId,
    config: PaxosConfig,
    acceptor: Acceptor<S>,
    coordinator: Option<Coordinator>,
    learner: Learner,
    /// Highest round observed in the system.
    current_round: Round,
    /// Ids of values this process has seen decided. Guards the proposal
    /// paths against re-deciding a value at a second instance when a
    /// demoted coordinator re-forwards its backlog (or a client retries).
    /// Unbounded like the learner's delivery history; a production system
    /// would truncate both behind a checkpoint.
    decided_ids: HashSet<ValueId>,
    submit_seq: u64,
    /// Messages handled, indexed by [`Kind::index`] — the CPU-side half of
    /// per-class resource attribution (which message class makes this
    /// process do coordination work). Plain adds: always on, no observer.
    handled_by_kind: [u64; Kind::COUNT],
    observer: O,
}

impl PaxosProcess<MemoryStorage> {
    /// Creates a process with fresh in-memory stable storage.
    pub fn new(id: NodeId, config: PaxosConfig) -> Self {
        PaxosProcess::with_storage(id, config, MemoryStorage::default())
    }
}

impl<S: StableStorage> PaxosProcess<S> {
    /// Creates a process over existing storage (also the crash-recovery
    /// entry point: pass the storage salvaged from the crashed incarnation).
    pub fn with_storage(id: NodeId, config: PaxosConfig, storage: S) -> Self {
        PaxosProcess::with_observer(id, config, storage, NoopObserver)
    }
}

impl<S: StableStorage, O: Observer> PaxosProcess<S, O> {
    /// Creates a process over existing storage with an explicit observer
    /// for phase-transition events.
    pub fn with_observer(id: NodeId, config: PaxosConfig, storage: S, observer: O) -> Self {
        assert!(
            id.as_index() < config.n,
            "process id out of range for the deployment"
        );
        PaxosProcess {
            id,
            config: config.clone(),
            acceptor: Acceptor::with_storage(id, storage),
            coordinator: None,
            learner: Learner::new(config),
            current_round: Round::ZERO,
            decided_ids: HashSet::new(),
            submit_seq: 0,
            handled_by_kind: [0; Kind::COUNT],
            observer,
        }
    }

    /// Messages handled so far, indexed by [`Kind::index`] (resource
    /// attribution: pair with [`Kind::ALL`] to name the classes).
    pub fn handled_by_kind(&self) -> &[u64; Kind::COUNT] {
        &self.handled_by_kind
    }

    /// Shared access to the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the observer (e.g. to drain a buffered trace or
    /// advance its clock).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// This process's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The deployment configuration.
    pub fn config(&self) -> &PaxosConfig {
        &self.config
    }

    /// The highest round this process has observed.
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// The coordinator of the highest round this process has observed, in
    /// this process's consensus group.
    pub fn current_coordinator(&self) -> NodeId {
        self.current_round
            .coordinator_at(self.config.group, self.config.n)
    }

    /// Scopes a protocol instance for trace events: the group id rides in
    /// the top bits (identity for group 0), matching
    /// [`semantic_gossip::group::group_scoped_instance`] so gossip-layer
    /// `wire_tagged` joins stay exact under sharding.
    fn scoped_instance(&self, instance: u64) -> u64 {
        semantic_gossip::group::group_scoped_instance(self.config.group, instance)
    }

    /// Whether this process is currently acting as coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.coordinator.is_some()
    }

    /// Read access to the coordinator role, when active.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coordinator.as_ref()
    }

    /// Read access to the learner role.
    pub fn learner(&self) -> &Learner {
        &self.learner
    }

    /// Read access to the acceptor role (auditor hook).
    pub fn acceptor(&self) -> &Acceptor<S> {
        &self.acceptor
    }

    /// The acceptor's highest promised round. Auditor hook: a safety
    /// auditor samples this around crash/recovery to check that the durable
    /// promise never regresses.
    pub fn promised_round(&self) -> Round {
        self.acceptor.promised()
    }

    /// The learner's open instance window (voting or awaiting in-order
    /// release) — the live `instance_window` gauge.
    pub fn instance_window(&self) -> usize {
        self.learner.open_window()
    }

    /// Instances in which this process held a quorum of votes before the
    /// value they name ([`Learner::value_waits`]) — the `value_waits`
    /// counter next to `instance_window`.
    pub fn value_waits(&self) -> u64 {
        self.learner.value_waits()
    }

    /// Makes this process the coordinator of `round`, starting Phase 1 over
    /// all instances not yet delivered locally.
    ///
    /// # Panics
    ///
    /// Panics if this process is not `round`'s coordinator, or if `round` is
    /// older than a round already observed.
    pub fn start_round(&mut self, round: Round) -> Vec<Outbound> {
        assert!(
            round >= self.current_round,
            "cannot start {round}: already at {}",
            self.current_round
        );
        self.current_round = round;
        let from_instance = self.learner.next_to_deliver();
        if O::ENABLED {
            self.observer.record(Event::RoundStarted {
                node: self.id.as_u32(),
                round: round.as_u32(),
            });
        }
        let (coordinator, phase1a) =
            Coordinator::start(self.id, self.config.clone(), round, from_instance);
        self.coordinator = Some(coordinator);
        vec![Outbound::to_all(phase1a)]
    }

    /// A client submits a payload at this process: proposed directly when
    /// this process coordinates, otherwise forwarded to the coordinator
    /// (§4.2: "when a Paxos process receives a value from a client, it
    /// forwards the value to the coordinator").
    pub fn submit(&mut self, value: Value) -> Vec<Outbound> {
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::ValueSubmitted {
                node: self.id.as_u32(),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        if self.decided_ids.contains(&value.id()) {
            return Vec::new(); // already decided; a retry must not re-propose
        }
        if let Some(c) = self.coordinator.as_mut() {
            return c.propose(value).into_iter().map(Outbound::to_all).collect();
        }
        vec![Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: self.id,
            value,
        })]
    }

    /// Convenience for clients: wraps `payload` into a [`Value`] with this
    /// process as origin and an auto-incremented sequence number, then
    /// [`submit`](Self::submit)s it. Returns the value's id along with the
    /// outbound messages.
    pub fn submit_payload(&mut self, payload: Vec<u8>) -> (Value, Vec<Outbound>) {
        let value = Value::new(self.id, self.submit_seq, payload);
        self.submit_seq += 1;
        let out = self.submit(value.clone());
        (value, out)
    }

    /// Handles one delivered protocol message, returning the messages it
    /// triggers.
    pub fn handle(&mut self, msg: PaxosMessage) -> Vec<Outbound> {
        self.handled_by_kind[msg.kind().index()] += 1;
        match msg {
            PaxosMessage::ClientValue { value, .. } => {
                if self.decided_ids.contains(&value.id()) {
                    return Vec::new(); // stale re-forward of a decided value
                }
                match self.coordinator.as_mut() {
                    Some(c) => c.propose(value).into_iter().map(Outbound::to_all).collect(),
                    // Not the coordinator: the gossip layer already carries
                    // the value to the coordinator; nothing to do.
                    None => Vec::new(),
                }
            }
            PaxosMessage::Phase1a {
                round,
                from_instance,
                sender: _,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase1a {
                        node: self.id.as_u32(),
                        round: round.as_u32(),
                        from_instance: self.scoped_instance(from_instance.as_u64()),
                    });
                }
                let mut out = self.observe_round(round);
                out.extend(
                    self.acceptor
                        .on_phase1a(round, from_instance)
                        .map(Outbound::to_coordinator),
                );
                out
            }
            PaxosMessage::Phase1b {
                round,
                sender,
                accepted,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase1b {
                        node: self.id.as_u32(),
                        round: round.as_u32(),
                        sender: sender.as_u32(),
                    });
                }
                match self.coordinator.as_mut() {
                    Some(c) => c
                        .on_phase1b(round, sender, &accepted)
                        .into_iter()
                        .map(Outbound::to_all)
                        .collect(),
                    None => Vec::new(),
                }
            }
            PaxosMessage::Phase2a {
                instance,
                round,
                value,
                sender: _,
            } => {
                if O::ENABLED {
                    let id = value.id();
                    self.observer.record(Event::Phase2a {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(instance.as_u64()),
                        round: round.as_u32(),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                }
                let mut out = self.observe_round(round);
                // Votes name this value by id only: the learner takes the
                // proposal whether or not the acceptor goes on to accept it.
                if let Some(decided) = self.learner.on_phase2a(instance, round, &value) {
                    out.extend(self.on_quorum(instance, decided));
                }
                out.extend(
                    self.acceptor
                        .on_phase2a(instance, round, value)
                        .map(Outbound::to_coordinator),
                );
                out
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase2b {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(instance.as_u64()),
                        round: round.as_u32(),
                        voters: voters.len() as u64,
                    });
                }
                let waits = self.learner.value_waits();
                match self.learner.on_phase2b(instance, round, value, &voters) {
                    Some(decided) => self.on_quorum(instance, decided),
                    None => {
                        if O::ENABLED && self.learner.value_waits() > waits {
                            self.observer.record(Event::ValueAwaited {
                                node: self.id.as_u32(),
                                instance: self.scoped_instance(instance.as_u64()),
                                round: round.as_u32(),
                                origin: value.origin.as_u32(),
                                seq: value.seq,
                            });
                        }
                        Vec::new()
                    }
                }
            }
            PaxosMessage::Decision {
                instance, value, ..
            } => match self.learner.on_decision(instance, &value) {
                Some(decided) => self.on_locally_decided(instance, decided),
                None => Vec::new(),
            },
        }
    }

    /// Coordinator-side retransmission of open proposals (kept out of the
    /// reliability experiments, which disable timeout-triggered recovery).
    pub fn retransmit(&self) -> Vec<Outbound> {
        self.coordinator
            .as_ref()
            .map(|c| c.retransmit().into_iter().map(Outbound::to_all).collect())
            .unwrap_or_default()
    }

    /// Drains values decided and deliverable in instance order (no gaps),
    /// with at-most-once semantics: a slot re-deciding an already-delivered
    /// value (assigned two instances by different rounds' coordinators) is
    /// suppressed. Use [`take_delivered`](Self::take_delivered) for the raw
    /// slot stream including suppressed duplicates.
    pub fn take_decisions(&mut self) -> Vec<(InstanceId, Value)> {
        self.take_delivered()
            .into_iter()
            .filter(|d| !d.duplicate)
            .map(|d| (d.instance, d.value))
            .collect()
    }

    /// Drains every deliverable slot in instance order, duplicates included
    /// and flagged — the slot-accurate view an auditor or state-machine
    /// layer needs to check the log's shape.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        let ordered = self.learner.take_ordered();
        if O::ENABLED {
            for d in &ordered {
                let id = d.value.id();
                if d.duplicate {
                    self.observer.record(Event::DuplicateSuppressed {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(d.instance.as_u64()),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                } else {
                    self.observer.record(Event::OrderedDelivered {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(d.instance.as_u64()),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                }
            }
        }
        ordered
    }

    /// Tears the process down, salvaging the acceptor's stable storage —
    /// the only state that survives a crash (§2.1's crash-recovery model).
    /// Recover with [`PaxosProcess::with_storage`].
    pub fn into_acceptor_storage(self) -> S {
        self.acceptor.into_storage()
    }

    /// A majority of identical votes met its value: the instance is decided
    /// here without a Decision message.
    fn on_quorum(&mut self, instance: InstanceId, value: Value) -> Vec<Outbound> {
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::QuorumReached {
                node: self.id.as_u32(),
                instance: self.scoped_instance(instance.as_u64()),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        self.on_locally_decided(instance, value)
    }

    fn on_locally_decided(&mut self, instance: InstanceId, value: Value) -> Vec<Outbound> {
        self.decided_ids.insert(value.id());
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::Decided {
                node: self.id.as_u32(),
                instance: self.scoped_instance(instance.as_u64()),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        match self.coordinator.as_mut() {
            Some(c) => {
                // The coordinator announces the decision and may unblock
                // queued client values (§2.3: the Decision step "becomes
                // redundant if Phase 2b messages are received by all
                // processes" — under gossip the semantic layer filters it).
                let mut out = vec![Outbound::to_all(PaxosMessage::Decision {
                    instance,
                    value,
                    sender: self.id,
                })];
                out.extend(c.on_decided(instance).into_iter().map(Outbound::to_all));
                out
            }
            None => Vec::new(),
        }
    }

    /// Tracks the highest round seen. When a newer round supersedes this
    /// process's own coordinatorship, the demoted coordinator's undecided
    /// backlog is re-forwarded to the new coordinator — Phase 1 only
    /// recovers values that reached at least one promising acceptor, so
    /// anything still queued (or accepted by no quorum member) would
    /// otherwise be lost with the old round. Values this process has since
    /// seen decided are dropped rather than re-forwarded, keeping delivery
    /// at-most-once.
    fn observe_round(&mut self, round: Round) -> Vec<Outbound> {
        if round <= self.current_round {
            return Vec::new();
        }
        self.current_round = round;
        let superseded = self
            .coordinator
            .take_if(|c| c.round() < round)
            .map(Coordinator::into_undecided)
            .unwrap_or_default();
        superseded
            .into_iter()
            .filter(|value| !self.decided_ids.contains(&value.id()))
            .map(|value| {
                Outbound::to_coordinator(PaxosMessage::ClientValue {
                    forwarder: self.id,
                    value,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every outbound to every process (gossip-like full fan-out)
    /// until quiescence.
    fn run_to_quiescence(procs: &mut [PaxosProcess], mut inflight: Vec<Outbound>) {
        let mut steps = 0;
        while let Some(out) = inflight.pop() {
            steps += 1;
            assert!(steps < 1_000_000, "protocol did not quiesce");
            for p in procs.iter_mut() {
                inflight.extend(p.handle(out.msg.clone()));
            }
        }
    }

    fn proposal(value: &Value, round: Round) -> PaxosMessage {
        PaxosMessage::Phase2a {
            instance: InstanceId::ZERO,
            round,
            value: value.clone(),
            sender: NodeId::new(0),
        }
    }

    fn cluster(n: usize) -> Vec<PaxosProcess> {
        let config = PaxosConfig::new(n);
        (0..n as u32)
            .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
            .collect()
    }

    #[test]
    fn single_value_decided_by_all() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let (value, out) = procs[0].submit_payload(b"v".to_vec());
        inflight.extend(out);
        run_to_quiescence(&mut procs, inflight);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1);
            assert_eq!(decisions[0].0, InstanceId::ZERO);
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn handle_counts_messages_per_kind() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let (_, out) = procs[0].submit_payload(b"v".to_vec());
        inflight.extend(out);
        run_to_quiescence(&mut procs, inflight);
        let counts = procs[1].handled_by_kind();
        assert_eq!(counts.len(), Kind::COUNT);
        // Deciding one value makes every process handle the round's 1a and
        // the value's 2a/2b traffic; a non-coordinator sees no ClientValue.
        assert!(counts[Kind::Phase1a.index()] >= 1, "{counts:?}");
        assert!(counts[Kind::Phase2a.index()] >= 1, "{counts:?}");
        assert!(counts[Kind::Phase2b.index()] >= 1, "{counts:?}");
        let total: u64 = counts.iter().sum();
        let fresh = PaxosProcess::new(NodeId::new(0), PaxosConfig::new(3));
        assert!(total > 0 && fresh.handled_by_kind().iter().sum::<u64>() == 0);
    }

    #[test]
    fn values_from_all_processes_are_ordered_identically() {
        let mut procs = cluster(5);
        let mut inflight = procs[0].start_round(Round::ZERO);
        for (i, p) in procs.iter_mut().enumerate() {
            let (_, out) = p.submit_payload(vec![i as u8]);
            inflight.extend(out);
        }
        run_to_quiescence(&mut procs, inflight);
        let reference: Vec<(InstanceId, Value)> = procs[0].take_decisions();
        assert_eq!(reference.len(), 5);
        for p in procs[1..].iter_mut() {
            assert_eq!(p.take_decisions(), reference);
        }
    }

    #[test]
    fn client_value_forwarded_when_not_coordinator() {
        let mut procs = cluster(3);
        let out = procs[1].submit(Value::new(NodeId::new(1), 0, vec![1]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].route, Route::ToCoordinator);
        assert!(matches!(out[0].msg, PaxosMessage::ClientValue { .. }));
    }

    #[test]
    fn duplicate_client_value_proposed_once() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let value = Value::new(NodeId::new(2), 0, vec![9]);
        // The same forwarded value reaches the coordinator twice.
        inflight.push(Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(2),
            value: value.clone(),
        }));
        inflight.push(Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(1),
            value: value.clone(),
        }));
        run_to_quiescence(&mut procs, inflight);
        let decisions = procs[0].take_decisions();
        assert_eq!(decisions.len(), 1);
    }

    #[test]
    fn round_change_reproposes_accepted_value() {
        let mut procs = cluster(3);
        // Round 0: coordinator 0 proposes, but only acceptor 0 sees the 2a.
        let mut inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, std::mem::take(&mut inflight));
        let (value, out) = procs[0].submit_payload(b"survivor".to_vec());
        // Deliver the Phase2a to processes 0 and 1 only (partition): the
        // value is accepted by a majority, so every Phase 1 quorum of the
        // next round must observe and re-propose it.
        let phase2a = out
            .into_iter()
            .find(|o| matches!(o.msg, PaxosMessage::Phase2a { .. }))
            .expect("prepared coordinator proposes immediately");
        let _votes = procs[0].handle(phase2a.msg.clone());
        let _votes = procs[1].handle(phase2a.msg.clone());
        // Now process 1 takes over with round 1 and full connectivity.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        // The accepted value must be re-proposed and decided at instance 0.
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "at {}", p.id());
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn newer_round_supersedes_old_coordinator() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        assert!(procs[0].is_coordinator());
        // Process 1 starts round 1; its Phase1a demotes process 0.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        assert!(!procs[0].is_coordinator());
        assert!(procs[1].is_coordinator());
        assert_eq!(procs[0].current_coordinator(), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "cannot start")]
    fn starting_stale_round_panics() {
        let mut procs = cluster(3);
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        // Process 0 now knows round 1; restarting round 0 is a bug.
        procs[0].start_round(Round::ZERO);
    }

    #[test]
    fn demoted_coordinator_reforwards_undecided_backlog() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        // Coordinator 0 proposes a value, but the Phase 2a reaches nobody
        // (all copies lost): no acceptor ever reports it in Phase 1b.
        let (value, _lost) = procs[0].submit_payload(b"orphan".to_vec());
        // Process 1 takes over with round 1. Process 0's Phase 1a handler
        // must demote its coordinator and re-forward the orphan, so the
        // new coordinator proposes it and the system still decides it.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "at {}", p.id());
            assert_eq!(decisions[0].1, value, "at {}", p.id());
        }
    }

    #[test]
    fn reforwarded_value_already_decided_is_not_reproposed() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        let (value, out) = procs[0].submit_payload(b"dup".to_vec());
        run_to_quiescence(&mut procs, [inflight, out].concat());
        // Everyone decided the value in round 0. A stale re-forward (as a
        // demoted coordinator would send) must not open a second instance.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        let stale = Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(0),
            value: value.clone(),
        });
        run_to_quiescence(&mut procs, vec![stale]);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "value decided twice at {}", p.id());
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn learner_decides_from_majority_without_decision_message() {
        // Feed the proposal and raw 2b votes to a bystander process: it
        // must decide alone.
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        let vote = |voter: u32| PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(voter)].into(),
        };
        let own_vote = p.handle(proposal(&v, Round::ZERO));
        assert_eq!(own_vote.len(), 1);
        assert!(p.handle(vote(0)).is_empty());
        assert!(p.handle(vote(1)).is_empty()); // decided; not coordinator => no Decision emitted
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!(p.value_waits(), 0);
    }

    #[test]
    fn votes_ahead_of_the_proposal_wait_for_it() {
        use obs::RingObserver;
        let mut p: PaxosProcess<MemoryStorage, RingObserver> = PaxosProcess::with_observer(
            NodeId::new(2),
            PaxosConfig::new(3),
            MemoryStorage::default(),
            RingObserver::with_capacity(64),
        );
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        p.handle(PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        });
        assert!(p.take_decisions().is_empty(), "a quorum of ids, no value");
        assert_eq!((p.value_waits(), p.instance_window()), (1, 1));
        p.handle(proposal(&v, Round::ZERO));
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        let kinds: Vec<&str> = p.observer().iter().map(|e| e.event.kind()).collect();
        let at = |kind: &str| {
            let found = kinds.iter().position(|k| *k == kind);
            found.unwrap_or_else(|| panic!("no {kind} in {kinds:?}"))
        };
        assert!(at("value_awaited") < at("phase2a"), "{kinds:?}");
        assert!(at("phase2a") < at("quorum_reached"), "{kinds:?}");
    }

    #[test]
    fn a_proposal_the_acceptor_rejects_still_supplies_the_value() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        // The acceptor has promised round 2...
        p.handle(PaxosMessage::Phase1a {
            round: Round::new(2),
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(2),
        });
        // ...so it stays silent on round 0's proposal, which the other two
        // acceptors vote for.
        assert!(p.handle(proposal(&v, Round::ZERO)).is_empty());
        p.handle(PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        });
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!(p.value_waits(), 0);
    }

    #[test]
    fn aggregated_votes_decide_in_one_message() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        let agg = PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        };
        p.handle(proposal(&v, Round::ZERO));
        p.handle(agg);
        assert_eq!(p.take_decisions().len(), 1);
    }

    #[test]
    fn coordinator_emits_decision_on_quorum() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        let (_, out) = procs[0].submit_payload(vec![1]);
        let phase2a = out
            .into_iter()
            .find(|o| matches!(o.msg, PaxosMessage::Phase2a { .. }))
            .unwrap();
        // Gather votes from processes 0 and 1.
        let vote0 = procs[0].handle(phase2a.msg.clone());
        let vote1 = procs[1].handle(phase2a.msg.clone());
        let out = procs[0].handle(vote0[0].msg.clone());
        assert!(out.is_empty(), "one vote is not a quorum");
        let out = procs[0].handle(vote1[0].msg.clone());
        assert!(
            out.iter()
                .any(|o| matches!(o.msg, PaxosMessage::Decision { .. })),
            "coordinator must announce the decision"
        );
    }

    #[test]
    fn crash_recovery_preserves_acceptor_state() {
        let config = PaxosConfig::new(3);
        let mut p = PaxosProcess::new(NodeId::new(1), config.clone());
        let v = Value::new(NodeId::new(0), 0, vec![1]);
        let out = p.handle(PaxosMessage::Phase2a {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.clone(),
            sender: NodeId::new(0),
        });
        assert_eq!(out.len(), 1);

        // Crash: rebuild the process from the acceptor's stable storage.
        let storage = p.acceptor.into_storage();
        let mut recovered = PaxosProcess::with_storage(NodeId::new(1), config, storage);
        // A Phase 1a for a newer round must report the accepted value.
        let out = recovered.handle(PaxosMessage::Phase1a {
            round: Round::new(1),
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(1),
        });
        match &out[0].msg {
            PaxosMessage::Phase1b { accepted, .. } => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(accepted[0].value, v);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observer_sees_full_value_pipeline() {
        use obs::RingObserver;
        let config = PaxosConfig::new(3);
        let mut coord: PaxosProcess<MemoryStorage, RingObserver> = PaxosProcess::with_observer(
            NodeId::new(0),
            config.clone(),
            MemoryStorage::default(),
            RingObserver::with_capacity(256),
        );
        let mut acceptor = PaxosProcess::new(NodeId::new(1), config);
        let round_out = coord.start_round(Round::ZERO);
        // Prepare: feed the 1a back to the coordinator and to acceptor 1.
        let own_1b = coord.handle(round_out[0].msg.clone());
        let peer_1b = acceptor.handle(round_out[0].msg.clone());
        coord.handle(own_1b[0].msg.clone());
        let proposals = coord.handle(peer_1b[0].msg.clone());
        assert!(proposals.is_empty(), "no value pending yet");
        // Submit, vote, decide, deliver.
        let (_, out) = coord.submit_payload(vec![7]);
        let phase2a = out
            .iter()
            .find(|o| matches!(o.msg, PaxosMessage::Phase2a { .. }))
            .unwrap();
        let own_vote = coord.handle(phase2a.msg.clone());
        let peer_vote = acceptor.handle(phase2a.msg.clone());
        coord.handle(own_vote[0].msg.clone());
        coord.handle(peer_vote[0].msg.clone());
        assert_eq!(coord.take_decisions().len(), 1);
        let kinds: Vec<&str> = coord.observer().iter().map(|e| e.event.kind()).collect();
        for expected in [
            "round_started",
            "phase1a",
            "phase1b",
            "value_submitted",
            "phase2a",
            "phase2b",
            "quorum_reached",
            "decided",
            "ordered_delivered",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
    }

    #[test]
    fn retransmit_resends_open_proposals() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        let (_, _out) = procs[0].submit_payload(vec![1]); // 2a lost
        let again = procs[0].retransmit();
        assert_eq!(again.len(), 1);
        assert!(matches!(again[0].msg, PaxosMessage::Phase2a { .. }));
        // Non-coordinators have nothing to retransmit.
        assert!(procs[1].retransmit().is_empty());
    }
}
