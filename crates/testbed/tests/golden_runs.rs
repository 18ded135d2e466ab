//! Characterisation pin of `run_cluster`: one short run per substrate path
//! plus the fault paths, each reduced to a digest that must not move.
//!
//! The other golden fixtures pin the *analyzer* over a recorded trace; this
//! file pins what the simulated cluster itself produces — counts, latency
//! quantiles, wire bytes per class, gossip counters, every group's
//! delivered logs and the full JSONL trace — so a refactor of the node
//! paths that changes any simulated number fails here first. The expected
//! digests are not to be regenerated by a change that claims to keep
//! behaviour. They were regenerated when proposals on push gossip went
//! thin (a Phase 2a names its value by id; the value travels once, in its
//! `ClientValue`; EXPERIMENTS.md, "Send-once walkthrough"), when eager/lazy
//! announcements started to leave in per-peer batches (only
//! `eagerlazy_g4_batch8_n13` moved; "Announcement walkthrough"), when the
//! simulator started to wake each process at its runtime's next deadline
//! instead of on fixed polls: `faults_n21`, `failover_g2_n13` and
//! `eagerlazy_g4_batch8_n13` moved, and EXPERIMENTS.md ("Timer
//! walkthrough") lists the old and new value of each of their fields. Last,
//! eager/lazy PRUNEs started to stop only what their sender receives, with
//! a sticky parent link: only `eagerlazy_g4_batch8_n13` moved (EXPERIMENTS.md,
//! "Tree walkthrough").

use overlay::{connected_k_out, paper_fanout, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use semantic_gossip::id::stable_hash64;
use simnet::SimDuration;
use testbed::{run_cluster, ClusterParams, RunMetrics, Setup};

/// Large enough that no event of these short runs is evicted.
const TRACE_CAPACITY: usize = 1 << 21;

fn pinned_overlay(n: usize, extra_fanout: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    connected_k_out(n, paper_fanout(n) + extra_fanout, &mut rng, 100).expect("connected overlay")
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Everything the issue's acceptance criteria call "the simulated numbers",
/// one line per quantity so a mismatch names what moved.
fn digest(m: &mut RunMetrics) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "submitted_in_window={} ordered={} not_ordered={} ordered_by_group={:?}",
        m.submitted_in_window, m.ordered, m.not_ordered_in_window, m.ordered_by_group
    ));
    let ns = |d: Option<SimDuration>| d.map_or(0, |d| d.as_nanos());
    line(format!(
        "latency_p50_ns={} latency_p99_ns={}",
        ns(m.latency.percentile(50.0)),
        ns(m.latency.percentile(99.0))
    ));
    line(format!(
        "bytes_out_by_class={:?}",
        m.ledger.bytes_out_by_class()
    ));
    line(format!(
        "node_received={} node_sent={} received_by_kind={:?}",
        m.node_received.iter().sum::<u64>(),
        m.node_sent.iter().sum::<u64>(),
        m.received_by_kind
    ));
    line(format!(
        "gossip sent={} filtered={} duplicates={} aggregated_away={} bytes_sent={}",
        m.gossip.sent.get(),
        m.gossip.filtered.get(),
        m.gossip.duplicates.get(),
        m.gossip.aggregated_away.get(),
        m.gossip.bytes_sent.get()
    ));
    for (g, audit) in m.audits.iter().enumerate() {
        let mut text = String::new();
        for (node, log) in audit.delivered.iter().enumerate() {
            text.push_str(&format!("{node}:"));
            for &(instance, value, duplicate) in log {
                text.push_str(&format!(
                    "{instance}/{}.{}/{};",
                    value.origin.as_u32(),
                    value.seq,
                    duplicate as u8
                ));
            }
            text.push('\n');
        }
        line(format!(
            "group {g}: longest_log={} delivered_hash={:016x} promises_hash={:016x}",
            audit.delivered.iter().map(Vec::len).max().unwrap_or(0),
            stable_hash64(text.as_bytes()),
            stable_hash64(format!("{:?}", audit.promises).as_bytes())
        ));
    }
    let trace = m.trace_jsonl.as_deref().expect("tracing enabled");
    line(format!(
        "trace lines={} bytes={} hash={:016x}",
        trace.lines().count(),
        trace.len(),
        stable_hash64(trace.as_bytes())
    ));
    line(format!(
        "value_waits={} proposals_parked={} safety_ok={}",
        m.value_waits, m.proposals_parked, m.safety_ok
    ));
    out
}

/// Lossless runs on direct channels and push gossip: every process sends a
/// proposal on before it votes on it and nothing is dropped, so no learner
/// should ever hold a quorum of votes without the value. On eager/lazy
/// trees (a proposal can take the lazy repair path while votes ride other
/// trees) and under faults that order is not guaranteed; there the count is
/// pinned as a characterisation, not as a requirement.
const NEVER_WAITS: [&str; 3] = ["baseline_n13", "gossip_n13", "semantic_n27"];

fn check(name: &str, mut params: ClusterParams, expected: &str) {
    params.trace_capacity = TRACE_CAPACITY;
    let mut m = run_cluster(&params);
    if NEVER_WAITS.contains(&name) {
        assert_eq!(m.value_waits, 0, "{name}: a learner waited for a value");
    }
    let actual = digest(&mut m);
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "{name}: run_cluster output moved.\n--- actual ---\n{actual}"
    );
}

#[test]
fn baseline_n13() {
    check(
        "baseline_n13",
        ClusterParams::paper(13, Setup::Baseline)
            .with_rate(200.0)
            .with_seconds(1.0, 0.5)
            .with_seed(3),
        BASELINE_N13,
    );
}

#[test]
fn gossip_n13() {
    check(
        "gossip_n13",
        ClusterParams::paper(13, Setup::Gossip)
            .with_rate(100.0)
            .with_seconds(1.0, 0.5)
            .with_seed(3),
        GOSSIP_N13,
    );
}

#[test]
fn semantic_n27_pinned_overlay() {
    check(
        "semantic_n27",
        ClusterParams::paper(27, Setup::SemanticGossip)
            .with_rate(40.0)
            .with_seconds(1.0, 0.5)
            .with_seed(3)
            .with_overlay(pinned_overlay(27, 0)),
        SEMANTIC_N27,
    );
}

#[test]
fn eagerlazy_g4_batch8_n13() {
    check(
        "eagerlazy_g4_n13",
        ClusterParams::paper(13, Setup::EagerLazyGossip)
            .with_groups(4)
            .with_batch_values(8)
            .with_rate(400.0)
            .with_seconds(1.0, 0.5)
            .with_seed(3)
            .with_overlay(pinned_overlay(13, 0)),
        EAGERLAZY_G4_N13,
    );
}

/// The `sim_faults_n21` shape of `bench_e2e`: receive loss, three crashed
/// and recovered acceptors, a three-process minority partition, failover
/// and retransmit timers, on plain push gossip.
#[test]
fn faults_n21() {
    let mut params = ClusterParams::paper(21, Setup::Gossip)
        .with_rate(20.0)
        .with_seconds(2.0, 0.5)
        .with_seed(3)
        .with_overlay(pinned_overlay(21, 2))
        .with_loss(0.02)
        .with_failover(ms(1500));
    params.drain = SimDuration::from_secs(2);
    params.retransmit = Some(ms(500));
    for node in [14, 15, 16] {
        params = params.with_crash(node, ms(850), ms(1400));
    }
    params = params.with_partition([18, 19, 20], ms(1650), ms(2150));
    check("faults_n21", params, FAULTS_N21);
}

/// Coordinator loss under sharding: both groups' round-0 leaders crash for
/// good, so the round-change timers start new rounds at other processes —
/// the only path on which a non-bootstrap process calls `start_round`.
#[test]
fn failover_g2_n13() {
    let mut params = ClusterParams::paper(13, Setup::Gossip)
        .with_groups(2)
        .with_rate(60.0)
        .with_seconds(2.0, 0.5)
        .with_seed(3)
        .with_failover(ms(400))
        .with_crash(0, ms(900), ms(60_000))
        .with_crash(1, ms(900), ms(60_000));
    params.retransmit = Some(ms(300));
    check("failover_g2_n13", params, FAILOVER_G2_N13);
}

const BASELINE_N13: &str = r#"
submitted_in_window=200 ordered=200 not_ordered=0 ordered_by_group=[200]
latency_p50_ns=178101251 latency_p99_ns=302110508
bytes_out_by_class=[("ClientValue", 284556), ("Decision", 3717264), ("Phase1a", 60), ("Phase1b", 60), ("Phase2a", 3720864), ("Phase2b", 30864)]
node_received=12002 node_sent=11100 received_by_kind=[276, 13, 13, 3900, 3900, 0, 3900]
gossip sent=0 filtered=0 duplicates=0 aggregated_away=0 bytes_sent=0
group 0: longest_log=300 delivered_hash=57c7cba10760fb45 promises_hash=560f5907f86ef205
trace lines=27334 bytes=2586788 hash=0eb171f5dc72d3bb
value_waits=0 proposals_parked=0 safety_ok=true
"#;
const GOSSIP_N13: &str = r#"
submitted_in_window=100 ordered=100 not_ordered=0 ordered_by_group=[100]
latency_p50_ns=354789644 latency_p99_ns=435058055
bytes_out_by_class=[("ClientValue", 6186000), ("Decision", 6192880), ("Phase1a", 200), ("Phase1b", 2600), ("Phase2a", 42880), ("Phase2b", 635440)]
node_received=96560 node_sent=96560 received_by_kind=[6000, 40, 520, 6000, 78000, 0, 6000]
gossip sent=96560 filtered=0 duplicates=67592 aggregated_away=0 bytes_sent=13060000
group 0: longest_log=150 delivered_hash=e57bcf5d51195efb promises_hash=560f5907f86ef205
trace lines=433390 bytes=38458178 hash=bdd3f9e51aa3a1e5
value_waits=0 proposals_parked=95 safety_ok=true
"#;
const SEMANTIC_N27: &str = r#"
submitted_in_window=40 ordered=40 not_ordered=0 ordered_by_group=[40]
latency_p50_ns=273273135 latency_p99_ns=411043788
bytes_out_by_class=[("ClientValue", 4948800), ("Decision", 1054704), ("Phase1a", 400), ("Phase1b", 10800), ("Phase2a", 33600), ("Phase2b", 604000), ("Phase2b(agg)", 36430)]
node_received=92384 node_sent=92384 received_by_kind=[4800, 80, 2160, 4800, 75500, 4022, 1022]
gossip sent=92384 filtered=29085 duplicates=57351 aggregated_away=4645 bytes_sent=6688734
group 0: longest_log=60 delivered_hash=7aa6409ef1490abc promises_hash=9c786badc81a97a5
trace lines=464577 bytes=41030855 hash=f47f386228fc9272
value_waits=0 proposals_parked=228 safety_ok=true
"#;
const EAGERLAZY_G4_N13: &str = r#"
submitted_in_window=400 ordered=400 not_ordered=0 ordered_by_group=[100, 100, 100, 100]
latency_p50_ns=323684611 latency_p99_ns=468018131
bytes_out_by_class=[("ClientValue", 9127160), ("Decision", 7463976), ("IHAVE", 2494836), ("PRUNE", 1425), ("Phase1a", 1360), ("Phase1b", 15890), ("Phase2a", 86406), ("Phase2b", 1163319)]
node_received=118672 node_sent=118672 received_by_kind=[8810, 136, 1589, 6934, 88326, 0, 6756]
gossip sent=112551 filtered=0 duplicates=3339 aggregated_away=0 bytes_sent=20354372
group 0: longest_log=150 delivered_hash=f9cf743689c159ff promises_hash=560f5907f86ef205
group 1: longest_log=150 delivered_hash=62d2b81df47f3167 promises_hash=560f5907f86ef205
group 2: longest_log=150 delivered_hash=5b2cb0d9ad50edc8 promises_hash=560f5907f86ef205
group 3: longest_log=150 delivered_hash=e0ddea2447453bc8 promises_hash=560f5907f86ef205
trace lines=606412 bytes=54718318 hash=753d47aeac04982f
value_waits=0 proposals_parked=483 safety_ok=true
"#;
const FAULTS_N21: &str = r#"
submitted_in_window=40 ordered=40 not_ordered=0 ordered_by_group=[40]
latency_p50_ns=250100345 latency_p99_ns=359045706
bytes_out_by_class=[("ClientValue", 6429316), ("Decision", 6431424), ("Phase1a", 1300), ("Phase1b", 26885), ("Phase2a", 43932), ("Phase2b", 1005712)]
node_received=136977 node_sent=150095 received_by_kind=[5664, 256, 4706, 5691, 114939, 0, 5721]
gossip sent=143228 filtered=0 duplicates=109434 aggregated_away=0 bytes_sent=13333568
group 0: longest_log=50 delivered_hash=7ab00e0ffd058aae promises_hash=1737c9c996d67c76
trace lines=619035 bytes=55734817 hash=06d629924faf16a3
value_waits=17 proposals_parked=81 safety_ok=true
"#;
const FAILOVER_G2_N13: &str = r#"
submitted_in_window=120 ordered=86 not_ordered=34 ordered_by_group=[35, 51]
latency_p50_ns=333928371 latency_p99_ns=710439633
bytes_out_by_class=[("ClientValue", 5479765), ("Decision", 4187856), ("Phase1a", 1325), ("Phase1b", 9326095), ("Phase2a", 816587), ("Phase2b", 482424)]
node_received=68229 node_sent=78181 received_by_kind=[4681, 234, 2587, 4714, 52573, 0, 3440]
gossip sent=78181 filtered=0 duplicates=45606 aggregated_away=0 bytes_sent=20294052
group 0: longest_log=52 delivered_hash=71d433297c0600e1 promises_hash=1e1a8aa6cf34a7fd
group 1: longest_log=68 delivered_hash=3dcee6d3fc7b1a49 promises_hash=d30fb72e4c1b5632
trace lines=331575 bytes=29703258 hash=0458fd77db1d827a
value_waits=0 proposals_parked=86 safety_ok=true
"#;
