//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! which semantic technique buys what, how sensitive duplicate suppression
//! is to the cache, and what trading push's redundancy for eager/lazy's pull
//! half costs under loss.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::{dedup_workload, mini_cluster};
use paxos_semantics::SemanticMode;
use semantic_gossip::{GossipConfig, RecentCache, SlidingBloom};
use testbed::{run_cluster, ClusterParams, DedupKind, Setup};

/// Filtering-only vs aggregation-only vs both vs classic: the message
/// reduction each combination buys (the paper reports the combined −58%).
fn ablation_semantics(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_semantics");
    g.sample_size(10);
    let variants: Vec<(&str, Setup)> = vec![
        ("classic", Setup::Gossip),
        ("filtering", Setup::Custom(SemanticMode::FILTERING_ONLY)),
        ("aggregation", Setup::Custom(SemanticMode::AGGREGATION_ONLY)),
        ("full", Setup::SemanticGossip),
    ];
    // Print the message-reduction ablation once, then benchmark each mode.
    let classic = mini_cluster(Setup::Gossip, 13, 40.0, 0.0, 21).gossip_received();
    for (name, setup) in &variants {
        let received = mini_cluster(*setup, 13, 40.0, 0.0, 21).gossip_received();
        eprintln!(
            "[ablation_semantics] {name}: {received} received ({:+.1}% vs classic)",
            (received as f64 / classic as f64 - 1.0) * 100.0
        );
    }
    for (name, setup) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &setup, |b, &setup| {
            b.iter(|| black_box(mini_cluster(setup, 13, 40.0, 0.0, 21)))
        });
    }
    g.finish();
}

/// Recently-seen cache size sensitivity: too small and duplicates slip
/// through (re-deliveries); the bench exercises the suppression hot path.
fn ablation_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_cache");
    for bits in [8usize, 12, 16] {
        let capacity = 1usize << bits;
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("recent_2^{bits}")),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut cache = RecentCache::new(capacity);
                    black_box(dedup_workload(&mut cache, 4096, 4))
                })
            },
        );
    }
    // And end-to-end: a cluster run with a tiny cache still works (gossip
    // tolerates re-deliveries), it just forwards more.
    g.sample_size(10);
    g.bench_function("cluster_tiny_cache", |b| {
        b.iter(|| {
            let mut params = ClusterParams::paper(13, Setup::Gossip)
                .with_rate(26.0)
                .with_seconds(1.0, 0.5);
            params.gossip = GossipConfig {
                recent_cache_size: 256,
                ..GossipConfig::default()
            };
            let m = run_cluster(&params);
            assert!(m.safety_ok);
            black_box(m)
        })
    });
    g.finish();
}

/// Exact FIFO cache vs sliding Bloom filter (the paper's §3.3 alternative):
/// same suppression workload, different structure.
fn ablation_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dedup");
    g.bench_function("recent_cache", |b| {
        b.iter(|| {
            let mut f = RecentCache::new(1 << 14);
            black_box(dedup_workload(&mut f, 4096, 4))
        })
    });
    g.bench_function("sliding_bloom", |b| {
        b.iter(|| {
            let mut f = SlidingBloom::new(1 << 18, 1 << 13);
            black_box(dedup_workload(&mut f, 4096, 4))
        })
    });
    g.sample_size(10);
    for (name, dedup) in [
        ("cluster_recent", DedupKind::RecentCache),
        ("cluster_bloom", DedupKind::SlidingBloom),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &dedup, |b, &dedup| {
            b.iter(|| {
                let mut params = ClusterParams::paper(13, Setup::Gossip)
                    .with_rate(26.0)
                    .with_seconds(1.0, 0.5);
                params.dedup = dedup;
                let m = run_cluster(&params);
                assert!(m.safety_ok);
                black_box(m)
            })
        });
    }
    g.finish();
}

/// Push vs eager/lazy under receive loss (§2.2: the techniques "could be
/// extended to other strategies"): push masks loss with redundant copies,
/// eager/lazy with its pull half — IHAVE announcements, IWANT requests —
/// at a fraction of the wire bytes.
fn ablation_strategy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_strategy");
    g.sample_size(10);
    let strategies = [
        ("push", Setup::Gossip),
        ("eager_lazy", Setup::EagerLazyGossip),
    ];
    for (name, setup) in strategies {
        let m = mini_cluster(setup, 13, 26.0, 0.05, 5);
        eprintln!(
            "[ablation_strategy] 5% receive loss, {name}: {} of {} not ordered, {} bytes sent",
            m.not_ordered_in_window,
            m.submitted_in_window,
            m.gossip.bytes_sent.get()
        );
        g.bench_with_input(BenchmarkId::from_parameter(name), &setup, |b, &setup| {
            b.iter(|| black_box(mini_cluster(setup, 13, 26.0, 0.05, 5)))
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_semantics,
    ablation_cache,
    ablation_dedup,
    ablation_strategy
);
criterion_main!(ablations);
