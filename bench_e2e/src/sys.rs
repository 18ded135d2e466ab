//! Process-level measurements (`/proc`) and small statistics helpers.

use std::time::Duration;

/// Resident-set ceiling for the bench-owned hosts: a run that grows past it
/// is aborted and reported as failed instead of taking the box down.
pub const RSS_GUARD_KB: u64 = 2 * 1024 * 1024;

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process (`VmRSS`), in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// CPU time (user + system) this process has used so far, all threads,
/// including ones that already exited. `/proc/self/stat` counts in 10 ms
/// ticks, so callers measure intervals of seconds.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. index 11 and 12 after ")".
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// CPU time the calling thread has used so far, to the nanosecond
/// (`/proc/thread-self/schedstat`); the single-threaded hosts time their
/// episodes with it. Falls back to [`process_cpu`] where the kernel does
/// not keep scheduler statistics.
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or_else(process_cpu, Duration::from_nanos)
}

/// Nearest-rank quantile of an unsorted sample; sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Smallest of the samples; 0 if there are none.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median with the middle pair averaged, as Python's `statistics.median`.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the acceptance spread uses.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        samples[j - 1] + (samples[j] - samples[j - 1]) * delta
    };
    (at(1), at(3))
}

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `buf` from `rng` (the vendored `rand` has no `fill_bytes`).
pub fn fill_bytes(rng: &mut impl rand::RngCore, buf: &mut [u8]) {
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Fisher-Yates shuffle (the vendored `rand` has no `SliceRandom`).
pub fn shuffle<T>(rng: &mut impl rand::Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// FNV-1a over an overlay's sorted edge list: two runs that print the same
/// hash ran on the same topology.
pub fn edge_hash(graph: &overlay::Graph) -> u64 {
    let mut edges: Vec<(usize, usize)> = graph.edges().collect();
    edges.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b) in edges {
        for byte in (a as u32)
            .to_le_bytes()
            .into_iter()
            .chain((b as u32).to_le_bytes())
        {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        assert_eq!(median(&mut v), 5.5);
    }

    #[test]
    fn cpu_and_rss_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(mix(1, 2));
        }
        assert!(process_cpu() >= Duration::from_millis(10));
        assert!(thread_cpu() >= Duration::from_millis(10));
    }
}
