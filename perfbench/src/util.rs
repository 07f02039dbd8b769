//! Shared helpers: seeding, summary statistics, digests, process memory,
//! and the Titan-like storage hierarchy every workload runs on.

use canopus::{Canopus, CanopusConfig};
use canopus_compress::Codec;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// splitmix64: derives independent per-timestep seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for request streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0, 1);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`); 0 for
/// an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Run `setup` `times` times (each result dropped before the next runs),
/// returning the last result and the median set-up seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Set-ups per run: several untraced, to report their median; one traced.
pub fn setups(trace: bool) -> usize {
    if trace {
        1
    } else {
        3
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A 64-bit digest of the exact bit patterns of a field (one multiply
/// per value, so hashing stays cheap beside the service): two fields agree
/// on it only if every value is bit-identical, barring a collision.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ values.len() as u64;
    for v in values {
        h = (h ^ v.to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h
}

/// Process high-water resident memory in MiB (`VmHWM`), or 0 where the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The engine every workload runs: `CanopusConfig::default()` on the
/// library's Titan two-tier preset. The tmpfs slice is a quarter of the
/// raw bytes the workload keeps resident (room for every compressed base,
/// never for the raw data), Lustre is effectively unbounded.
pub fn titan_engine(resident_raw_bytes: u64) -> Canopus {
    let raw = resident_raw_bytes.max(1 << 20);
    let hierarchy = StorageHierarchy::titan_two_tier(raw / 4, raw * 64);
    Canopus::new(Arc::new(hierarchy), CanopusConfig::default())
}

/// Whether an L0 restore matches the original field within the default
/// codec's bound for its range, accumulated once per level of the delta
/// chain.
pub fn restores_original(restored: &[f64], original: &[f64], levels: u32) -> bool {
    let range = canopus_mesh::FieldStats::of(original).range();
    let codec = CanopusConfig::default().codec.resolve(range).build();
    let bound = codec.error_bound() * levels.max(1) as f64 * (1.0 + 1e-9);
    restored.len() == original.len()
        && restored
            .iter()
            .zip(original)
            .all(|(a, b)| (a - b).abs() <= bound)
}

/// Sleep until `due`, spinning through the last stretch so an open-loop
/// generator issues on time without burning a core between requests.
pub fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}
