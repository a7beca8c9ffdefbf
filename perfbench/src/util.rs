//! Measurement helpers shared by the workloads: a seeded generator,
//! order statistics, FNV digests, and peak-RSS probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator for task permutations
/// and arrival schedules (the programs under test never see it).
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Folds `bytes` into an FNV-1a digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (`0` for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (`0` for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest percentile that still has at least ten samples beyond it.
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// Which percentile it is.
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The tail of `values`: the sample with exactly ten samples above it (the
/// maximum when there are ten or fewer samples).
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 100.0, samples: 0 };
    }
    let idx = if n > 10 { n - 11 } else { n - 1 };
    Tail { value: v[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, samples: n }
}

/// `num / den`, or `0` when nothing was attempted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The probe's time on the reference host, about what it takes on a 2-CPU
/// x86-64 VM in that host's usual (slower) state; times are reported at
/// this speed (see [`Speed`]).
pub const REFERENCE_PROBE_MS: f64 = 5.0;

/// Times one run of a fixed workload that belongs to the benchmark, not to
/// the programs under test: integer arithmetic mixed with allocation and
/// ordered-map churn, like the verifiers' own work.  In milliseconds.
pub fn probe_once_ms() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..20_000u64 {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
        map.insert(x % 4096, vec![x; 4]);
        if let Some(v) = map.get(&(x >> 52)) {
            x ^= v[0];
        }
    }
    black_box(&map);
    ms(start.elapsed())
}

/// The median of seven probe runs, in milliseconds.
pub fn host_probe_ms() -> f64 {
    median(&(0..7).map(|_| probe_once_ms()).collect::<Vec<_>>())
}

/// Set-up repetitions whose median is `setup_s`: at least this many...
const SETUP_MIN_REPS: usize = 3;
/// ...and more while they have taken under this long in all, so the median
/// of a cheap set-up is not a handful of timer readings, and the probes
/// between them are many...
const SETUP_MIN_S: f64 = 3.0;
/// ...but never more than this many.
const SETUP_MAX_REPS: usize = 2000;
/// A probe runs between set-up repetitions whenever this much set-up time
/// has passed since the last one.  The host's speed was seen to swing by a
/// quarter within a second, so set-up is scaled by probes spread through
/// it, not by probes at its ends.
const SETUP_PROBE_EVERY_S: f64 = 0.02;

/// Runs a workload's set-up `once(rep)` several times, as set out above, and
/// returns the seconds each repetition took, the host speed over them, and
/// the last repetition's result.  Every earlier result is handed to
/// `discard` (untimed) as soon as the next one is made.
pub fn repeat_setup<T>(
    mut once: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, Speed, T), String> {
    let mut probes_ms = vec![probe_once_ms()];
    let mut seconds: Vec<f64> = Vec::new();
    let mut since_probe = 0.0;
    let mut kept = None;
    while seconds.len() < SETUP_MIN_REPS
        || (seconds.iter().sum::<f64>() < SETUP_MIN_S && seconds.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let next = once(seconds.len())?;
        let took = start.elapsed().as_secs_f64();
        seconds.push(took);
        since_probe += took;
        if since_probe >= SETUP_PROBE_EVERY_S {
            probes_ms.push(probe_once_ms());
            since_probe = 0.0;
        }
        if let Some(earlier) = kept.replace(next) {
            discard(earlier)?;
        }
    }
    probes_ms.push(probe_once_ms());
    Ok((seconds, Speed { probes_ms }, kept.expect("at least one set-up ran")))
}

/// The host's speed over a stretch of a run, from probes taken around and
/// within it.  A shared VM can change speed by 2x within minutes (its other
/// tenants), which would swamp any change in the code, so CPU-bound times
/// are reported scaled to the reference host speed, with the raw times
/// printed beside them.
pub struct Speed {
    /// Probe times (ms) taken around and within the stretch.
    pub probes_ms: Vec<f64>,
}

impl Speed {
    /// The factor that turns a raw duration of this stretch into one at
    /// the reference speed.
    pub fn scale(&self) -> f64 {
        frac(REFERENCE_PROBE_MS, median(&self.probes_ms))
    }
}
