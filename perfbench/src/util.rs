//! Small shared pieces: a seeded PRNG, order statistics, the result
//! line, and the peak-RSS probe.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable, dependency-free generator. The workload
/// inputs are derived from it alone, so one seed gives one input set.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Print repeated timings (seconds) of one action on stderr, in ms.
pub fn report_repeats(name: &str, secs: &[f64]) {
    let mut ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let list: Vec<String> = ms.iter().map(|m| format!("{m:.2}")).collect();
    eprintln!("{name}: {} repetitions, ms: {}", ms.len(), list.join(" "));
}

/// Linear-interpolated quantile, `q` in `[0, 1]` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// `None` when fewer than eleven samples exist.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    })
}

/// The tail of each consecutive `window` samples (in arrival order),
/// lowest over the windows. Contention from other tenants of the host
/// comes in spells that stall a dozen requests at a time in some
/// windows and not others, which is enough to move a window's tail; a
/// change to the program moves every window, the calmest one too.
/// Falls back to [`tail`] over all samples when there is not one full
/// window.
pub fn window_tail(values: &[f64], window: usize) -> Option<Tail> {
    let tails: Vec<Tail> = values.chunks_exact(window).filter_map(tail).collect();
    let Some(first) = tails.first() else {
        return tail(values);
    };
    Some(Tail {
        value: tails.iter().map(|t| t.value).fold(f64::INFINITY, f64::min),
        percentile: first.percentile,
        samples: values.len(),
    })
}

/// The median of each consecutive `block` samples, lower quartile over
/// the blocks: a spell of contention moves a median less than a tail,
/// so a quartile suffices. Falls back to the median of all samples
/// when there is not one full block.
pub fn block_median(values: &[f64], block: usize) -> f64 {
    let medians: Vec<f64> = values.chunks_exact(block).map(median).collect();
    if medians.is_empty() {
        return median(values);
    }
    quantile(&medians, 0.25)
}

/// Requests per second of each consecutive `window` latencies (a
/// closed loop's time in flight), upper quartile over the windows, for
/// the same reason as [`window_tail`].
pub fn window_rate(latencies_ms: &[f64], window: usize) -> f64 {
    let rates: Vec<f64> = latencies_ms
        .chunks_exact(window)
        .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    if rates.is_empty() {
        return latencies_ms.len() as f64 / (latencies_ms.iter().sum::<f64>() / 1e3);
    }
    quantile(&rates, 0.75)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds between two instants (0 if `b` precedes `a`).
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    ms(b.saturating_duration_since(a))
}

/// Sleep until `due`, returning how late the wake-up was. No spinning:
/// the generator shares the machine with the system under test.
pub fn sleep_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        std::thread::sleep(due - now);
    }
}

/// Named metrics with units, printed as the result line.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }

    /// The one-line JSON result.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Whose peak resident set to report.
#[derive(Clone, Copy)]
pub enum Who {
    /// This process.
    Myself,
    /// The largest of this process's terminated, waited-for children.
    Children,
}

/// Peak resident set size in MiB (the kernel's `ru_maxrss`, which is
/// the same high-water mark `/proc` reports as `VmHWM`).
pub fn peak_rss_mb(who: Who) -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let flag = match who {
        Who::Myself => 0,
        Who::Children => -1,
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the Linux
    // layout (two `timeval`s then fourteen `long`s), and `flag` is one
    // of the two `who` values the call accepts.
    let rc = unsafe { getrusage(flag, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn window_tail_is_the_lowest_window() {
        let mut v: Vec<f64> = Vec::new();
        for w in [3, 1, 4, 2, 5] {
            v.extend((1..=100).map(|x| f64::from(x) + f64::from(w) * 1000.0));
        }
        let t = window_tail(&v, 100).unwrap();
        assert_eq!(t.value, 1090.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 500);
    }

    #[test]
    fn block_median_is_the_lower_quartile_block() {
        let v: Vec<f64> = (0..5)
            .flat_map(|b| [1.0, 2.0, 3.0].map(|x| x + f64::from(b) * 10.0))
            .collect();
        assert_eq!(block_median(&v, 3), 12.0);
        assert_eq!(block_median(&v[..2], 3), 1.5);
    }

    #[test]
    fn rng_repeats() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
    }
}
