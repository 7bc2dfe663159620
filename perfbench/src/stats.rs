//! Order statistics, process memory, hashing and the result line.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
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
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the highest percentile that has at least ten samples
/// beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The tail of `values`: the 11th-largest sample, which is the nearest-rank
/// percentile `100·(n−10)/n`. With ten samples or fewer no percentile has ten
/// beyond it, and the median is reported instead.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = if n > 10 { n - 10 } else { n.div_ceil(2) };
    Tail {
        percentile: if n > 10 {
            100.0 * rank as f64 / n as f64
        } else {
            50.0
        },
        value: v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0),
        beyond: n - rank,
        samples: n,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a, a stable hash for rendered equations and reports.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: derives independent seeds from `(seed, stream)`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded stream for shuffles and draws.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0, 1);
        self.0
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust prints (non-finite → 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 50.0);
        assert_eq!(tail(&few).value, 3.0);
        let t = tail(&(1..=41).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (31.0, 10));
    }

    #[test]
    fn permutations_are_seeded() {
        let a = Rng::new(7, 1).permutation(20);
        let b = Rng::new(7, 1).permutation(20);
        let c = Rng::new(8, 1).permutation(20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
