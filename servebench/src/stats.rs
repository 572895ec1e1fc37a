//! Latency statistics: the percentile rule, sample counts, and failures
//! counted against attempts. Only the timed window's requests reach
//! these: warm-up runs as separate phases (see `drive`).

/// Tail percentiles to try, highest first. The tail metric reports the
/// first one that leaves at least [`MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` if even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| (n as f64 * (100.0 - p) / 100.0).floor() as usize >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank; 0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Median and tail of a latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the figures rest on.
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually reported (see [`tail_percentile`]).
    pub tail_p: f64,
    pub tail: f64,
}

impl Latency {
    /// Summarizes `sample`; `None` if it is too small for any tail.
    pub fn of(sample: &[f64]) -> Option<Self> {
        let tail_p = tail_percentile(sample.len())?;
        let mut v = sample.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Self {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail_p,
            tail: percentile_sorted(&v, tail_p),
        })
    }
}

/// End-to-end figures of a timed window cut into equal segments by
/// request start. `qps` and `p50` are medians of the per-segment values,
/// so interference confined to one segment does not move them; the tail
/// is the median of the segments' tails when every segment supports the
/// top of [`TAIL_LADDER`] on its own, else the whole window's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segmented {
    pub qps: f64,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    /// Latency samples over the whole window.
    pub n: usize,
}

impl Segmented {
    /// `samples` are `(start offset in s, latency)` of the window's
    /// completed requests; `None` if they support no tail percentile.
    pub fn of(samples: &[(f64, f64)], length_s: f64, segments: usize) -> Option<Self> {
        let whole = Latency::of(&samples.iter().map(|s| s.1).collect::<Vec<_>>())?;
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); segments];
        for &(t, lat) in samples {
            let i = ((t / length_s * segments as f64) as usize).min(segments - 1);
            parts[i].push(lat);
        }
        let seg_s = length_s / segments as f64;
        let qps: Vec<f64> = parts.iter().map(|p| p.len() as f64 / seg_s).collect();
        let lats: Vec<Option<Latency>> = parts.iter().map(|p| Latency::of(p)).collect();
        let p50s: Vec<f64> = lats.iter().flatten().map(|l| l.p50).collect();
        let top = TAIL_LADDER[0];
        let (tail_p, tail) = if lats.iter().all(|l| l.is_some_and(|l| l.tail_p == top)) {
            let tails: Vec<f64> = lats.iter().flatten().map(|l| l.tail).collect();
            (top, median(&tails))
        } else {
            (whole.tail_p, whole.tail)
        };
        Some(Self {
            qps: median(&qps),
            p50: if p50s.len() == segments {
                median(&p50s)
            } else {
                whole.p50
            },
            tail_p,
            tail,
            n: whole.n,
        })
    }
}

/// Attempts and failures. A failed request (error reply, I/O error or
/// wrong answer) is an attempt that missed every latency limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_reports_its_sample_and_tail_rule() {
        let sample: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let l = Latency::of(&sample).expect("big enough");
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 1000.0);
        assert_eq!(l.tail_p, 99.0);
        assert_eq!(l.tail, 1980.0);
        assert!(Latency::of(&sample[..19]).is_none());
        assert_eq!(Latency::of(&sample[..150]).expect("some tail").tail_p, 90.0);
    }

    #[test]
    fn segments_take_medians_and_shrug_off_one_bad_segment() {
        // Five 1 s segments of 2000 requests at 1 ms, but one at 50 ms.
        let mut samples = Vec::new();
        for seg in 0..5 {
            let lat = if seg == 2 { 50.0 } else { 1.0 };
            for i in 0..2000 {
                samples.push((seg as f64 + i as f64 / 2000.0, lat));
            }
        }
        let s = Segmented::of(&samples, 5.0, 5).expect("enough samples");
        assert_eq!(
            (s.qps, s.p50, s.tail_p, s.tail, s.n),
            (2000.0, 1.0, 99.0, 1.0, 10_000)
        );
        // Too few per segment for p99: the whole window's tail is used.
        let thin: Vec<(f64, f64)> = (0..1500).map(|i| (i as f64 / 300.0, i as f64)).collect();
        let s = Segmented::of(&thin, 5.0, 5).expect("enough samples");
        assert_eq!((s.tail_p, s.tail), (99.0, 1484.0));
        assert_eq!(s.qps, 300.0);
        assert!(Segmented::of(&thin[..15], 5.0, 5).is_none());
    }

    #[test]
    fn failures_count_against_attempts() {
        let t = Tally {
            attempted: 400,
            failed: 3,
        };
        assert_eq!(t.fail_frac(), 0.0075);
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }
}
