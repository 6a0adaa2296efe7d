//! Sample statistics: the median and supported tail percentile of one run's
//! latency samples, the quartile spread of a metric across runs, the
//! regression verdict `--compare` prints, and a least-squares slope.

/// Samples that must lie beyond a tail percentile before it may be named.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, when reporting the highest one a
/// sample supports.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` (to a tenth) in `n` sorted
/// samples, in integer arithmetic so 99.9 of 10,000 is exactly rank 9,990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median: the middle value, or the mean of the two middle values (as
/// Python's `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A named tail percentile (p90, p99, …), refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn named_tail(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let past = beyond(n, p);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {past}"
        ));
    }
    Ok(sorted(samples)[rank(n, p) - 1])
}

/// One run's latency samples, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The highest percentile of [`TAILS`] with [`MIN_BEYOND`] samples
    /// beyond it, as `(percentile, value)`; `None` when the sample is too
    /// small for any.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let tail = TAILS
        .iter()
        .find_map(|&p| named_tail(samples, p).ok().map(|v| (p, v)));
    Some(Summary {
        n: samples.len(),
        median: median(samples),
        tail,
    })
}

/// First, second and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance as a share of the median: the run-to-run spread a
/// metric's bound must exceed.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    /// The run-to-run spread exceeds the bound, so a regression within it
    /// could not be seen.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How much worse `change` reads than `parent`, as a share of `parent`
/// (negative when better).
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        return if delta > 0.0 {
            f64::INFINITY
        } else if delta < 0.0 {
            f64::NEG_INFINITY
        } else {
            0.0
        };
    }
    delta / parent.abs()
}

/// The verdict for one metric on one workload, from the parent's runs and
/// the change's runs, with `bound` the share of the parent median by which
/// the change may read worse.
///
/// - unresolved: with `check_spread`, either side's spread exceeds the
///   bound, unless every change run reads better than every parent run
///   (set-up time is judged on its medians alone, so callers pass `false`
///   for it);
/// - regressed: the change median is worse than the parent median by more
///   than the bound;
/// - improved: the change median is better by more than the parent's
///   interquartile distance, and the change wins at least nine tenths of the
///   run pairs (runs paired in order, ties counting for neither);
/// - no-worse: otherwise.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    check_spread: bool,
) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    let too_wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if check_spread && (too_wide(parent) || too_wide(change)) && !all_better {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (median(parent), median(change));
    if worsening(pm, cm, better) > bound {
        return Verdict::Regressed;
    }
    let iqr = quartiles(parent).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    if better.beats(cm, pm) && (cm - pm).abs() > iqr && wins * 10 >= pairs * 9 {
        return Verdict::Improved;
    }
    Verdict::NoWorse
}

/// Least-squares slope of `ys` against `xs`; `None` when `xs` has no spread.
pub fn slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return None;
    }
    let (mx, my) = (mean(&xs[..n]), mean(&ys[..n]));
    let sxx: f64 = xs[..n].iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs[..n]
        .iter()
        .zip(&ys[..n])
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&ramp(100)).expect("non-empty");
        assert_eq!((s.n, s.median), (100, 50.5));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
        assert_eq!(
            summarize(&ramp(100)).and_then(|s| s.tail),
            Some((90.0, 90.0))
        );
        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        assert_eq!(
            summarize(&ramp(1000)).and_then(|s| s.tail),
            Some((99.0, 990.0))
        );
        assert_eq!(
            summarize(&ramp(10_000)).and_then(|s| s.tail),
            Some((99.9, 9990.0))
        );
        // 40 samples: p75 leaves 10; 39 leave 9, so nothing is supported.
        assert_eq!(
            summarize(&ramp(40)).and_then(|s| s.tail),
            Some((75.0, 30.0))
        );
        assert_eq!(summarize(&ramp(39)).and_then(|s| s.tail), None);
    }

    #[test]
    fn named_tails_are_refused_when_the_sample_cannot_support_them() {
        assert!(named_tail(&ramp(999), 99.0).is_err());
        assert_eq!(named_tail(&ramp(1000), 99.0), Ok(990.0));
        assert!(named_tail(&ramp(99), 90.0).is_err());
        assert_eq!(named_tail(&ramp(100), 90.0), Ok(90.0));
        assert!(named_tail(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ramp(10)), Some(5.5 / 5.5));
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let shift = |k: f64| parent.iter().map(|v| v * k).collect::<Vec<_>>();
        let lower = Better::Lower;
        assert_eq!(
            verdict(&parent, &shift(1.05), lower, 0.10, true),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &shift(1.20), lower, 0.10, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &shift(0.80), lower, 0.10, true),
            Verdict::Improved
        );
        // The same shift is a regression when higher is better.
        assert_eq!(
            verdict(&parent, &shift(0.80), Better::Higher, 0.10, true),
            Verdict::Regressed
        );
        // A change whose spread exceeds the bound cannot be judged...
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0,
        ];
        assert_eq!(
            verdict(&parent, &noisy, lower, 0.10, true),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let wide_but_better = [10.0, 50.0, 20.0, 40.0, 30.0, 30.0, 25.0, 35.0, 15.0, 45.0];
        assert_eq!(
            verdict(&parent, &wide_but_better, lower, 0.10, true),
            Verdict::Improved
        );
        // Better median but not by more than the parent's own spread.
        assert_eq!(
            verdict(&parent, &shift(0.999), lower, 0.10, true),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &[], lower, 0.10, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worsening_is_relative_and_signed() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        assert_eq!(slope(&xs, &ys), Some(3.0));
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(slope(&[1.0], &[2.0]), None);
    }
}
