//! Metric math: percentiles with their sample counts, ratios with their
//! bases, span self time, and failure fractions.

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. `0.99`.
    pub q: f64,
    /// The sample at rank `ceil(q * samples)`.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Percentile {
    /// Conventional name: `p50`, `p99`, `p999`.
    pub fn name(&self) -> String {
        let per_mille = (self.q * 1000.0).round() as u32;
        if per_mille.is_multiple_of(10) {
            format!("p{}", per_mille / 10)
        } else {
            format!("p{per_mille}")
        }
    }
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps float products like 0.9 * 100 from rounding up a rank.
    let rank = ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(Percentile {
        q,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99.9, p99 and p90 with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it; `None` when even p90 lacks them.
pub fn tail(samples: &[f64]) -> Option<Percentile> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .filter_map(|q| percentile(samples, q))
        .find(|p| p.beyond >= TAIL_MIN_BEYOND)
}

/// `q` only if it qualifies as a tail under the ten-beyond rule.
pub fn tail_at(samples: &[f64], q: f64) -> Option<Percentile> {
    percentile(samples, q).filter(|p| p.beyond >= TAIL_MIN_BEYOND)
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A ratio that never loses its denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Useful outcomes.
    pub num: u64,
    /// Attempts the outcomes are counted against.
    pub base: u64,
}

impl Ratio {
    /// `num / base`, or 0 for an empty base.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.num as f64 / self.base as f64
        }
    }

    /// `"0.2500 (3/12)"`.
    pub fn describe(self) -> String {
        format!("{:.4} ({}/{})", self.value(), self.num, self.base)
    }
}

/// Ops attempted and failed. Errors, refusals, timeouts and wrong outputs
/// all count as failed; the fraction is taken over attempts, so an op that
/// never completes still weighs in the denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that did not complete with a correct output.
    pub failed: u64,
}

impl Tally {
    /// Record one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// `failed / attempted` (the base is every attempt).
    pub fn failed_frac(self) -> Ratio {
        Ratio {
            num: self.failed,
            base: self.attempted,
        }
    }
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// covered by `children`. Children are clipped to the span and may overlap
/// one another (spans from several threads), so the covered part is their
/// union, not their sum.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    if e <= s {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.max(s), ce.min(e)))
        .filter(|(cs, ce)| ce > cs)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (cs, ce) in clipped {
        cur = match cur {
            Some((a, b)) if cs <= b => Some((a, b.max(ce))),
            Some((a, b)) => {
                covered += b - a;
                Some((cs, ce))
            }
            None => Some((cs, ce)),
        };
    }
    if let Some((a, b)) = cur {
        covered += b - a;
    }
    (e - s) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_samples_and_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&xs, 0.5).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (50.0, 100, 50));
        let p = percentile(&xs, 0.99).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (99.0, 100, 1));
        assert_eq!(p.name(), "p99");
        assert_eq!(percentile(&xs, 0.999).unwrap().name(), "p999");
        assert_eq!(percentile(&xs, 0.5).unwrap().name(), "p50");
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn tail_obeys_the_ten_beyond_rule() {
        // 100 samples: p99 has 1 beyond, p90 has exactly 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.q, t.beyond), (0.9, 10));
        assert!(tail_at(&xs, 0.99).is_none());
        // 1000 samples: p99 qualifies (10 beyond), p99.9 does not (1).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.99, 990.0, 10));
        // Too few samples for any tail.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(tail(&xs).is_none());
        for n in [100usize, 137, 1000, 2500, 20000] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(tail(&xs).unwrap().beyond >= TAIL_MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn ratio_carries_its_base() {
        let r = Ratio { num: 26, base: 504 };
        assert!((r.value() - 26.0 / 504.0).abs() < 1e-15);
        assert_eq!(r.describe(), "0.0516 (26/504)");
        assert_eq!(Ratio::default().value(), 0.0);
    }

    #[test]
    fn failed_frac_is_over_attempts_not_completions() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        // 3 completed, 1 failed: the fraction is 1/4, never 1/3.
        assert_eq!(t.failed_frac(), Ratio { num: 1, base: 4 });
        assert_eq!(t.failed_frac().value(), 0.25);
        let mut all = Tally::default();
        all.absorb(t);
        all.absorb(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(all.failed_frac().value(), 0.125);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Two threads' children overlap: the union covers 10..60.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 60)]), 50);
        // Nested and duplicate children count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30), (10, 60)]), 50);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120)]), 70);
        // Fully covered.
        assert_eq!(self_time((0, 10), &[(0, 5), (4, 10)]), 0);
        // Outside children do not count.
        assert_eq!(self_time((0, 10), &[(20, 30)]), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
