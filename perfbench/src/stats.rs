//! Small statistics helpers and the result line.

use std::fmt::Write as _;

/// Stands for +∞ (a missed bug) in a count or a time: JSON has no infinity.
pub const MISS: f64 = 1e15;

/// One run's count or time, and whether the run missed its bug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The executions or seconds the run spent.
    pub value: f64,
    /// Whether the run ended without its bug: it ranks above every hit.
    pub miss: bool,
}

impl Sample {
    /// A run that reached its verdict after `value`.
    pub fn hit(value: f64) -> Sample {
        Sample { value, miss: false }
    }

    /// A hunt that spent `value` without finding its bug.
    pub fn miss(value: f64) -> Sample {
        Sample { value, miss: true }
    }
}

/// The Harrell–Davis estimate of the `q`-quantile (`0 < q < 1`): a weighted
/// mean of all order statistics with Beta(q(n+1), (1-q)(n+1)) weights.
///
/// Runs pool several bugs whose counts and times lie far apart, one run per
/// bug and seed, so a single order statistic (nearest rank) sits on the
/// border between two bugs and jumps between them from seed to seed; the
/// weighted mean moves smoothly instead. Misses rank above every hit and
/// count as +∞: when the nearest-rank quantile is a miss the result is
/// [`MISS`]; otherwise a miss among the weighted neighbours counts as what it
/// spent.
pub fn quantile(samples: &[Sample], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q < 1.0, "quantile level out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|x, y| x.miss.cmp(&y.miss).then(x.value.total_cmp(&y.value)));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if sorted[rank - 1].miss {
        return MISS;
    }
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, sample) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        estimate += (upto - below) * sample.value;
        below = upto;
    }
    estimate
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |sum, (i, c)| sum + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        d = if d.abs() < TINY { TINY } else { d };
        c = 1.0 + aa / c;
        c = if c.abs() < TINY { TINY } else { c };
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        d = if d.abs() < TINY { TINY } else { d };
        c = 1.0 + aa / c;
        c = if c.abs() < TINY { TINY } else { c };
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The median (lower middle value) of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// One reported metric.
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "metric values must be finite");
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// One aligned line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(values: &[f64]) -> Vec<Sample> {
        values.iter().map(|&v| Sample::hit(v)).collect()
    }

    #[test]
    fn harrell_davis_quantiles() {
        assert!((quantile(&hits(&[5.0; 7]), 0.5) - 5.0).abs() < 1e-9);
        assert!((quantile(&hits(&[3.0]), 0.9) - 3.0).abs() < 1e-9);
        // Symmetric samples: the median is the centre.
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((quantile(&hits(&values), 0.5) - 5.0).abs() < 1e-9);
        // The p90 lies between the two largest values of ten.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = quantile(&hits(&values), 0.9);
        assert!(p90 > 8.5 && p90 < 10.0, "{p90}");
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.5, 40.0, 40.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn misses_rank_above_every_hit() {
        let mut samples = hits(&[1.0, 2.0, 3.0]);
        samples.push(Sample::miss(2.0));
        assert_eq!(quantile(&samples, 0.9), MISS);
        // Below the misses the estimate stays finite.
        assert!(quantile(&samples, 0.5) < 3.0);
    }

    #[test]
    fn median_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_prints_every_digit() {
        let mut metrics = Metrics::default();
        metrics.push("wall_s", "s", 1.234_567_891);
        let line = metrics.result_line(3, 1);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567891, \"unit\": \"s\"}}}"
        );
    }
}
