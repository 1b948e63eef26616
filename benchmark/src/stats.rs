//! Measurement helpers: quantiles, batched timing, peak RSS, a seeded
//! generator, and the metric sheet the result line is printed from.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); sorts a
/// copy. Panics on an empty slice: every caller measures at least one
/// sample, and a silent zero would hide a broken workload.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` once and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Nanoseconds per call of an operation too fast to time one call at a
/// time: `pass` performs `calls_per_pass` calls; passes repeat until at
/// least `min` has elapsed, and the median pass sets the figure.
pub fn ns_per_call(calls_per_pass: usize, min: Duration, mut pass: impl FnMut()) -> f64 {
    assert!(calls_per_pass > 0, "a timed pass makes at least one call");
    let mut per_pass = Vec::new();
    let started = Instant::now();
    while per_pass.len() < 5 || started.elapsed() < min {
        let t = Instant::now();
        pass();
        per_pass.push(t.elapsed().as_nanos() as f64 / calls_per_pass as f64);
    }
    median(&per_pass)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// SplitMix64: the benchmark's own seeded generator, so the workload
/// order depends on `--seed` and on nothing in the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The metrics one run reports, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<(&'static str, f64, String)>,
}

impl Sheet {
    /// Records `name = value unit`. A name may be recorded once.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &str) {
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit.to_string()));
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `metrics` object of the result line, restricted to `names`
    /// in that order. Every name must have been recorded.
    pub fn to_json(&self, names: &[(String, String)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let (_, value, recorded_unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(recorded_unit, unit, "unit of {name}");
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            ));
        }
        out.push('}');
        out
    }
}

/// A JSON number with all the digits the value has (integers stay
/// integral).
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
