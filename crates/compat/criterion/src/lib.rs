//! Offline stand-in for the `criterion` crate.
//!
//! A minimal wall-clock harness exposing the API surface the `benches/`
//! targets use: `Criterion::benchmark_group`, `sample_size`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`, and
//! the `criterion_group!`/`criterion_main!` macros. Each benchmark runs a
//! single timing sample per registered sample so that `cargo test` (which
//! executes `harness = false` bench targets) stays fast; statistical rigor is
//! out of scope for the offline environment.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier combining a function name and a parameter, e.g. `spa/1024`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// Runs the measured closure and records elapsed time.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        let out = f();
        self.samples.push(start.elapsed());
        drop(out);
    }
}

pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timing samples per benchmark (criterion's default is 100;
    /// the shim honors the setting but callers in-tree always lower it).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
        };
        // One warm-up plus `sample_size` measured samples, all delegated to
        // the closure's own `iter` calls.
        for _ in 0..self.sample_size.min(3) {
            f(&mut bencher);
        }
        let label = format!("{}/{}", self.name, id.label);
        self.criterion.report(&label, &bencher.samples);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = self.name.clone();
        let label = format!("{}/{}", name, id.label);
        let mut bencher = Bencher {
            samples: Vec::new(),
        };
        for _ in 0..self.sample_size.min(3) {
            f(&mut bencher, input);
        }
        self.criterion.report(&label, &bencher.samples);
        self
    }

    pub fn finish(&mut self) {}
}

#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 3,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("bench");
        group.bench_function(name, f);
        self
    }

    fn report(&mut self, label: &str, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{label:<48} (no samples)");
            return;
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = samples.iter().min().unwrap();
        println!(
            "{label:<48} mean {mean:>12?}  min {min:>12?}  ({} samples)",
            samples.len()
        );
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_benchmarks_and_records_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        group.sample_size(2);
        let mut runs = 0usize;
        group.bench_with_input(BenchmarkId::new("f", 7), &7usize, |b, &x| {
            b.iter(|| x * 2);
            runs += 1;
        });
        group.finish();
        assert!(runs >= 1);
    }

    #[test]
    fn benchmark_id_formats_function_and_parameter() {
        let id = BenchmarkId::new("spa", 1024);
        assert_eq!(id.label, "spa/1024");
    }
}
