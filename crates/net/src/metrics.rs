//! Unified per-rank metrics registry (the `tsgemm-trace` substrate).
//!
//! Every algorithm layer historically grew its own ad-hoc stats struct
//! (`TsLocalStats`, `SummaStats`, `BfsIterStats`, …). This module gives them
//! one common shape: a [`MetricsRegistry`] of typed metrics keyed by
//! `(phase_tag, metric_name)`, where the phase tag is the same label the
//! collectives already carry (e.g. `"ts:bfetch"`), so measured communication
//! and algorithm counters land in the same namespace and can be asserted
//! against each other (see `tests/comm_volume.rs`).
//!
//! Three metric types with three merge laws:
//!
//! * **counter** — a monotone `u64`; merge = sum (bytes, flops, retries);
//! * **gauge** — an `f64` high-water mark; merge = max (peak memory, steps);
//! * **histogram** — power-of-two bucketed `u64` samples; merge =
//!   element-wise bucket sum (message sizes).
//!
//! All three merges are associative and commutative (property-tested in
//! `crates/net/tests/metrics_laws.rs`), which is what makes multi-rank
//! roll-ups independent of reduction order.

use crate::stats::RankProfile;
use std::collections::BTreeMap;

/// Number of power-of-two histogram buckets: bucket 0 holds the value 0,
/// bucket `k` holds values in `[2^(k-1), 2^k)`; `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Power-of-two histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` while empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[k]` counts samples with bit length `k` (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(u64::BITS - v.leading_zeros()) as usize] += 1;
    }

    /// Element-wise sum with `other` (associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean sample value; zero while empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0 < q <= 1`), clamped into `[min, max]`.
    ///
    /// Returns `None` on an empty histogram — an empty p99 has no value and
    /// silently reporting 0 would read as "all messages were tiny". On a
    /// singleton histogram every quantile is exactly the one sample (the
    /// clamp collapses the bucket range to `min == max`). The result is
    /// otherwise an upper bound with power-of-two resolution, which is what
    /// the bucketing can support.
    ///
    /// # Panics
    /// Panics if `q` is not in `(0, 1]` (a caller bug, not a data state).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                // Bucket k holds samples of bit length k: 0 for k = 0,
                // otherwise [2^(k-1), 2^k).
                let upper = match k {
                    0 => 0,
                    k if k >= 64 => u64::MAX,
                    k => (1u64 << k) - 1,
                };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        // Unreachable: bucket counts always sum to `count`.
        Some(self.max)
    }

    /// Median ([`Histogram::percentile`] at 0.5); `None` while empty.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.5)
    }

    /// 99th percentile ([`Histogram::percentile`] at 0.99); `None` while
    /// empty.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }
}

/// One typed metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone count; merge = sum.
    Counter(u64),
    /// High-water mark; merge = max.
    Gauge(f64),
    /// Bucketed samples; merge = element-wise sum. Boxed: the bucket array
    /// dwarfs the scalar variants, and registries are mostly scalars.
    Hist(Box<Histogram>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Hist(_) => "histogram",
        }
    }

    /// Merges `other` into `self` under the type's law.
    ///
    /// # Panics
    /// Panics if the two values are of different metric types: that means
    /// two call sites disagree about what `(phase, name)` is, which is a bug
    /// worth failing loudly on.
    pub fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
            (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
            (a, b) => panic!("metric type mismatch: {} vs {}", a.kind(), b.kind()),
        }
    }
}

/// The common shape of every stats producer: merge across ranks.
pub trait Metrics {
    /// Element-wise aggregation with another rank's (or step's) stats.
    /// Implementations must be total over every field — associative and
    /// commutative merges are what make fold order irrelevant.
    fn merge(&mut self, other: &Self);
}

/// A stats field that a `max` law lowers to a gauge (see
/// [`crate::stats_struct!`]).
pub trait Gauge: Copy {
    fn gauge(self) -> f64;
}

impl Gauge for u64 {
    fn gauge(self) -> f64 {
        self as f64
    }
}

impl Gauge for bool {
    fn gauge(self) -> f64 {
        u64::from(self) as f64
    }
}

/// Declares a stats struct from one field table: each field is listed once,
/// with the law that both its cross-rank merge and its registry lowering
/// follow.
///
/// * `sum` — merge adds; lowered as a counter (`u64` fields);
/// * `max` — merge keeps the larger (for a `bool`, `or`); lowered as a
///   gauge;
/// * `key("x")` — merge keeps the larger; not lowered as a metric, but
///   names the phase: `registry(phase)` records under `{phase}:x{key}`.
///
/// The macro emits the struct, `registry(&self, phase) -> MetricsRegistry`
/// and `impl Metrics { merge }`. A field without a law, or with an unknown
/// one, does not compile:
///
/// ```compile_fail
/// tsgemm_net::stats_struct! {
///     pub struct NoLaw {
///         pub flops: u64,
///     }
/// }
/// ```
///
/// ```
/// tsgemm_net::stats_struct! {
///     #[derive(Clone, Copy, Debug, Default)]
///     pub struct StepStats {
///         pub iter: usize => key("i"),
///         pub flops: u64 => sum,
///         pub steps: u64 => max,
///     }
/// }
/// let s = StepStats { iter: 2, flops: 5, steps: 3 };
/// assert_eq!(s.registry("run").counter("run:i2", "flops"), 5);
/// ```
#[macro_export]
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty => $law:ident $(($prefix:literal))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Lowers into the registry namespace under `phase`: `sum`
            /// fields become counters and `max` fields gauges, so registry
            /// merges agree with the struct's `merge`.
            pub fn registry(&self, phase: &str) -> $crate::MetricsRegistry {
                let phase = phase.to_string();
                $( let phase = $crate::stats_struct!(@phase phase, self.$field, $law $(($prefix))?); )*
                let mut m = $crate::MetricsRegistry::new();
                $( $crate::stats_struct!(@lower m, &phase, self.$field, $field, $law); )*
                m
            }
        }

        impl $crate::Metrics for $name {
            fn merge(&mut self, other: &Self) {
                $( $crate::stats_struct!(@merge self.$field, other.$field, $law); )*
            }
        }
    };
    (@phase $phase:ident, $v:expr, key($prefix:literal)) => { ::std::format!("{}:{}{}", $phase, $prefix, $v) };
    (@phase $phase:ident, $v:expr, sum) => { $phase };
    (@phase $phase:ident, $v:expr, max) => { $phase };
    (@lower $m:ident, $phase:expr, $v:expr, $field:ident, sum) => {
        $m.counter_add($phase, stringify!($field), $v)
    };
    (@lower $m:ident, $phase:expr, $v:expr, $field:ident, max) => {
        $m.gauge_max($phase, stringify!($field), $crate::metrics::Gauge::gauge($v))
    };
    (@lower $m:ident, $phase:expr, $v:expr, $field:ident, key) => {};
    (@merge $mine:expr, $theirs:expr, sum) => { $mine += $theirs };
    (@merge $mine:expr, $theirs:expr, max) => { $mine = ::std::cmp::Ord::max($mine, $theirs) };
    (@merge $mine:expr, $theirs:expr, key) => { $mine = ::std::cmp::Ord::max($mine, $theirs) };
}

/// Typed metrics keyed by `(phase_tag, metric_name)`.
///
/// Deterministically ordered (BTreeMap) so JSON output and table renderings
/// are stable across runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<(String, String), MetricValue>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `(phase, name)`, creating it at zero.
    pub fn counter_add(&mut self, phase: &str, name: &str, delta: u64) {
        match self
            .entries
            .entry((phase.to_string(), name.to_string()))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("metric {phase}/{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Raises the gauge `(phase, name)` to at least `v`.
    pub fn gauge_max(&mut self, phase: &str, name: &str, v: f64) {
        match self
            .entries
            .entry((phase.to_string(), name.to_string()))
            .or_insert(MetricValue::Gauge(f64::NEG_INFINITY))
        {
            MetricValue::Gauge(g) => *g = g.max(v),
            other => panic!("metric {phase}/{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records a sample into the histogram `(phase, name)`.
    pub fn observe(&mut self, phase: &str, name: &str, v: u64) {
        match self
            .entries
            .entry((phase.to_string(), name.to_string()))
            .or_insert_with(|| MetricValue::Hist(Box::default()))
        {
            MetricValue::Hist(h) => h.observe(v),
            other => panic!(
                "metric {phase}/{name} is a {}, not a histogram",
                other.kind()
            ),
        }
    }

    /// Counter value, zero when absent.
    pub fn counter(&self, phase: &str, name: &str) -> u64 {
        match self.get(phase, name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Gauge value, zero when absent.
    pub fn gauge(&self, phase: &str, name: &str) -> f64 {
        match self.get(phase, name) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// Histogram, if one was recorded.
    pub fn histogram(&self, phase: &str, name: &str) -> Option<&Histogram> {
        match self.get(phase, name) {
            Some(MetricValue::Hist(h)) => Some(h),
            _ => None,
        }
    }

    pub fn get(&self, phase: &str, name: &str) -> Option<&MetricValue> {
        self.entries.get(&(phase.to_string(), name.to_string()))
    }

    /// Sum of counter `name` over every phase whose tag starts with `prefix`.
    pub fn counter_sum_prefixed(&self, prefix: &str, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|((phase, n), _)| phase.starts_with(prefix) && n == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// All `(phase, name) -> value` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &MetricValue)> {
        self.entries.iter()
    }

    /// Distinct phase tags in deterministic order.
    pub fn phases(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (phase, _) in self.entries.keys() {
            if out.last() != Some(&phase.as_str()) {
                out.push(phase);
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lowers a rank's collective log into the registry namespace: per phase
    /// tag, counters `bytes_sent` / `bytes_recv` / `collectives` /
    /// `msgs_recv`, a `msg_bytes` histogram of per-destination payloads, and
    /// the flops of the compute segment leading into that collective
    /// (trailing compute lands under phase `"(tail)"`).
    pub fn from_profile(profile: &RankProfile) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for seg in &profile.segments {
            match &seg.coll {
                Some(c) => {
                    m.counter_add(&c.tag, "bytes_sent", c.bytes_sent());
                    m.counter_add(&c.tag, "bytes_recv", c.bytes_received);
                    m.counter_add(&c.tag, "collectives", 1);
                    m.counter_add(&c.tag, "msgs_recv", c.recv_msgs as u64);
                    if seg.flops > 0 {
                        m.counter_add(&c.tag, "flops", seg.flops);
                    }
                    for &(_, bytes) in &c.bytes_to {
                        m.observe(&c.tag, "msg_bytes", bytes);
                    }
                }
                None => {
                    if seg.flops > 0 {
                        m.counter_add("(tail)", "flops", seg.flops);
                    }
                }
            }
        }
        m
    }

    /// Renders as a JSON object nested by phase:
    /// `{"ts:bfetch": {"bytes_sent": {"type":"counter","value":N}, …}, …}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let mut last_phase: Option<&str> = None;
        for ((phase, name), value) in &self.entries {
            if last_phase != Some(phase.as_str()) {
                if last_phase.is_some() {
                    out.push_str("},");
                }
                out.push_str(&format!("{}:{{", json_string(phase)));
                last_phase = Some(phase);
            } else {
                out.push(',');
            }
            out.push_str(&format!("{}:", json_string(name)));
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{c}}}"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"type\":\"gauge\",\"value\":{}}}",
                        json_f64(*g)
                    ));
                }
                MetricValue::Hist(h) => {
                    // Percentiles are omitted (not rendered as 0) while
                    // empty, mirroring `Histogram::percentile`'s `None`.
                    match (h.p50(), h.p99()) {
                        (Some(p50), Some(p99)) => out.push_str(&format!(
                            "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\
                             \"max\":{},\"p50\":{p50},\"p99\":{p99}}}",
                            h.count, h.sum, h.min, h.max
                        )),
                        _ => out.push_str(&format!(
                            "{{\"type\":\"histogram\",\"count\":0,\"sum\":{},\"min\":0,\"max\":{}}}",
                            h.sum, h.max
                        )),
                    }
                }
            }
        }
        if last_phase.is_some() {
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl Metrics for MetricsRegistry {
    fn merge(&mut self, other: &Self) {
        for (key, value) in &other.entries {
            match self.entries.get_mut(key) {
                Some(mine) => mine.merge(value),
                None => {
                    self.entries.insert(key.clone(), value.clone());
                }
            }
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number rendering (JSON has no NaN/Infinity literals).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v == f64::INFINITY {
        "1e308".to_string()
    } else if v == f64::NEG_INFINITY {
        "-1e308".to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::stats_struct! {
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        struct LawStats {
            epoch: usize => key("e"),
            bytes: u64 => sum,
            peak: u64 => max,
            switched: bool => max,
        }
    }

    #[test]
    fn stats_struct_lowering_commutes_with_merge() {
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z % bound
        };
        for _ in 0..500 {
            let epoch = next(4) as usize;
            let mut stats = || LawStats {
                epoch,
                bytes: next(1 << 40),
                peak: next(1 << 40),
                switched: next(2) == 1,
            };
            let (a, b) = (stats(), stats());
            let mut ab = a;
            ab.merge(&b);
            assert_eq!(ab.bytes, a.bytes + b.bytes);
            assert_eq!(ab.peak, a.peak.max(b.peak));
            assert_eq!(ab.switched, a.switched || b.switched);
            let mut lowered = a.registry("law");
            lowered.merge(&b.registry("law"));
            assert_eq!(ab.registry("law"), lowered, "{a:?} ⊕ {b:?}");
            let phase = format!("law:e{epoch}");
            assert_eq!(lowered.counter(&phase, "bytes"), ab.bytes);
            assert_eq!(lowered.gauge(&phase, "peak"), ab.peak as f64);
            assert_eq!(lowered.gauge(&phase, "switched"), f64::from(ab.switched));
            assert_eq!(lowered.len(), 3, "the key field is not a metric");
        }
    }

    #[test]
    fn counters_sum_on_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("ts:bfetch", "bytes_sent", 100);
        let mut b = MetricsRegistry::new();
        b.counter_add("ts:bfetch", "bytes_sent", 50);
        b.counter_add("ts:cret", "bytes_sent", 7);
        a.merge(&b);
        assert_eq!(a.counter("ts:bfetch", "bytes_sent"), 150);
        assert_eq!(a.counter("ts:cret", "bytes_sent"), 7);
        assert_eq!(a.counter("ts:missing", "bytes_sent"), 0);
    }

    #[test]
    fn gauges_take_max() {
        let mut a = MetricsRegistry::new();
        a.gauge_max("ts", "peak_bytes", 10.0);
        a.gauge_max("ts", "peak_bytes", 4.0);
        let mut b = MetricsRegistry::new();
        b.gauge_max("ts", "peak_bytes", 7.0);
        a.merge(&b);
        assert_eq!(a.gauge("ts", "peak_bytes"), 10.0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[11], 1); // 1024
        assert!((h.mean() - 206.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_none_on_empty() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn percentile_exact_on_singleton() {
        for v in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let mut h = Histogram::default();
            h.observe(v);
            // A single sample is every quantile, exactly — the bucket upper
            // bound must clamp down to it.
            assert_eq!(h.percentile(0.01), Some(v), "v={v}");
            assert_eq!(h.p50(), Some(v), "v={v}");
            assert_eq!(h.p99(), Some(v), "v={v}");
        }
    }

    #[test]
    fn percentile_walks_buckets_and_clamps() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000] {
            h.observe(v);
        }
        // p50 (target = 2nd of 4 samples) lands in bucket [2, 4).
        assert_eq!(h.p50(), Some(3));
        // p99 (target = 4th sample) lands in the bucket of 1000, whose
        // upper bound 1023 clamps to the observed max.
        assert_eq!(h.p99(), Some(1000));
        assert_eq!(h.percentile(1.0), Some(1000));
        // Monotone in q, bounded by [min, max].
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let ps: Vec<u64> = qs.iter().map(|&q| h.percentile(q).unwrap()).collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{ps:?}");
        assert!(ps.iter().all(|&p| (h.min..=h.max).contains(&p)));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn percentile_rejects_bad_quantile() {
        let mut h = Histogram::default();
        h.observe(1);
        let _ = h.percentile(0.0);
    }

    #[test]
    fn percentiles_survive_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 1..=50u64 {
            a.observe(v);
        }
        for v in 51..=100u64 {
            b.observe(v);
        }
        a.merge(&b);
        // 100 samples 1..=100: p50 target is the 50th; bucket upper bound
        // of 50 (bit length 6) is 63.
        assert_eq!(a.p50(), Some(63));
        assert_eq!(a.p99(), Some(100)); // bucket [64,128) clamps to max
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut a = MetricValue::Counter(1);
        a.merge(&MetricValue::Gauge(2.0));
    }

    #[test]
    fn phases_and_prefix_sums() {
        let mut m = MetricsRegistry::new();
        m.counter_add("ts:bfetch", "bytes_sent", 5);
        m.counter_add("ts:cret", "bytes_sent", 3);
        m.counter_add("setup:colpart", "bytes_sent", 100);
        assert_eq!(m.phases(), vec!["setup:colpart", "ts:bfetch", "ts:cret"]);
        assert_eq!(m.counter_sum_prefixed("ts:", "bytes_sent"), 8);
        assert_eq!(m.counter_sum_prefixed("setup", "bytes_sent"), 100);
    }

    #[test]
    fn json_is_nested_by_phase() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", "x", 1);
        m.counter_add("a", "y", 2);
        m.gauge_max("b", "z", 1.5);
        let json = m.render_json();
        assert_eq!(
            json,
            "{\"a\":{\"x\":{\"type\":\"counter\",\"value\":1},\
             \"y\":{\"type\":\"counter\",\"value\":2}},\
             \"b\":{\"z\":{\"type\":\"gauge\",\"value\":1.5}}}"
        );
    }

    #[test]
    fn empty_registry_renders_empty_object() {
        assert_eq!(MetricsRegistry::new().render_json(), "{}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
    }
}
