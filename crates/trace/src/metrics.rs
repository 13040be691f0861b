//! Serve-loop metrics: log-bucketed latency histograms, served/failed
//! counters, and per-rank resident-memory gauges.
//!
//! The registry is the *only* place metric counters mutate — an `xtask
//! lint` rule pins mutation of the counter fields to this file, the
//! same discipline the runtime applies to its §IV `CommStats` fields.
//! Everything a consumer sees is an immutable [`MetricsSnapshot`].
//!
//! [`Histogram`] is a fixed 64-bucket power-of-two layout (bucket `i`
//! holds values in `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds zero):
//! constant memory, O(1) record, exact merge by element-wise addition —
//! so per-rank histograms can cross the wire and sum on rank 0 without
//! approximation beyond the bucketing itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of histogram buckets (one per power of two of `u64`).
pub const HIST_BUCKETS: usize = 64;

/// A fixed-allocation, mergeable latency histogram with power-of-two
/// nanosecond buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` tallies values in `[2^(i-1), 2^i)`; `counts[0]`
    /// tallies exact zeros; the last bucket absorbs everything from
    /// `2^62` up.
    pub counts: [u64; HIST_BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating), for the mean.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: 0 for 0, else
    /// `floor(log2(v)) + 1`, clamped to the last bucket.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (the value reported for
    /// quantiles that resolve to it).
    fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HIST_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold another histogram in: element-wise (saturating) addition —
    /// exact, order-independent, the reduction per-rank histograms use
    /// on rank 0.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 if empty). Resolution is the bucket width — a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Live metrics for one serving world, held behind the runtime's
/// `WorldHandle` and observed by the resident solve path. All interior
/// mutability — callers share it by `Arc`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    solves_served: AtomicU64,
    solves_failed: AtomicU64,
    latency: Mutex<Histogram>,
    resident_bytes: Mutex<Vec<u64>>,
}

impl MetricsRegistry {
    /// A fresh registry with zeroed counters and no gauges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one solve: its wall-clock latency and whether it
    /// succeeded. Failed solves count but do not pollute the latency
    /// distribution (a timeout's latency is the timeout, not a signal).
    pub fn observe_solve(&self, latency_ns: u64, ok: bool) {
        if ok {
            self.solves_served.fetch_add(1, Ordering::Relaxed);
            self.latency
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(latency_ns);
        } else {
            self.solves_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set the per-rank resident factor-memory gauges (bytes).
    pub fn set_resident_bytes(&self, bytes_per_rank: &[usize]) {
        *self
            .resident_bytes
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            bytes_per_rank.iter().map(|&b| b as u64).collect();
    }

    /// A consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            solves_served: self.solves_served.load(Ordering::Relaxed),
            solves_failed: self.solves_failed.load(Ordering::Relaxed),
            latency: self
                .latency
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            resident_bytes_per_rank: self
                .resident_bytes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`] — plain data, safe to
/// hold across solves or print.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Solves that completed successfully.
    pub solves_served: u64,
    /// Solves that failed (rank failure, poisoned service).
    pub solves_failed: u64,
    /// Per-solve latency distribution (nanoseconds), successes only.
    pub latency: Histogram,
    /// Resident factor bytes held by each rank (gauge).
    pub resident_bytes_per_rank: Vec<u64>,
}

impl MetricsSnapshot {
    /// Render the snapshot as a small plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "solves: {} served, {} failed\n",
            self.solves_served, self.solves_failed
        ));
        if self.latency.count > 0 {
            out.push_str(&format!(
                "latency: mean {:.3} ms, p50 <= {:.3} ms, p99 <= {:.3} ms\n",
                self.latency.mean() / 1e6,
                self.latency.quantile(0.5) as f64 / 1e6,
                self.latency.quantile(0.99) as f64 / 1e6,
            ));
        }
        if !self.resident_bytes_per_rank.is_empty() {
            out.push_str("resident factor bytes per rank:\n");
            for (r, b) in self.resident_bytes_per_rank.iter().enumerate() {
                out.push_str(&format!("  rank {r}: {b}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        // Powers of two open a new bucket; one less stays below.
        for i in 1..63usize {
            let p = 1u64 << i;
            assert_eq!(Histogram::bucket_of(p), (i + 1).min(HIST_BUCKETS - 1));
            assert_eq!(Histogram::bucket_of(p - 1), i);
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Bounds are inclusive tops of their buckets.
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 1);
        assert_eq!(Histogram::bucket_bound(10), 1023);
        assert_eq!(Histogram::bucket_bound(HIST_BUCKETS - 1), u64::MAX);
        // Every value is <= the bound of its own bucket.
        for v in [0u64, 1, 2, 3, 1000, 1 << 20, u64::MAX] {
            assert!(v <= Histogram::bucket_bound(Histogram::bucket_of(v)));
        }
    }

    #[test]
    fn merge_is_elementwise_and_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 5, 1000, 1 << 30] {
            a.record(v);
        }
        for v in [0u64, 5, 7, 1 << 40] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 8);
        assert_eq!(merged.sum, a.sum + b.sum);
        let mut both = Histogram::new();
        for v in [1u64, 5, 1000, 1 << 30, 0, 5, 7, 1 << 40] {
            both.record(v);
        }
        assert_eq!(merged, both);
        // Merge order does not matter.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn quantiles_and_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        for _ in 0..99 {
            h.record(100); // bucket 7, bound 127
        }
        h.record(1 << 20); // bucket 21
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), (1 << 21) - 1);
        assert!((h.mean() - (99.0 * 100.0 + (1u64 << 20) as f64) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn registry_snapshot() {
        let reg = MetricsRegistry::new();
        reg.observe_solve(1_000_000, true);
        reg.observe_solve(2_000_000, true);
        reg.observe_solve(500, false);
        reg.set_resident_bytes(&[10, 20, 30, 40]);
        let snap = reg.snapshot();
        assert_eq!(snap.solves_served, 2);
        assert_eq!(snap.solves_failed, 1);
        // Failures do not enter the latency distribution.
        assert_eq!(snap.latency.count, 2);
        assert_eq!(snap.resident_bytes_per_rank, vec![10, 20, 30, 40]);
        let text = snap.render();
        assert!(text.contains("2 served, 1 failed"));
        assert!(text.contains("rank 3: 40"));
    }
}
