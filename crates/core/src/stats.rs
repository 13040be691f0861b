//! Factorization statistics: skeleton ranks per level (Figure 9 of the
//! paper), timing breakdowns (`tcomp`/`tother`), and memory footprint.

use std::collections::BTreeMap;

/// Counters describing how the randomized compression behaved — per box
/// from `skeletonize`, accumulated per factorization (and per rank over
/// the wire) into [`FactorStats::compression`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionTelemetry {
    /// Sketch attempts rejected by the a-posteriori verification and
    /// retried with a doubled sketch.
    pub sketch_retries: u64,
    /// Boxes that exhausted the sketch budget and fell back to the full
    /// deterministic CPQR.
    pub sketch_fallbacks: u64,
    /// Always 0: it counted blocks applied to the sketch by FFT
    /// convolution, a route the sketch no longer has (`skeletonize`
    /// module docs). Kept only because `benchmark/src/adapter.rs` and
    /// `benchmark/tests/smoke.rs` read it; it is neither accumulated nor
    /// sent over the wire.
    pub fft_block_applies: u64,
    /// Ring/proxy blocks applied to the sketch as dense GEMMs.
    pub dense_block_applies: u64,
}

impl CompressionTelemetry {
    /// Fold another telemetry record (a box, or a whole rank) into this one.
    pub fn absorb(&mut self, other: &CompressionTelemetry) {
        self.sketch_retries += other.sketch_retries;
        self.sketch_fallbacks += other.sketch_fallbacks;
        self.dense_block_applies += other.dense_block_applies;
    }
}

/// Statistics collected while building a factorization.
#[derive(Clone, Debug, Default)]
pub struct FactorStats {
    /// Problem size `N`.
    pub n: usize,
    /// Leaf level of the quad-tree.
    pub leaf_level: u8,
    /// Per-level `(boxes skeletonized, sum of skeleton ranks)`.
    pub ranks: BTreeMap<u8, (usize, usize)>,
    /// Seconds spent in per-box elimination (ID + Schur updates).
    pub eliminate_s: f64,
    /// Seconds spent in level transitions (merging/regrouping).
    pub merge_s: f64,
    /// Seconds spent on the dense top-level factorization.
    pub top_s: f64,
    /// Total wall time of the factorization.
    pub total_s: f64,
    /// Size of the final dense top block.
    pub top_size: usize,
    /// Approximate bytes held by the factorization records.
    pub record_bytes: usize,
    /// Peak bytes held by the modified-block store.
    pub peak_store_bytes: usize,
    /// Randomized-compression behavior (retries, fallbacks, sketch block
    /// applications).
    pub compression: CompressionTelemetry,
}

impl FactorStats {
    /// Fresh stats for a problem of size `n`.
    pub fn new(n: usize, leaf_level: u8) -> Self {
        Self {
            n,
            leaf_level,
            ..Self::default()
        }
    }

    /// Record one skeletonized box.
    pub fn add_rank(&mut self, level: u8, rank: usize) {
        let e = self.ranks.entry(level).or_insert((0, 0));
        e.0 += 1;
        e.1 += rank;
    }

    /// Average skeleton rank at a level (the quantity plotted in Fig. 9).
    pub fn avg_rank(&self, level: u8) -> Option<f64> {
        self.ranks
            .get(&level)
            .filter(|(count, _)| *count > 0)
            .map(|(count, sum)| *sum as f64 / *count as f64)
    }

    /// `(level, average rank)` rows from coarse to fine.
    pub fn rank_table(&self) -> Vec<(u8, f64)> {
        self.ranks
            .iter()
            .filter(|(_, (c, _))| *c > 0)
            .map(|(l, (c, s))| (*l, *s as f64 / *c as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_accounting() {
        let mut s = FactorStats::new(100, 4);
        s.add_rank(4, 10);
        s.add_rank(4, 20);
        s.add_rank(3, 40);
        assert_eq!(s.avg_rank(4), Some(15.0));
        assert_eq!(s.avg_rank(3), Some(40.0));
        assert_eq!(s.avg_rank(2), None);
        let table = s.rank_table();
        assert_eq!(table, vec![(3, 40.0), (4, 15.0)]);
    }
}
