//! The shard layer: partition the entity candidate axis into contiguous
//! per-shard column stripes.
//!
//! Shards never score. The router scores each coalesced batch once into a
//! full `[Q, N]` block through [`KgeModel::score_into`], whose kernels the
//! backend pool already parallelises; each shard worker then selects its
//! stripe's top-k from that shared block, and the per-stripe partials
//! merge (comparisons only) into the single-engine full-sort prefix — see
//! [`merge`](super::merge).
//!
//! [`KgeModel::score_into`]: crate::model::KgeModel::score_into

use super::ServeError;

/// A balanced contiguous partition of the candidate axis `0..num_entities`
/// into at most `shards` non-empty ranges (fewer when there are fewer
/// entities than requested shards).
#[derive(Clone, Debug)]
pub struct ShardPlan {
    num_entities: usize,
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partition `num_entities` candidates into `shards` balanced ranges;
    /// range sizes differ by at most one. `shards == 0` is rejected.
    pub fn new(num_entities: usize, shards: usize) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::InvalidShardCount);
        }
        let s = shards.min(num_entities.max(1));
        let base = num_entities / s;
        let rem = num_entities % s;
        let mut ranges = Vec::with_capacity(s);
        let mut lo = 0usize;
        for i in 0..s {
            let w = base + usize::from(i < rem);
            ranges.push((lo, lo + w));
            lo += w;
        }
        Ok(ShardPlan {
            num_entities,
            ranges,
        })
    }

    /// The per-shard `(lo, hi)` candidate ranges, in id order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The partitioned entity count.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }
}
