//! Consistent-hash ring mapping class names onto shards.
//!
//! Each shard owns `vnodes` points on a 64-bit ring; a class lands on
//! the first point clockwise of its own hash. Virtual nodes smooth the
//! distribution, and the layout is a pure function of (shard count,
//! vnode count) — every router replica computes identical assignments
//! with no coordination.

/// SplitMix64 finalizer. Raw FNV-1a of near-identical short strings
/// (`Class0`, `Class1`, …) clusters in the high bits, which a sorted
/// ring keys on — without this avalanche step, sequential class names
/// can all land on a couple of shards.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn ring_hash(bytes: &[u8]) -> u64 {
    mix(sde::fnv1a(bytes))
}

/// The ring: sorted (point, shard) pairs.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds a ring of `shards` shards with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(vnodes > 0, "a ring needs at least one vnode per shard");
        HashRing::with_weights(&vec![vnodes; shards])
    }

    /// Builds a ring with an explicit vnode count per shard — the
    /// runtime-policy knob RAFDA argues for: placement capacity is a
    /// deployment decision, so a beefier shard simply carries more
    /// points. A zero weight removes the shard from the ring (it owns
    /// nothing) while keeping its index stable for the router.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or every weight is zero.
    pub fn with_weights(weights: &[usize]) -> HashRing {
        assert!(!weights.is_empty(), "a ring needs at least one shard");
        assert!(
            weights.iter().any(|&w| w > 0),
            "a ring needs at least one vnode somewhere"
        );
        let mut points = Vec::with_capacity(weights.iter().sum());
        for (shard, &vnodes) in weights.iter().enumerate() {
            for vnode in 0..vnodes {
                points.push((
                    ring_hash(format!("shard-{shard}/vnode-{vnode}").as_bytes()),
                    shard,
                ));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: weights.len(),
        }
    }

    /// The shard owning `class`.
    pub fn shard_for(&self, class: &str) -> usize {
        let h = ring_hash(class.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }

    /// The shard owning `class` when the shards in `excluded` are off
    /// the ring — where a class lands while its home shard drains. The
    /// walk continues clockwise from the class's own point, so every
    /// non-excluded placement is stable under repeated exclusion.
    /// Returns `None` when exclusion empties the ring.
    pub fn shard_for_excluding(&self, class: &str, excluded: &[usize]) -> Option<usize> {
        let h = ring_hash(class.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        (0..self.points.len())
            .map(|i| self.points[(start + i) % self.points.len()].1)
            .find(|s| !excluded.contains(s))
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let a = HashRing::new(3, 32);
        let b = HashRing::new(3, 32);
        for name in ["Calc", "Echo", "Counter", "Inventory", "X", "Y9"] {
            let s = a.shard_for(name);
            assert!(s < 3);
            assert_eq!(s, b.shard_for(name), "same layout must agree");
        }
    }

    #[test]
    fn exclusion_rehomes_only_the_excluded_shards_classes() {
        let ring = HashRing::new(3, 32);
        for i in 0..48 {
            let name = format!("Class{i}");
            let home = ring.shard_for(&name);
            let moved = ring.shard_for_excluding(&name, &[0]).unwrap();
            assert_ne!(moved, 0, "excluded shard must own nothing");
            if home != 0 {
                assert_eq!(moved, home, "unaffected classes must not move");
            }
        }
        assert_eq!(ring.shard_for_excluding("Any", &[0, 1, 2]), None);
    }

    #[test]
    fn weighted_ring_skews_ownership_and_zero_weight_owns_nothing() {
        let ring = HashRing::with_weights(&[96, 8, 0]);
        let mut counts = [0usize; 3];
        for i in 0..200 {
            counts[ring.shard_for(&format!("Class{i}"))] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight shard must own nothing");
        assert!(
            counts[0] > counts[1] * 3,
            "12x the vnodes should attract most classes: {counts:?}"
        );
    }

    #[test]
    fn classes_spread_across_shards() {
        let ring = HashRing::new(4, 64);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[ring.shard_for(&format!("Class{i}"))] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 classes over 4 shards should hit every shard: {seen:?}"
        );
    }
}
