//! Bounded per-shard buffer arenas.
//!
//! The simulator's hot loops recycle a handful of buffer shapes at high
//! frequency: timing-wheel slot buffers and spill buckets in
//! [`crate::events`], interferer lists in [`crate::medium`]. Before this
//! module each site hand-rolled its own recycling (or dropped buffers
//! straight back to the allocator).
//!
//! [`VecPool`] is the shared primitive: a bounded free-list arena of
//! `Vec<T>` buffers. It is *not* a classic bump arena — wheel entries and
//! in-flight transmissions share no common lifetime, and byte-identity
//! pins the exact order buffers are filled and drained, so a
//! reset-the-high-water-mark allocator cannot apply. A free-list with a
//! retention policy gives the same effect the arena is after (steady-state
//! operation performs zero allocator traffic) without perturbing any
//! observable order.
//!
//! Each [`crate::sim::Simulator`] — and therefore each shard — owns its
//! pools outright; nothing here is shared or synchronized.
//!
//! Retention policy, and why it is RSS-safe: `put` keeps at most
//! `max_spares` buffers, and drops any buffer whose capacity exceeds
//! `max_retain_cap` (burst-grown outliers would otherwise pin their peak
//! footprint forever — the regression the timing wheel's `SLOT_RETAIN_CAP`
//! originally fixed by freeing oversized buffers). The resident ceiling is
//! thus `max_spares × max_retain_cap × size_of::<T>()` per pool, chosen at
//! construction to be a few tens of kilobytes.

/// A bounded free-list of reusable `Vec<T>` buffers.
pub struct VecPool<T> {
    spares: Vec<Vec<T>>,
    max_spares: usize,
    max_retain_cap: usize,
}

impl<T> VecPool<T> {
    /// An empty pool retaining at most `max_spares` buffers of at most
    /// `max_retain_cap` elements capacity each.
    pub const fn new(max_spares: usize, max_retain_cap: usize) -> Self {
        VecPool {
            spares: Vec::new(),
            max_spares,
            max_retain_cap,
        }
    }

    /// A recycled buffer (empty, capacity warm from its last use), or a
    /// fresh zero-capacity one when the pool is dry.
    #[inline]
    pub fn take(&mut self) -> Vec<T> {
        self.spares.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. Cleared immediately; retained only
    /// while it fits the pool's retention policy, otherwise dropped to the
    /// allocator (that is the RSS bound, not an error).
    #[inline]
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        if v.capacity() > 0
            && v.capacity() <= self.max_retain_cap
            && self.spares.len() < self.max_spares
        {
            self.spares.push(v);
        }
    }

    /// Buffers currently waiting for reuse.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_put_buffers() {
        let mut pool: VecPool<u32> = VecPool::new(4, 64);
        let mut v = pool.take();
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.spares(), 1);
        let v = pool.take();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap);
        assert_eq!(pool.spares(), 0);
    }

    #[test]
    fn retention_policy_bounds_spares_and_capacity() {
        let mut pool: VecPool<u8> = VecPool::new(2, 16);
        // Oversized buffers are dropped, not retained.
        pool.put(Vec::with_capacity(17));
        assert_eq!(pool.spares(), 0);
        // Zero-capacity buffers are not worth retaining.
        pool.put(Vec::new());
        assert_eq!(pool.spares(), 0);
        // The spare count is capped.
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.spares(), 2);
    }
}
