//! The two map types under test behind one benchmark-side trait, and the
//! configuration every map in the benchmark is built with.
//!
//! The trait is the benchmark's own (not `oak_core::OrderedKvMap`, which
//! ROADMAP item 6 prunes) and names only methods both types have today.

use oak_core::{OakError, OakMap, OakMapConfig, OakWBuffer, ShardedOakMap};
use oak_mempool::PoolConfig;

use crate::counters::Counters;
use crate::trace::Layer;

pub const ARENA_BYTES: usize = 16 << 20;
pub const BUDGET_BYTES: usize = 2 << 30;
pub const SHARDS: usize = 4;

/// What `OakMap::new()` gives a user, with only the resource size changed.
/// No allocator-tier, scan-engine or prefix-cache toggle is touched, so the
/// benchmark compiles unchanged when ROADMAP items 2, 3 and 6 delete them.
pub fn pool_config() -> PoolConfig {
    PoolConfig::with_budget(ARENA_BYTES, BUDGET_BYTES)
}

pub fn map_config() -> OakMapConfig {
    OakMapConfig::default().pool(pool_config())
}

pub trait Target: Sync + Sized {
    /// The layer a call into this type is attributed to.
    const LAYER: Layer;
    /// The other map type, for probes that need both.
    type Twin: Target;

    /// A new empty map with the benchmark's configuration.
    fn new_map() -> Self;
    /// This map and its twin as `(OakMap, ShardedOakMap)`.
    fn into_pair(self, twin: Self::Twin) -> (OakMap, ShardedOakMap);

    fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R>;
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError>;
    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError>;
    fn remove(&self, key: &[u8]) -> bool;
    fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool;
    fn for_each_in(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize;
    fn for_each_descending(
        &self,
        from: Option<&[u8]>,
        lo: Option<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> usize;
    fn len(&self) -> usize;
    fn counters(&self) -> Counters;
    /// Panics if a structural invariant of the map is broken.
    fn validate(&self);
}

macro_rules! impl_target {
    ($ty:ty, $layer:expr, $twin:ty, $new:expr, $pair:expr) => {
        impl Target for $ty {
            const LAYER: Layer = $layer;
            type Twin = $twin;

            fn new_map() -> Self {
                $new
            }
            fn into_pair(self, twin: $twin) -> (OakMap, ShardedOakMap) {
                $pair(self, twin)
            }

            #[inline]
            fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Option<R> {
                <$ty>::get_with(self, key, f)
            }
            #[inline]
            fn put(&self, key: &[u8], value: &[u8]) -> Result<(), OakError> {
                <$ty>::put(self, key, value)
            }
            #[inline]
            fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, OakError> {
                <$ty>::put_if_absent(self, key, value)
            }
            #[inline]
            fn remove(&self, key: &[u8]) -> bool {
                <$ty>::remove(self, key)
            }
            #[inline]
            fn compute_if_present(&self, key: &[u8], f: impl Fn(&mut OakWBuffer<'_>)) -> bool {
                <$ty>::compute_if_present(self, key, f)
            }
            #[inline]
            fn for_each_in(
                &self,
                lo: Option<&[u8]>,
                hi: Option<&[u8]>,
                f: impl FnMut(&[u8], &[u8]) -> bool,
            ) -> usize {
                <$ty>::for_each_in(self, lo, hi, f)
            }
            #[inline]
            fn for_each_descending(
                &self,
                from: Option<&[u8]>,
                lo: Option<&[u8]>,
                f: impl FnMut(&[u8], &[u8]) -> bool,
            ) -> usize {
                <$ty>::for_each_descending(self, from, lo, f)
            }
            fn len(&self) -> usize {
                <$ty>::len(self)
            }
            fn counters(&self) -> Counters {
                Counters::of_map(&<$ty>::stats(self))
            }
            fn validate(&self) {
                <$ty>::validate(self)
            }
        }
    };
}

impl_target!(
    OakMap,
    Layer::Core,
    ShardedOakMap,
    OakMap::with_config(map_config()),
    |oak, sharded| (oak, sharded)
);
impl_target!(
    ShardedOakMap,
    Layer::Sharded,
    OakMap,
    ShardedOakMap::with_config(SHARDS, map_config()),
    |sharded, oak| (oak, sharded)
);
