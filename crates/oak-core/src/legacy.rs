//! The legacy (copying) API — `ConcurrentNavigableMap` compatibility.
//!
//! "For backward compatibility, Oak also supports the (less efficient)
//! legacy KV-map API" (§1). Every query deserializes a fresh object and
//! every update serializes its arguments; `put`/`remove` return the old
//! value, which is exactly the copying the ZC API exists to avoid — and
//! what the `Oak-Copy` curves in Figure 4c measure.

use std::marker::PhantomData;

use crate::cmp::KeyComparator;
use crate::error::OakError;
use crate::map::OakMap;
use crate::serde_api::OakSerializer;

/// A typed, copying facade over an [`OakMap`].
pub struct TypedOakMap<KS, VS, C = crate::Lexicographic>
where
    KS: OakSerializer,
    VS: OakSerializer,
    C: KeyComparator,
{
    map: OakMap<C>,
    key_serde: KS,
    val_serde: VS,
    _marker: PhantomData<(KS, VS)>,
}

impl<KS, VS, C> TypedOakMap<KS, VS, C>
where
    KS: OakSerializer,
    VS: OakSerializer,
    C: KeyComparator,
{
    /// Wraps an [`OakMap`] with key and value serializers.
    pub fn new(map: OakMap<C>, key_serde: KS, val_serde: VS) -> Self {
        TypedOakMap {
            map,
            key_serde,
            val_serde,
            _marker: PhantomData,
        }
    }

    /// The underlying zero-copy map.
    pub fn inner(&self) -> &OakMap<C> {
        &self.map
    }

    fn key_bytes(&self, key: &KS::Item) -> Vec<u8> {
        let mut buf = vec![0u8; self.key_serde.serialized_size(key)];
        self.key_serde.serialize(key, &mut buf);
        buf
    }

    fn val_bytes(&self, val: &VS::Item) -> Vec<u8> {
        let mut buf = vec![0u8; self.val_serde.serialized_size(val)];
        self.val_serde.serialize(val, &mut buf);
        buf
    }

    /// `V get(K)` — deserializes a fresh value object.
    pub fn get(&self, key: &KS::Item) -> Option<VS::Item> {
        let kb = self.key_bytes(key);
        self.map.get_with(&kb, |v| self.val_serde.deserialize(v))
    }

    /// `V put(K, V)` — returns the previous value (atomically), forcing a
    /// deserializing copy of the old contents.
    pub fn put(&self, key: &KS::Item, value: &VS::Item) -> Result<Option<VS::Item>, OakError> {
        let kb = self.key_bytes(key);
        let vb = self.val_bytes(value);
        let old = self.map.put_returning(&kb, &vb)?;
        Ok(old.map(|old| self.val_serde.deserialize(&old)))
    }

    /// `V remove(K)` — returns the removed value (atomically).
    pub fn remove(&self, key: &KS::Item) -> Option<VS::Item> {
        let kb = self.key_bytes(key);
        self.map
            .remove_returning(&kb)
            .map(|old| self.val_serde.deserialize(&old))
    }

    /// `boolean putIfAbsent(K, V)` (legacy signature returns the old value;
    /// we return whether this call inserted, the useful bit).
    pub fn put_if_absent(&self, key: &KS::Item, value: &VS::Item) -> Result<bool, OakError> {
        let kb = self.key_bytes(key);
        let vb = self.val_bytes(value);
        self.map.put_if_absent(&kb, &vb)
    }

    /// Non-atomic `computeIfPresent`, JDK-style: deserialize → apply →
    /// serialize back (the whole step *is* made atomic here by the value
    /// write lock, but the object round-trip copying is what the paper's
    /// legacy API costs).
    pub fn compute_if_present(&self, key: &KS::Item, f: impl Fn(VS::Item) -> VS::Item) -> bool {
        let kb = self.key_bytes(key);
        self.map.compute_if_present(&kb, |buf| {
            let cur = self.val_serde.deserialize(buf.as_slice());
            let new = f(cur);
            let size = self.val_serde.serialized_size(&new);
            if buf.len() != size {
                buf.resize(size).expect("value resize");
            }
            self.val_serde.serialize(&new, buf.as_mut_slice());
        })
    }

    /// Ascending scan with deserialized pairs.
    pub fn collect_range(
        &self,
        lo: Option<&KS::Item>,
        hi: Option<&KS::Item>,
    ) -> Vec<(KS::Item, VS::Item)> {
        let lo_b = lo.map(|k| self.key_bytes(k));
        let hi_b = hi.map(|k| self.key_bytes(k));
        let mut out = Vec::new();
        self.map
            .for_each_in(lo_b.as_deref(), hi_b.as_deref(), |k, v| {
                out.push((self.key_serde.deserialize(k), self.val_serde.deserialize(v)));
                true
            });
        out
    }

    /// `merge(K, V, f)`: insert `value` if absent, else replace with
    /// `f(current, value)` — the JDK signature Oak's
    /// `putIfAbsentComputeIfPresent` improves on (Table 1). Atomic here via
    /// the value write lock; the copying round-trip is the legacy cost.
    pub fn merge(
        &self,
        key: &KS::Item,
        value: &VS::Item,
        f: impl Fn(VS::Item, &VS::Item) -> VS::Item,
    ) -> Result<(), OakError> {
        let kb = self.key_bytes(key);
        let vb = self.val_bytes(value);
        self.map.put_if_absent_compute_if_present(&kb, &vb, |buf| {
            let cur = self.val_serde.deserialize(buf.as_slice());
            let new = f(cur, value);
            let size = self.val_serde.serialized_size(&new);
            if buf.len() != size {
                buf.resize(size).expect("value resize");
            }
            self.val_serde.serialize(&new, buf.as_mut_slice());
        })?;
        Ok(())
    }

    /// `firstKey()`.
    pub fn first_key(&self) -> Option<KS::Item> {
        let mut out = None;
        self.map.for_each_in(None, None, |k, _| {
            out = Some(self.key_serde.deserialize(k));
            false
        });
        out
    }

    /// `lastKey()`.
    pub fn last_key(&self) -> Option<KS::Item> {
        let mut out = None;
        self.map.for_each_descending(None, None, |k, _| {
            out = Some(self.key_serde.deserialize(k));
            false
        });
        out
    }

    /// `descendingMap()`-style collection (deserialized copies).
    pub fn collect_descending(
        &self,
        from: Option<&KS::Item>,
        lo: Option<&KS::Item>,
    ) -> Vec<(KS::Item, VS::Item)> {
        let from_b = from.map(|k| self.key_bytes(k));
        let lo_b = lo.map(|k| self.key_bytes(k));
        let mut out = Vec::new();
        self.map
            .for_each_descending(from_b.as_deref(), lo_b.as_deref(), |k, v| {
                out.push((self.key_serde.deserialize(k), self.val_serde.deserialize(v)));
                true
            });
        out
    }

    /// `containsKey(K)`.
    pub fn contains_key(&self, key: &KS::Item) -> bool {
        let kb = self.key_bytes(key);
        self.map.contains_key(&kb)
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}
