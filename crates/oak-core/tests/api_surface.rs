//! Tests for the extended API surface: keySet/valueSet, subMap views,
//! buffer accessors, and the completed legacy API.

use oak_core::legacy::TypedOakMap;
use oak_core::serde_api::{StringSerializer, U64Serializer};
use oak_core::{OakMap, OakMapConfig, U64BeComparator};

fn filled_map(n: u32) -> OakMap {
    let m = OakMap::with_config(OakMapConfig::small());
    for i in 0..n {
        m.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    m
}

#[test]
fn key_set_and_value_set() {
    let m = filled_map(50);
    let zc = m.zc();
    let keys: Vec<Vec<u8>> = zc
        .key_set(Some(b"k0010"), Some(b"k0015"))
        .map(|k| k.to_vec().unwrap())
        .collect();
    assert_eq!(keys.len(), 5);
    assert_eq!(keys[0], b"k0010");
    let vals: Vec<Vec<u8>> = zc
        .value_set(Some(b"k0010"), Some(b"k0015"))
        .map(|v| v.to_vec().unwrap())
        .collect();
    assert_eq!(vals[0], b"v10");

    let mut streamed_keys = Vec::new();
    zc.key_stream_set(Some(b"k0010"), Some(b"k0015"), |k| {
        streamed_keys.push(k.to_vec());
        true
    });
    assert_eq!(keys, streamed_keys);

    let mut streamed_vals = Vec::new();
    zc.value_stream_set(Some(b"k0010"), Some(b"k0015"), |v| {
        streamed_vals.push(v.to_vec());
        true
    });
    assert_eq!(vals, streamed_vals);
}

#[test]
fn sub_map_bounds_every_operation() {
    let m = filled_map(100);
    let zc = m.zc();
    let view = zc.sub_map(Some(b"k0020"), Some(b"k0030"));

    // get: in-range hits, out-of-range misses even for present keys.
    assert!(view.get(b"k0025").is_some());
    assert!(view.get(b"k0050").is_none());
    assert!(m.contains_key(b"k0050"));

    // put: rejected outside the range.
    assert!(view.put(b"k0022x", b"new").unwrap());
    assert!(!view.put(b"k0090", b"nope").unwrap());
    assert!(!m.contains_key(b"k0090x"));

    // remove: only inside the range.
    assert!(!view.remove(b"k0050"));
    assert!(view.remove(b"k0022x"));

    // len counts only the view.
    assert_eq!(view.len(), 10);
    assert!(!view.is_empty());

    // entrySet ascending: exactly [k0020, k0030).
    let keys: Vec<Vec<u8>> = view.entry_set().map(|(k, _)| k.to_vec().unwrap()).collect();
    assert_eq!(keys.len(), 10);
    assert_eq!(keys.first().unwrap(), b"k0020");
    assert_eq!(keys.last().unwrap(), b"k0029");

    // descendingMap().entrySet(): reverse of the same range, excluding the
    // exclusive upper bound.
    let desc: Vec<Vec<u8>> = view
        .descending_entry_set()
        .map(|(k, _)| k.to_vec().unwrap())
        .collect();
    let mut rev = keys.clone();
    rev.reverse();
    assert_eq!(desc, rev);
}

/// A view's point operations bound keys with the map's comparator, like
/// its scans: `U64BeComparator` orders keys of other lengths by length
/// first, where plain slice order would disagree.
#[test]
fn sub_map_bounds_follow_the_comparator() {
    let map = OakMap::with_comparator(OakMapConfig::small(), U64BeComparator);
    let be = |id: u64| id.to_be_bytes();
    for id in [3, 5, 7, 12] {
        map.put(&be(id), b"v").unwrap();
    }
    let zc = map.zc();
    let in_view = |view: &oak_core::SubMapView<'_, U64BeComparator>| -> Vec<Vec<u8>> {
        view.entry_set().map(|(k, _)| k.to_vec().unwrap()).collect()
    };

    // [5, 10): a nine-byte key sorts after every eight-byte one, so it is
    // outside the view (bytewise it would fall between 5 and 10).
    let view = zc.sub_map(Some(&be(5)), Some(&be(10)));
    let long = [0, 0, 0, 0, 0, 0, 0, 7, 0];
    assert_eq!(view.put(&long, b"v"), Ok(false));
    assert!(!map.contains_key(&long));
    assert_eq!(in_view(&view), [be(5).to_vec(), be(7).to_vec()]);

    // [[9], 10): a one-byte lower bound sorts before every eight-byte key,
    // so 3, 5 and 7 are inside (bytewise they would all be below it).
    let view = zc.sub_map(Some(&[9]), Some(&be(10)));
    assert_eq!(in_view(&view).len(), 3);
    assert!([3, 5, 7].iter().all(|&id| view.get(&be(id)).is_some()));
    assert!(view.get(&be(12)).is_none());
    assert!(view.remove(&be(3)));
    assert_eq!(view.put(&be(4), b"v"), Ok(true));
    assert_eq!(view.len(), 3);
    map.validate();
}

#[test]
fn sub_map_unbounded_sides() {
    let m = filled_map(20);
    let zc = m.zc();
    assert_eq!(zc.sub_map(None, Some(b"k0005")).len(), 5);
    assert_eq!(zc.sub_map(Some(b"k0015"), None).len(), 5);
    assert_eq!(zc.sub_map(None, None).len(), 20);
    let empty = zc.sub_map(Some(b"zz"), None);
    assert!(empty.is_empty());
    assert_eq!(empty.descending_entry_set().count(), 0);
}

#[test]
fn buffer_typed_accessors() {
    let m = OakMap::with_config(OakMapConfig::small());
    let mut v = Vec::new();
    v.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
    v.extend_from_slice(&(-42i64).to_le_bytes());
    v.extend_from_slice(&1.5f64.to_le_bytes());
    m.put(b"typed", &v).unwrap();
    let buf = m.get(b"typed").unwrap();
    assert_eq!(buf.get_u32(0).unwrap(), 0xDEADBEEF);
    assert_eq!(buf.get_i64(4).unwrap(), -42);
    assert_eq!(buf.get_f64(12).unwrap(), 1.5);
    let mut chunk = [0u8; 8];
    buf.read_at(4, &mut chunk).unwrap();
    assert_eq!(i64::from_le_bytes(chunk), -42);
    assert!(buf.eq_bytes(&v).unwrap());
    assert!(!buf.eq_bytes(b"other").unwrap());
}

#[test]
fn legacy_navigable_extensions() {
    let t = TypedOakMap::new(
        OakMap::with_config(OakMapConfig::small()),
        U64Serializer,
        StringSerializer,
    );
    assert_eq!(t.first_key(), None);
    assert_eq!(t.last_key(), None);
    for i in [5u64, 1, 9, 3] {
        t.put(&i, &format!("v{i}")).unwrap();
    }
    assert_eq!(t.first_key(), Some(1));
    assert_eq!(t.last_key(), Some(9));
    assert!(t.contains_key(&5));
    assert!(!t.contains_key(&2));

    // merge: insert then combine.
    t.merge(&7, &"x".to_string(), |cur, add| format!("{cur}+{add}"))
        .unwrap();
    assert_eq!(t.get(&7), Some("x".to_string()));
    t.merge(&7, &"y".to_string(), |cur, add| format!("{cur}+{add}"))
        .unwrap();
    assert_eq!(t.get(&7), Some("x+y".to_string()));

    let desc = t.collect_descending(None, None);
    let keys: Vec<u64> = desc.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, vec![9, 7, 5, 3, 1]);
    let bounded = t.collect_descending(Some(&7), Some(&3));
    let keys: Vec<u64> = bounded.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, vec![7, 5, 3]);
}
