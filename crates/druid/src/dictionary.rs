//! Concurrent string → codeword dictionaries.
//!
//! One dictionary per string dimension: assigns a stable `u32` codeword to
//! each distinct value, with reverse lookup for query results. These are
//! the "auxiliary dynamic dictionaries" of §6 and stay on the (real) heap —
//! the paper keeps them on-heap too.

use std::collections::HashMap;
use std::sync::Arc;

use oak_sync::RwLock;

#[derive(Default)]
struct Inner {
    forward: HashMap<Arc<str>, u32>,
    reverse: Vec<Arc<str>>,
}

/// A concurrent, append-only value dictionary.
#[derive(Default)]
pub struct Dictionary {
    inner: RwLock<Inner>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the codeword for `value`, assigning the next one if new.
    pub fn encode(&self, value: &str) -> u32 {
        if let Some(&code) = self.inner.read().forward.get(value) {
            return code;
        }
        let mut g = self.inner.write();
        if let Some(&code) = g.forward.get(value) {
            return code; // raced with another encoder
        }
        let code = g.reverse.len() as u32;
        let s: Arc<str> = Arc::from(value);
        g.reverse.push(s.clone());
        g.forward.insert(s, code);
        code
    }

    /// Reverse lookup.
    pub fn decode(&self, code: u32) -> Option<Arc<str>> {
        self.inner.read().reverse.get(code as usize).cloned()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.inner.read().reverse.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate on-heap footprint in bytes (for Figure 5c accounting).
    pub fn footprint_bytes(&self) -> usize {
        let g = self.inner.read();
        g.reverse
            .iter()
            .map(|s| oak_gcheap::layout::object(16) + oak_gcheap::layout::byte_array(s.len()))
            .sum::<usize>()
            + g.reverse.len() * 2 * oak_gcheap::layout::REF_SIZE
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_codewords() {
        let d = Dictionary::new();
        let a = d.encode("alpha");
        let b = d.encode("beta");
        assert_ne!(a, b);
        assert_eq!(d.encode("alpha"), a);
        assert_eq!(d.decode(a).unwrap().as_ref(), "alpha");
        assert_eq!(d.decode(b).unwrap().as_ref(), "beta");
        assert_eq!(d.len(), 2);
        assert!(d.decode(99).is_none());
    }

    #[test]
    fn concurrent_encoding_is_consistent() {
        let d = Arc::new(Dictionary::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut codes = Vec::new();
                for i in 0..200 {
                    codes.push((i, d.encode(&format!("value-{i}"))));
                }
                codes
            }));
        }
        let all: Vec<Vec<(i32, u32)>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same value → same codeword across all threads.
        for i in 0..200usize {
            let codes: Vec<u32> = all.iter().map(|v| v[i].1).collect();
            assert!(codes.windows(2).all(|w| w[0] == w[1]), "value {i}");
        }
        assert_eq!(d.len(), 200);
    }
}
