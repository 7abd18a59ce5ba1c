//! Domain values and interning.
//!
//! The engine works on `u64` values ([`Val`]); user-facing code can
//! intern arbitrary strings through [`Interner`] and map results back.

use crate::hasher::FxHashMap;

/// A domain value. The paper's RAM model has logarithmic word size; `u64`
/// values cover every domain the workloads use.
pub type Val = u64;

/// Bidirectional string ↔ [`Val`] interner for user-facing layers.
#[derive(Default, Clone, Debug)]
pub struct Interner {
    by_name: FxHashMap<String, Val>,
    names: Vec<String>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its value (stable across calls).
    pub fn intern(&mut self, name: &str) -> Val {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = self.names.len() as Val;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Resolve a value back to its name, if it was interned.
    pub fn name(&self, v: Val) -> Option<&str> {
        self.names.get(v as usize).map(|s| s.as_str())
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &str) -> Option<Val> {
        self.by_name.get(name).copied()
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let mut i = Interner::new();
        let a = i.intern("alice");
        let b = i.intern("bob");
        assert_ne!(a, b);
        assert_eq!(i.intern("alice"), a);
        assert_eq!(i.name(a), Some("alice"));
        assert_eq!(i.get("bob"), Some(b));
        assert_eq!(i.get("carol"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.name(0), None);
    }
}
