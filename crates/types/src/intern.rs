//! String interning keyed by a typed id namespace.

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::ids::Id;

/// A string interner producing ids of a single namespace `I`.
///
/// Interning is append-only: once a string is assigned an id, the id is
/// stable for the lifetime of the interner. Lookups by string are O(1)
/// expected; lookups by id are a vector index.
///
/// ```
/// use medkb_types::{StringInterner, TokenId};
///
/// let mut interner: StringInterner<TokenId> = StringInterner::new();
/// let fever = interner.intern("fever");
/// assert_eq!(interner.intern("fever"), fever);
/// assert_eq!(interner.resolve(fever), "fever");
/// assert_eq!(interner.get("chills"), None);
/// ```
#[derive(Debug, Clone)]
pub struct StringInterner<I: Id> {
    strings: Vec<Box<str>>,
    index: HashMap<Box<str>, I>,
    _marker: PhantomData<I>,
}

impl<I: Id> Default for StringInterner<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Id> StringInterner<I> {
    /// An empty interner.
    pub fn new() -> Self {
        Self { strings: Vec::new(), index: HashMap::new(), _marker: PhantomData }
    }

    /// An empty interner with capacity for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            strings: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
            _marker: PhantomData,
        }
    }

    /// Intern `s`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, s: &str) -> I {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = I::from_usize(self.strings.len());
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.index.insert(boxed, id);
        id
    }

    /// The id of `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<I> {
        self.index.get(s).copied()
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: I) -> &str {
        &self.strings[id.as_usize()]
    }

    /// The string behind `id`, or `None` for a foreign id.
    pub fn try_resolve(&self, id: I) -> Option<&str> {
        self.strings.get(id.as_usize()).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &str)> + Clone {
        self.strings.iter().enumerate().map(|(i, s)| (I::from_usize(i), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ExtConceptId, TokenId};
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i: StringInterner<TokenId> = StringInterner::new();
        let a = i.intern("aspirin");
        let b = i.intern("aspirin");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i: StringInterner<TokenId> = StringInterner::new();
        let a = i.intern("fever");
        let b = i.intern("headache");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "fever");
        assert_eq!(i.resolve(b), "headache");
    }

    #[test]
    fn get_does_not_intern() {
        let i: StringInterner<TokenId> = StringInterner::new();
        assert_eq!(i.get("nope"), None);
        assert!(i.is_empty());
    }

    #[test]
    fn try_resolve_foreign_id_is_none() {
        let i: StringInterner<ExtConceptId> = StringInterner::new();
        assert_eq!(i.try_resolve(ExtConceptId::new(9)), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i: StringInterner<TokenId> = StringInterner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(words in proptest::collection::vec("[a-z]{1,12}", 0..64)) {
            let mut i: StringInterner<TokenId> = StringInterner::new();
            let ids: Vec<_> = words.iter().map(|w| i.intern(w)).collect();
            for (w, id) in words.iter().zip(&ids) {
                prop_assert_eq!(i.resolve(*id), w.as_str());
                prop_assert_eq!(i.get(w), Some(*id));
            }
            // Ids are dense: max id + 1 == number of distinct words.
            let distinct: std::collections::HashSet<_> = words.iter().collect();
            prop_assert_eq!(i.len(), distinct.len());
        }
    }
}
