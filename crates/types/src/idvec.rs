//! Dense vectors indexed by typed ids.

use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use crate::ids::Id;

/// A `Vec<T>` that can only be indexed by ids of namespace `I`.
///
/// This is the storage idiom used throughout the workspace: symbols are
/// resolved to dense ids at the boundary, after which per-entity attributes
/// (frequencies, depths, flags, adjacency offsets, …) live in flat vectors.
///
/// ```
/// use medkb_types::{IdVec, ExtConceptId, Id};
///
/// let mut depths: IdVec<ExtConceptId, u32> = IdVec::new();
/// let root = depths.push(0);
/// let child = depths.push(1);
/// assert_eq!(depths[root], 0);
/// assert_eq!(depths[child], 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdVec<I: Id, T> {
    items: Vec<T>,
    _marker: PhantomData<I>,
}

impl<I: Id, T> Default for IdVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Id, T> IdVec<I, T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self { items: Vec::new(), _marker: PhantomData }
    }

    /// An empty vector with capacity for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        Self { items: Vec::with_capacity(n), _marker: PhantomData }
    }

    /// A vector of `n` copies of `value`.
    pub fn filled(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        Self { items: vec![value; n], _marker: PhantomData }
    }

    /// Append `value`, returning its id.
    pub fn push(&mut self, value: T) -> I {
        let id = I::from_usize(self.items.len());
        self.items.push(value);
        id
    }

    /// The element behind `id`, or `None` if out of range.
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.as_usize())
    }

    /// Mutable access to the element behind `id`.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.as_usize())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `id` indexes into this vector.
    pub fn contains_id(&self, id: I) -> bool {
        id.as_usize() < self.items.len()
    }

    /// Iterate over `(id, &item)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.items.iter().enumerate().map(|(i, t)| (I::from_usize(i), t))
    }

    /// Iterate over `(id, &mut item)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> {
        self.items.iter_mut().enumerate().map(|(i, t)| (I::from_usize(i), t))
    }

    /// Iterate over all ids.
    pub fn ids(&self) -> impl Iterator<Item = I> {
        (0..self.items.len()).map(I::from_usize)
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Consume into the underlying `Vec`.
    pub fn into_inner(self) -> Vec<T> {
        self.items
    }
}

impl<I: Id, T> Index<I> for IdVec<I, T> {
    type Output = T;

    fn index(&self, id: I) -> &T {
        &self.items[id.as_usize()]
    }
}

impl<I: Id, T> IndexMut<I> for IdVec<I, T> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.as_usize()]
    }
}

impl<I: Id, T> FromIterator<T> for IdVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self { items: iter.into_iter().collect(), _marker: PhantomData }
    }
}

/// Adopts the vector's buffer as it is.
impl<I: Id, T> From<Vec<T>> for IdVec<I, T> {
    fn from(items: Vec<T>) -> Self {
        Self { items, _marker: PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InstanceId;
    use proptest::prelude::*;

    #[test]
    fn push_returns_dense_ids() {
        let mut v: IdVec<InstanceId, &str> = IdVec::new();
        let a = v.push("fever");
        let b = v.push("chills");
        assert_eq!(a.as_usize(), 0);
        assert_eq!(b.as_usize(), 1);
        assert_eq!(v[a], "fever");
        assert_eq!(v[b], "chills");
    }

    #[test]
    fn filled_initializes_every_slot() {
        let v: IdVec<InstanceId, f64> = IdVec::filled(1.5, 4);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|(_, &x)| x == 1.5));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let v: IdVec<InstanceId, u8> = IdVec::new();
        assert_eq!(v.get(InstanceId::new(0)), None);
        assert!(!v.contains_id(InstanceId::new(0)));
    }

    #[test]
    fn iter_mut_allows_in_place_update() {
        let mut v: IdVec<InstanceId, u32> = IdVec::filled(1, 3);
        for (_, x) in v.iter_mut() {
            *x *= 10;
        }
        assert_eq!(v.as_slice(), &[10, 10, 10]);
    }

    proptest! {
        #[test]
        fn prop_ids_cover_all_pushes(values in proptest::collection::vec(any::<u16>(), 0..128)) {
            let mut v: IdVec<InstanceId, u16> = IdVec::new();
            let ids: Vec<_> = values.iter().map(|&x| v.push(x)).collect();
            prop_assert_eq!(v.len(), values.len());
            for (id, expect) in ids.iter().zip(&values) {
                prop_assert_eq!(v[*id], *expect);
            }
            let roundtrip: Vec<_> = v.ids().map(|id| v[id]).collect();
            prop_assert_eq!(roundtrip, values);
        }
    }
}
