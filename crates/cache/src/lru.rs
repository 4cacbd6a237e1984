//! Slab-backed doubly-linked LRU list: the recency chain of
//! [`crate::UnifiedCache`]'s frames.
//!
//! The slab only grows: the unified cache seeds every frame once with
//! [`LruList::push_back`] and then only reorders them, so there is no free
//! list and no removal. Node handles ([`NodeId`]) stay valid for the
//! list's life. All operations are O(1). ([`crate::BlockCache`] keeps its
//! chain inside its hash table instead.)

use core::fmt;

/// Sentinel meaning "no node".
const NIL: u32 = u32::MAX;

/// Handle to a node in an [`LruList`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

struct Node<T> {
    prev: u32,
    next: u32,
    value: T,
}

/// A doubly-linked list ordered most-recently-used first.
///
/// # Examples
///
/// ```
/// use fcache_cache::LruList;
///
/// let mut l = LruList::with_capacity(2);
/// let a = l.push_back("a");
/// let b = l.push_back("b"); // "b" is the LRU end
/// l.touch(b); // "b" becomes MRU
/// assert_eq!(l.back(), Some(a));
/// assert_eq!(l.iter().copied().collect::<Vec<_>>(), ["b", "a"]);
/// ```
pub struct LruList<T> {
    nodes: Vec<Node<T>>,
    head: u32,
    tail: u32,
}

impl<T> LruList<T> {
    /// Creates an empty list with room for `cap` nodes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Inserts a value at the LRU end; returns its handle.
    ///
    /// Used to seed a cache with frames that should be consumed first.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `u32::MAX` nodes (handles are
    /// `u32`, and `u32::MAX` is the "no node" sentinel).
    pub fn push_back(&mut self, value: T) -> NodeId {
        let idx = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("LruList holds at most u32::MAX - 1 nodes");
        self.nodes.push(Node {
            prev: self.tail,
            next: NIL,
            value,
        });
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        NodeId(idx)
    }

    /// Moves a node to the MRU end.
    pub fn touch(&mut self, id: NodeId) {
        if self.head == id.0 {
            return;
        }
        self.unlink(id.0);
        self.link_front(id.0);
    }

    /// Handle of the LRU node, if any.
    pub fn back(&self) -> Option<NodeId> {
        (self.tail != NIL).then_some(NodeId(self.tail))
    }

    /// Borrows a node's value.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.nodes.get(id.index()).map(|n| &n.value)
    }

    /// Mutably borrows a node's value.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes.get_mut(id.index()).map(|n| &mut n.value)
    }

    /// Iterates values from MRU to LRU.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            list: self,
            cur: self.head,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for LruList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an [`LruList`], MRU to LRU.
pub struct Iter<'a, T> {
    list: &'a LruList<T>,
    cur: u32,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.list.nodes[self.cur as usize];
        self.cur = n.next;
        Some(&n.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A list seeded with `values`, first value at the MRU end.
    fn seeded(values: &[i32]) -> (LruList<i32>, Vec<NodeId>) {
        let mut l = LruList::with_capacity(values.len());
        let ids = values.iter().map(|&v| l.push_back(v)).collect();
        (l, ids)
    }

    fn order(l: &LruList<i32>) -> Vec<i32> {
        l.iter().copied().collect()
    }

    #[test]
    fn push_touch_pop_order() {
        let (mut l, ids) = seeded(&[3, 2, 1]);
        l.touch(ids[2]);
        assert_eq!(order(&l), vec![1, 3, 2]);
        // The LRU end is the next to go: 2, then 3 once 2 is touched.
        assert_eq!(l.get(l.back().unwrap()), Some(&2));
        l.touch(ids[1]);
        assert_eq!(l.get(l.back().unwrap()), Some(&3));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn push_back_seeds_lru_end() {
        let mut l = LruList::with_capacity(2);
        l.push_back("mru");
        let lru = l.push_back("lru");
        assert_eq!(l.back(), Some(lru));
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), ["mru", "lru"]);
    }

    #[test]
    fn touch_head_is_noop() {
        let (mut l, ids) = seeded(&[2, 1]);
        l.touch(ids[0]);
        assert_eq!(order(&l), vec![2, 1]);
    }

    #[test]
    fn touch_tail_moves_to_front() {
        let (mut l, ids) = seeded(&[2, 1]);
        l.touch(ids[1]);
        assert_eq!(order(&l), vec![1, 2]);
        assert_eq!(l.back(), Some(ids[0]));
    }

    #[test]
    fn get_mut_updates_value() {
        let (mut l, ids) = seeded(&[10]);
        *l.get_mut(ids[0]).unwrap() += 5;
        assert_eq!(l.get(ids[0]), Some(&15));
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = LruList::with_capacity(1);
        assert!(l.is_empty() && l.back().is_none());
        assert_eq!(l.iter().next(), None);
        let a = l.push_back(9);
        assert_eq!(l.back(), Some(a));
        l.touch(a);
        assert_eq!(l.back(), Some(a));
        assert_eq!(order(&l), vec![9]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        /// Reference model: VecDeque front = MRU.
        #[derive(Debug, Clone)]
        enum Op {
            PushBack,
            TouchNth(usize),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![Just(Op::PushBack), (0usize..64).prop_map(Op::TouchNth),]
        }

        proptest! {
            #[test]
            fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
                let mut sut = LruList::with_capacity(0);
                // Value `v` is the `v`-th pushed, so its handle is `ids[v]`.
                let mut ids: Vec<NodeId> = Vec::new();
                let mut model: VecDeque<u32> = VecDeque::new();

                for op in ops {
                    match op {
                        Op::PushBack => {
                            let v = ids.len() as u32;
                            ids.push(sut.push_back(v));
                            model.push_back(v);
                        }
                        Op::TouchNth(n) => {
                            if !model.is_empty() {
                                let v = model.remove(n % model.len()).unwrap();
                                model.push_front(v);
                                sut.touch(ids[v as usize]);
                            }
                        }
                    }
                    prop_assert_eq!(sut.len(), model.len());
                    prop_assert_eq!(sut.back().and_then(|id| sut.get(id)), model.back());
                    prop_assert_eq!(sut.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                }
            }
        }
    }
}
