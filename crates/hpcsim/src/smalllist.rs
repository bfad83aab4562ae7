//! An inline list for the zero- and one-element cases.

use serde::{Deserialize, Serialize};

/// A list that heap-allocates only from its second element on.
///
/// In a campaign DAG almost every task has at most one dependency (a
/// document's parse waits on its extract), at most one dependent, and an id
/// naming exactly one pending instance, so a `Vec` per entry would be a
/// million one-element allocations per drain. This is the one type behind
/// [`crate::Task::depends_on`] and the executor's pending-set edge lists.
///
/// # Example
///
/// ```
/// use hpcsim::SmallList;
///
/// let mut deps = SmallList::None;
/// deps.push(7u64);
/// assert_eq!(deps, SmallList::One(7));
/// deps.push(9);
/// assert_eq!(deps.as_slice(), &[7, 9]);
/// assert_eq!(deps.take().as_slice(), &[7, 9]);
/// assert!(deps.as_slice().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub enum SmallList<T> {
    /// No elements.
    #[default]
    None,
    /// Exactly one element, stored inline.
    One(T),
    /// Any number of elements, in insertion order.
    Many(Vec<T>),
}

impl<T> SmallList<T> {
    /// Append `item`, keeping insertion order.
    pub fn push(&mut self, item: T) {
        match std::mem::take(self) {
            SmallList::None => *self = SmallList::One(item),
            SmallList::One(first) => *self = SmallList::Many(vec![first, item]),
            SmallList::Many(mut list) => {
                list.push(item);
                *self = SmallList::Many(list);
            }
        }
    }

    /// The elements, in insertion order.
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallList::None => &[],
            SmallList::One(item) => std::slice::from_ref(item),
            SmallList::Many(list) => list,
        }
    }

    /// The elements, mutably (the length is fixed).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            SmallList::None => &mut [],
            SmallList::One(item) => std::slice::from_mut(item),
            SmallList::Many(list) => list,
        }
    }

    /// Move the list out, leaving it empty.
    pub fn take(&mut self) -> SmallList<T> {
        std::mem::take(self)
    }
}

/// Lists are equal when their elements are, whichever variant holds them.
impl<T: PartialEq> PartialEq for SmallList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Serialize> Serialize for SmallList<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for SmallList<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_none_to_one_to_many_in_insertion_order() {
        let mut list = SmallList::None;
        assert!(list.as_slice().is_empty());
        list.push(3usize);
        assert!(matches!(list, SmallList::One(3)));
        list.push(1);
        list.push(2);
        assert!(matches!(list, SmallList::Many(_)));
        assert_eq!(list.as_slice(), &[3, 1, 2]);
        list.as_mut_slice()[0] = 13;
        assert_eq!(list.take(), SmallList::Many(vec![13, 1, 2]));
        assert_eq!(list, SmallList::None);
    }

    #[test]
    fn equality_follows_the_elements_not_the_variant() {
        assert_eq!(SmallList::<u64>::Many(vec![]), SmallList::None);
        assert_eq!(SmallList::Many(vec![7u64]), SmallList::One(7));
        assert_ne!(SmallList::Many(vec![7u64, 8]), SmallList::One(7));
        let mut one = SmallList::One(1usize);
        one.as_mut_slice()[0] = 2;
        assert_eq!(one.take().as_slice(), &[2]);
    }
}
