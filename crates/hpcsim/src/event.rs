//! The discrete-event ready queue.
//!
//! [`ReadyQueue`] is the ordering heart of the dependency-aware executor: a
//! time-ordered queue whose ties break by an explicit id (then insertion
//! order), so the engine's scheduling decisions are bitwise-independent of
//! the order work was submitted in. Since the executor became
//! event-interleaved it is also the *session-persistent* admission queue:
//! batches enqueued between drains push into one shared queue, so a later
//! batch's task released earlier (or tying on time with a smaller id) is
//! dispatched first, regardless of which `submit` call carried it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An entry of a [`ReadyQueue`]: a payload released at a time, ordered by
/// `(time, id, insertion order)`.
#[derive(Debug, Clone)]
struct Ready<T> {
    time: f64,
    id: u64,
    sequence: u64,
    payload: T,
}

impl<T> PartialEq for Ready<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id && self.sequence == other.sequence
    }
}

impl<T> Eq for Ready<T> {}

impl<T> Ord for Ready<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering for the max-heap: earliest time first, then the
        // smallest id, then insertion order (covers duplicate ids).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl<T> PartialOrd for Ready<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue whose ties break by an explicit id instead of
/// insertion order — the dependency-aware executor's *ready queue*.
///
/// Two tasks becoming ready at the same simulated time are released in task-id
/// order no matter when (or in what order) they were pushed, which is what
/// makes DAG schedules independent of task submission order.
///
/// The executor pushes mostly in pop order already: a drain seeds a batch at
/// one release floor in ascending id order, dependents release at their
/// dependency's finish (the latest event so far, more often than not), and
/// compaction re-pushes in pop order. So entries live in two places: a FIFO
/// *run* taking every push not ordered before the run's tail — O(1), already
/// sorted — and a heap taking the rest. A pop takes the earlier of the two
/// heads, so the pop order is exactly that of one heap over everything.
#[derive(Debug, Clone)]
pub struct ReadyQueue<T> {
    /// Entries in pop order, each pushed no earlier than the one before it.
    run: VecDeque<Ready<T>>,
    /// Entries pushed out of order.
    heap: BinaryHeap<Ready<T>>,
    sequence: u64,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReadyQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        ReadyQueue { run: VecDeque::new(), heap: BinaryHeap::new(), sequence: 0 }
    }

    /// Release `payload` at `time`, tie-breaking by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, id: u64, payload: T) {
        assert!(!time.is_nan(), "ready time must not be NaN");
        let entry = Ready { time, id, sequence: self.sequence, payload };
        self.sequence += 1;
        // `Ready` orders in reverse, so `entry < tail` means it pops later.
        if self.run.back().is_none_or(|tail| entry < *tail) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Whether the next entry is the run's head (rather than the heap's).
    fn run_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => run > heap,
            (run, _) => run.is_some(),
        }
    }

    /// Pop the earliest entry as `(time, id, payload)`.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        let next = if self.run_first() { self.run.pop_front() } else { self.heap.pop() };
        next.map(|r| (r.time, r.id, r.payload))
    }

    /// Time of the next entry without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        let next = if self.run_first() { self.run.front() } else { self.heap.peek() };
        next.map(|r| r.time)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_queue_orders_by_time_then_id_not_insertion() {
        let mut q = ReadyQueue::new();
        q.push(2.0, 9, "late");
        q.push(1.0, 7, "b");
        q.push(1.0, 3, "a"); // same time, smaller id, inserted later
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, 3, "a")));
        assert_eq!(q.pop(), Some((1.0, 7, "b")));
        assert_eq!(q.pop(), Some((2.0, 9, "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ready_queue_duplicate_ids_fall_back_to_insertion_order() {
        let mut q = ReadyQueue::new();
        q.push(1.0, 4, 1);
        q.push(1.0, 4, 2);
        assert_eq!(q.pop(), Some((1.0, 4, 1)));
        assert_eq!(q.pop(), Some((1.0, 4, 2)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_and_empty() {
        let mut q: ReadyQueue<()> = ReadyQueue::new();
        assert!(q.is_empty());
        q.push(0.0, 0, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ready_queue_nan_time_panics() {
        ReadyQueue::new().push(f64::NAN, 0, ());
    }
}
