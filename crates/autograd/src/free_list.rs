//! The buffers a tape hands its ops' outputs and scratch, recycled
//! across the steps a [`Graph`](crate::Graph) runs.

use snappix_tensor::{BufferSource, SharedBuffer};
use std::sync::Arc;

/// Idle `f32` buffers for a tape's ops to write their outputs and
/// scratch into, instead of asking the heap.
///
/// A request for `len` elements takes the idle buffer of smallest
/// capacity that holds `len` (the exact length, when one is idle) and
/// sizes it to `len`; only when none fits does a fresh buffer come from
/// the heap. Taken buffers stay out until the tape resets. Then the
/// buffers the tape released (node values that no clone outlives, and
/// scratch) become the idle set, and idle buffers that no request of the
/// step took are dropped. So the list holds at most one step's buffers,
/// each as large as the largest request it served: a step no larger than
/// an earlier one takes nothing from the heap.
#[derive(Debug, Default)]
pub(crate) struct FreeList {
    /// Idle buffers, ascending by capacity.
    idle: Vec<SharedBuffer>,
    /// Scratch handed back during the step, idle again from the reset.
    returned: Vec<SharedBuffer>,
    /// Buffers taken from the heap since the last reset.
    requested: usize,
}

impl FreeList {
    /// Buffers taken from the heap since the last reset.
    pub(crate) fn requested(&self) -> usize {
        self.requested
    }

    /// Hands back a scratch buffer taken during this step; it is idle
    /// again from the next reset.
    pub(crate) fn give_back(&mut self, buf: SharedBuffer) {
        self.returned.push(buf);
    }

    /// Ends a step: `released` buffers (each held by nothing else) and
    /// handed-back scratch become the idle set; idle buffers the step
    /// did not take are dropped.
    pub(crate) fn reset(&mut self, released: impl IntoIterator<Item = SharedBuffer>) {
        self.idle.clear();
        self.idle.append(&mut self.returned);
        self.idle.extend(released);
        debug_assert!(self.idle.iter().all(|buf| Arc::strong_count(buf) == 1));
        self.idle.sort_unstable_by_key(|buf| buf.capacity());
        self.requested = 0;
    }
}

impl BufferSource for FreeList {
    fn take(&mut self, len: usize) -> SharedBuffer {
        let fit = self.idle.partition_point(|buf| buf.capacity() < len);
        if len > 0 && fit < self.idle.len() {
            let mut buf = self.idle.remove(fit);
            if let Some(v) = Arc::get_mut(&mut buf) {
                v.resize(len, 0.0);
                return buf;
            }
        }
        self.requested += 1;
        Arc::new(vec![0.0; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_no_larger_than_the_last_takes_nothing_from_the_heap() {
        let mut list = FreeList::default();
        let (a, b) = (list.take(8), list.take(3));
        assert_eq!((a.len(), b.len(), list.requested()), (8, 3, 2));
        list.reset([a, b]);
        assert_eq!(list.requested(), 0);
        // Best fit: 3 takes the 3-buffer, 5 the 8-buffer, sized down.
        let (c, d) = (list.take(3), list.take(5));
        assert_eq!((c.len(), d.len(), list.requested()), (3, 5, 0));
        assert!(d.capacity() >= 8);
        // Nothing idle fits any more.
        let e = list.take(2);
        assert_eq!(list.requested(), 1);
        list.reset([c, d, e]);
        let big = list.take(9);
        assert_eq!((big.len(), list.requested()), (9, 1));
    }

    #[test]
    fn scratch_comes_back_and_untaken_buffers_are_dropped() {
        let mut list = FreeList::default();
        let (a, b) = (list.take(4), list.take(4));
        list.reset([a, b]);
        assert_eq!(list.idle.len(), 2);
        let scratch = list.take(4);
        list.give_back(scratch);
        list.reset([]);
        assert_eq!(list.idle.len(), 1, "handed-back scratch is idle again");
        list.reset([]);
        assert!(list.idle.is_empty(), "a buffer no request took is dropped");
    }
}
