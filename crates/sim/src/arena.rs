//! A slab arena with stable `u32` handles and a free list.
//!
//! The fabric keeps every in-flight packet in one of two of these instead
//! of in per-event `Box` allocations — whole packets in one, traffic-plan
//! flow bodies (16 bytes a slot) in the other: events and port queues
//! carry a 4-byte handle, payload memory is recycled through the free
//! list, and peak footprint is the peak number of in-flight packets times
//! the slot size rather than allocator churn. The free list lives in the
//! free slots themselves (a free slot holds the index of the next), so it
//! costs no memory beside the slab, and it is last-freed-first: the slot
//! freed last, likely still cached, is the next one allocated. The arena
//! is deliberately *not* generational — handles are freed exactly once at
//! the packet's single point of consumption, and the leak test
//! (`live() == 0` after a drained run) catches double-free/leak bugs.

/// One slot: a value, or a link of the free list. For a `T` with a niche
/// that a `u32` fits beside (a whole packet, a flow body) the slot is no
/// larger than `T`.
enum Slot<T> {
    Live(T),
    /// The slot freed before this one, or [`END`].
    Free(u32),
}

/// The end of the free list, and so never a handle.
const END: u32 = u32::MAX;

/// A growable slab of `T` with O(1) alloc/free and stable handles.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// The slot freed last, or [`END`] when every slot is live.
    free: u32,
    live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena::with_capacity(0)
    }

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(cap),
            free: END,
            live: 0,
        }
    }

    /// Stores `value`, reusing the slot freed last when one is free.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if self.free != END {
            let at = self.free;
            let slot = &mut self.slots[at as usize];
            let Slot::Free(next) = *slot else {
                unreachable!("the free list holds free slots")
            };
            self.free = next;
            *slot = Slot::Live(value);
            at
        } else {
            let at = u32::try_from(self.slots.len()).ok().filter(|&at| at != END);
            self.slots.push(Slot::Live(value));
            at.expect("arena overflow")
        }
    }

    /// Shared access to a live value.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn get(&self, handle: u32) -> &T {
        match &self.slots[handle as usize] {
            Slot::Live(value) => value,
            Slot::Free(_) => panic!("stale arena handle"),
        }
    }

    /// Exclusive access to a live value.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn get_mut(&mut self, handle: u32) -> &mut T {
        match &mut self.slots[handle as usize] {
            Slot::Live(value) => value,
            Slot::Free(_) => panic!("stale arena handle"),
        }
    }

    /// Moves the value out, freeing the slot.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn take(&mut self, handle: u32) -> T {
        let slot = &mut self.slots[handle as usize];
        if let Slot::Free(_) = slot {
            panic!("stale arena handle");
        }
        let Slot::Live(value) = std::mem::replace(slot, Slot::Free(self.free)) else {
            unreachable!("checked above")
        };
        self.free = handle;
        self.live -= 1;
        value
    }

    /// Drops the value, freeing the slot.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn free(&mut self, handle: u32) {
        drop(self.take(handle));
    }

    /// Number of live values (allocations minus frees).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slab capacity high-water mark (live + free slots).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.alloc("one".to_string());
        let h2 = a.alloc("two".to_string());
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(h1), "one");
        *a.get_mut(h2) = "two!".to_string();
        assert_eq!(a.take(h2), "two!");
        assert_eq!(a.live(), 1);
        a.free(h1);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = Arena::with_capacity(4);
        let h1 = a.alloc(1u64);
        a.free(h1);
        let h2 = a.alloc(2u64);
        assert_eq!(h1, h2, "freed slot must be reused");
        assert_eq!(a.slots(), 1);
        assert_eq!(*a.get(h2), 2);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_handle_panics() {
        let mut a = Arena::new();
        let h = a.alloc(7u8);
        a.free(h);
        let _ = a.get(h);
    }

    #[test]
    fn interleaved_churn_tracks_live_count() {
        let mut a = Arena::new();
        let mut handles = Vec::new();
        for round in 0..100u32 {
            handles.push(a.alloc(round));
            if round % 3 == 0 {
                let h = handles.remove(0);
                let _ = a.take(h);
            }
        }
        assert_eq!(a.live(), handles.len());
        for h in handles.drain(..) {
            a.free(h);
        }
        assert_eq!(a.live(), 0);
        assert!(a.slots() <= 100);
    }

    /// A free slot's link sits beside a value's niche: a slot of a type
    /// with one is no larger than the type.
    #[test]
    fn a_slot_costs_nothing_beside_a_niche() {
        use std::mem::size_of;
        assert_eq!(size_of::<Slot<(u64, bool)>>(), 16);
        assert_eq!(size_of::<Slot<(u64, u32, u16, bool)>>(), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any interleaving of allocs and frees, handles come back in
        /// the order a plain `Vec<u32>` stack of freed handles gives (the
        /// slot freed last first, a new slot when none is free), the
        /// values stay where they were put, and `live()` and `slots()`
        /// track the model.
        #[test]
        fn handles_come_back_in_free_stack_order(
            ops in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..400),
        ) {
            let mut arena = Arena::new();
            let (mut stack, mut len) = (Vec::<u32>::new(), 0u32);
            let mut held: Vec<(u32, usize)> = Vec::new();
            for (step, (alloc, pick)) in ops.into_iter().enumerate() {
                if alloc || held.is_empty() {
                    let expected = stack.pop().unwrap_or_else(|| {
                        len += 1;
                        len - 1
                    });
                    prop_assert_eq!(arena.alloc(step), expected);
                    held.push((expected, step));
                } else {
                    let (handle, value) = held.swap_remove(pick.index(held.len()));
                    prop_assert_eq!(arena.take(handle), value);
                    stack.push(handle);
                }
                prop_assert_eq!(arena.live(), held.len());
                prop_assert_eq!(arena.slots(), len as usize);
                for &(handle, value) in &held {
                    prop_assert_eq!(*arena.get(handle), value);
                }
            }
        }
    }
}
