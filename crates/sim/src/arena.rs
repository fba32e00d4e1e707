//! A slab arena with stable `u32` handles and a free list.
//!
//! The fabric keeps every in-flight packet in one of two of these instead
//! of in per-event `Box` allocations — whole packets in one, traffic-plan
//! flow bodies (24 bytes a slot) in the other: events and port queues
//! carry a 4-byte handle, payload memory is recycled through the free
//! list, and peak footprint is the peak number of in-flight packets times
//! the slot size rather than allocator churn. The arena is
//! deliberately *not* generational — handles are freed exactly once at the
//! packet's single point of consumption, and the leak test
//! (`live() == 0` after a drained run) catches double-free/leak bugs.

/// A growable slab of `T` with O(1) alloc/free and stable handles.
pub struct Arena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `value`, reusing a freed slot when one exists.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i as usize].is_none());
            self.slots[i as usize] = Some(value);
            i
        } else {
            let i = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Some(value));
            i
        }
    }

    /// Shared access to a live value.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn get(&self, handle: u32) -> &T {
        self.slots[handle as usize]
            .as_ref()
            .expect("stale arena handle")
    }

    /// Exclusive access to a live value.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn get_mut(&mut self, handle: u32) -> &mut T {
        self.slots[handle as usize]
            .as_mut()
            .expect("stale arena handle")
    }

    /// Moves the value out, freeing the slot.
    ///
    /// # Panics
    /// If `handle` is stale or out of range.
    pub fn take(&mut self, handle: u32) -> T {
        let v = self.slots[handle as usize]
            .take()
            .expect("stale arena handle");
        self.free.push(handle);
        self.live -= 1;
        v
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
}
