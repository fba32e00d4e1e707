//! Bucketed timing wheel (calendar queue) for the simulation kernels.
//!
//! The classic binary-heap event queue pays `O(log n)` per operation with a
//! comparison on every sift step. Discovery workloads are strongly
//! *time-local*: almost every event is scheduled within a few microseconds of
//! the current time (link propagation, serialization delay, switch latency),
//! with a thin tail of long timers (training, agent timeouts, staggered
//! activations). A calendar queue exploits that shape: time is cut into
//! buckets of `2^shift` ps, a ring of `buckets` of them covers the *horizon*
//! ahead of the bucket being drained (`cur`), and an occupancy bitmap (one
//! bit per ring bucket) lets an empty stretch of the calendar be skipped in a
//! handful of word scans instead of bucket by bucket.
//!
//! ```text
//!                     push(key, val)          b = key.time >> shift
//!           ┌──────────────┼───────────────────────┐
//!       b <= cur    cur < b <= cur + mask     beyond the horizon
//!           │              │                       │
//!           ▼              ▼                       ▼
//!         late       heads[b & mask]            overflow
//!     min-heap of    u32 list head ─► node      min-heap of
//!     (key, index)     ─► node ─► NIL           (key, val), inline
//!           │              │                       │
//!           │              │ bucket b comes up:    │ its entries of bucket b
//!           │              │ walk the list         │ take a node each
//!           │              ▼                       │
//!           │        sorted: (key, index) pairs ◄──┘
//!           │        sorted once, consumed from the tail
//!           │              │
//!           └──── pop: the smaller of the two heads ─► slab.take(index)
//!
//!     slab: Vec<Node { key, next, val }> — one node per entry of the ring
//!           and the current bucket; a freed node heads the free list and
//!           is the next one taken; shrunk by release() once drained
//! ```
//!
//! The four rules of the storage:
//!
//! 1. **One slab.** Every entry inside the horizon lives in one `Vec` of
//!    nodes `{ key, next, val }`, and a ring bucket is a `u32` list head
//!    (16 KB for the default 4,096 buckets). A push into the ring is "take
//!    the node freed last, link it": no per-bucket buffer exists, so
//!    nothing is allocated per bucket and an entry's payload is written
//!    once and read once. The free list runs through the same `next` field
//!    the bucket lists use. (The slab is the wheel's own and not a
//!    [`crate::Arena`]: on the 64×64 mesh the arena's `Option<Node>` slots
//!    and separate free stack cost 4% of the whole discovery, sixteen
//!    interleaved rounds, and still 3% with the arena's free list made
//!    intrusive.) The slab grows to the peak residency and keeps it until
//!    `TimingWheel::release` hands it back, which the serial kernel does
//!    whenever it drains, so that a burst's slab is not held through the
//!    quieter phase after it. The fabric's bring-up is no such burst (two
//!    events: one activation run, one training batch); the FM's first
//!    PI-5 configuration, which injects every device's reporting-route
//!    write at once, is.
//! 2. **A bucket is sorted once, when it comes up.** Its list — plus
//!    whatever the overflow heap holds for it — is copied out as
//!    `(key, index)` pairs, sorted, and consumed from the tail:
//!    `O(k log k)` in the bucket's population `k` (1.2 on a 64×64 mesh),
//!    with no sifting per pop.
//! 3. **A push into the bucket being drained goes to a min-heap** of
//!    `(key, index)` pairs (about one push in five on that mesh: a hop is
//!    ~209 ns, a bucket 262 ns), and `pop` takes the smaller of the two
//!    heads. So a push is `O(log n)` in the worst case — including when a
//!    [`TimingWheel::peek_key`] has left `cur` far ahead of the clock and
//!    every push lands "late". Inserting into the sorted run instead is as
//!    fast on a steady run but linear per push: the 8,192 same-instant
//!    activations of a 64×64 mesh's bring-up, one event per device then,
//!    each moved the whole bucket and tripled its set-up time
//!    (0.009 → 0.022 s).
//! 4. **The overflow heap keeps its entries inline** and an entry takes a
//!    node only when its bucket comes up, so far-future events — each
//!    agent's earliest timer, fault and churn plans — cost one heap push
//!    and pop. An entry is inline but not free (48 bytes for the
//!    fabric's events), so a model should not lay out a long stream of
//!    future events at once: the fabric's traffic keeps one pending
//!    arrival per flow and schedules the next when it fires, and an
//!    agent's timers wait on its ledger, one event for the earliest,
//!    so an answered request's timeout never reaches the heap.
//!
//! Entries are ordered by [`EventKey`] — `(time, origin, seq)` — the
//! deterministic total order shared by the serial and parallel kernels (see
//! [`crate::kernel`]). The wheel does not support cancellation; the kernels
//! built on it never cancel (the fabric cancels an agent's timer on the
//! agent's own ledger, and an event already scheduled for it fires and
//! finds nothing).

use crate::kernel::EventKey;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width: 2^18 ps ≈ 262 ns — a few serialization delays.
pub const DEFAULT_BUCKET_SHIFT: u32 = 18;
/// Default bucket count (must be a power of two): horizon ≈ 1.07 ms.
pub const DEFAULT_BUCKETS: usize = 4096;

/// End of a bucket's list and of the free list.
const NIL: u32 = u32::MAX;

/// What [`TimingWheel::release`] leaves each of its three buffers: a few
/// entries, not none. A burst's buffers are mapped blocks of their own,
/// and glibc's `malloc` raises its mmap threshold to the size of any
/// mapped block that is *freed* (up to 32 MiB); from then on it carves
/// every smaller block from the heap, where each doubling of a growing
/// table leaves its old buffer behind, resident. A block shrunk by
/// `realloc` is remapped, and the threshold stays where it was. On
/// `dragonfly:8,48` that is the difference between 9.6 MB of such holes
/// in the heap at the end of the discovery (the database's slots and
/// index, the engine's waiting queue) and 0.3 MB. Elsewhere a shrink
/// hands the memory back as a free would.
const KEPT_ON_RELEASE: usize = 64;

/// A slab node: one entry of the ring or of the current bucket, or free.
struct Node<T> {
    key: EventKey,
    /// Next node of the same ring bucket, or — in a free node — the node
    /// freed before this one.
    next: u32,
    /// `None` in a free node.
    val: Option<T>,
}

/// An entry of the current bucket: its key and its node's slab index.
type Ticket = (EventKey, u32);

/// An overflow `(key, value)` entry ordered by key alone, reversed so that
/// `BinaryHeap` acts as a min-heap.
struct Entry<T> {
    key: EventKey,
    val: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key) // reversed: BinaryHeap is a max-heap
    }
}

/// A calendar queue over `(EventKey, T)` pairs.
///
/// `T` is opaque payload (the kernels store `(target rank, event)`).
pub struct TimingWheel<T> {
    /// Every entry of the ring and of the current bucket, and the nodes
    /// they have given back.
    nodes: Vec<Node<T>>,
    /// The node freed last: the head of the free list.
    free: u32,
    /// Ring of future buckets. `heads[b & mask]` heads the list of entries
    /// whose bucket index is the unique value congruent to `b` in
    /// `(cur, cur + nbuckets)`.
    heads: Vec<u32>,
    /// Occupancy bitmap over `heads` (64 buckets per word).
    occ: Vec<u64>,
    /// What the current bucket held when it came up, largest key first:
    /// the tail is the head of the order.
    sorted: Vec<Ticket>,
    /// Entries pushed into the current bucket (or behind it) since.
    late: BinaryHeap<Reverse<Ticket>>,
    /// Entries beyond the ring horizon.
    overflow: BinaryHeap<Entry<T>>,
    /// Absolute index of the bucket being drained.
    cur: u64,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// `heads.len() - 1` (bucket count is a power of two).
    mask: u64,
    /// Live entry count across current bucket + ring + overflow.
    len: usize,
    /// Largest key popped so far (push-order sanity checks).
    last_pop: EventKey,
}

impl<T> TimingWheel<T> {
    /// A wheel with the default geometry (262 ns × 4096 buckets ≈ 1.07 ms
    /// horizon).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_BUCKETS)
    }

    /// A wheel with explicit geometry. `buckets` must be a power of two.
    pub fn with_geometry(bucket_shift: u32, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; buckets],
            occ: vec![0u64; buckets.div_ceil(64)],
            sorted: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            shift: bucket_shift,
            mask: buckets as u64 - 1,
            len: 0,
            last_pop: EventKey {
                time: crate::SimTime::ZERO,
                origin: 0,
                seq: 0,
            },
        }
    }

    #[inline]
    fn bucket_of(&self, key: &EventKey) -> u64 {
        key.time.as_ps() >> self.shift
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Keys must not precede the last *popped* key; the
    /// kernels guarantee this because event times never precede the time of
    /// the event being dispatched. (`cur` may sit arbitrarily far ahead
    /// after a peek skipped an empty stretch — a late push simply joins the
    /// late heap and pops first.)
    #[inline]
    pub fn push(&mut self, key: EventKey, val: T) {
        let b = self.bucket_of(&key);
        debug_assert!(
            key >= self.last_pop,
            "timing wheel key precedes the last popped key"
        );
        self.len += 1;
        if b <= self.cur {
            let index = self.node(key, NIL, val);
            self.late.push(Reverse((key, index)));
        } else if b - self.cur <= self.mask {
            let slot = (b & self.mask) as usize;
            self.heads[slot] = self.node(key, self.heads[slot], val);
            self.occ[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.overflow.push(Entry { key, val });
        }
    }

    /// Smallest pending key, advancing the wheel as needed.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.head().map(|(key, _)| key)
    }

    /// Pops the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let (_, in_late) = self.head()?;
        let (_, index) = if in_late {
            self.late.pop().expect("head").0
        } else {
            self.sorted.pop().expect("head")
        };
        let node = &mut self.nodes[index as usize];
        let key = node.key;
        let val = node.val.take().expect("a live node");
        node.next = std::mem::replace(&mut self.free, index);
        self.len -= 1;
        self.last_pop = key;
        Some((key, val))
    }

    /// Hands the slab back: shrinks the nodes and the current bucket's
    /// two buffers, which a burst (the FM's first PI-5 configuration
    /// writes every device's route at once) has sized for itself, to [`KEPT_ON_RELEASE`] entries. Only for a
    /// drained wheel; the next push starts the slab again from its first
    /// node. The serial kernel calls this when it runs dry; the parallel
    /// kernel, whose shard wheels run empty in most windows, does not.
    pub(crate) fn release(&mut self) {
        debug_assert!(self.is_empty(), "released a wheel with entries");
        self.nodes.clear();
        self.nodes.shrink_to(KEPT_ON_RELEASE);
        self.free = NIL;
        self.sorted.clear();
        self.sorted.shrink_to(KEPT_ON_RELEASE);
        self.late.clear();
        self.late.shrink_to(KEPT_ON_RELEASE);
    }

    /// Slab nodes allocated, live or free.
    #[cfg(test)]
    pub(crate) fn slab_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Stores an entry in the node freed last (a new one if none is free)
    /// and returns its index.
    #[inline]
    fn node(&mut self, key: EventKey, next: u32, val: T) -> u32 {
        let val = Some(val);
        let index = self.free;
        if let Some(node) = self.nodes.get_mut(index as usize) {
            self.free = node.next;
            *node = Node { key, next, val };
            index
        } else {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&index| index != NIL)
                .expect("timing wheel slab overflow");
            self.nodes.push(Node { key, next, val });
            index
        }
    }

    /// The smallest pending key and whether it heads `late` (else
    /// `sorted`), bringing the next occupied bucket up if the current one
    /// is drained.
    #[inline]
    fn head(&mut self) -> Option<(EventKey, bool)> {
        if self.sorted.is_empty() && self.late.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        match (self.sorted.last(), self.late.peek()) {
            (Some(&(s, _)), Some(&Reverse((l, _)))) if l < s => Some((l, true)),
            (Some(&(s, _)), _) => Some((s, false)),
            (None, Some(&Reverse((l, _)))) => Some((l, true)),
            (None, None) => unreachable!("advance brings up an occupied bucket"),
        }
    }

    /// Moves `cur` to the next occupied bucket — the nearest occupied ring
    /// slot and the overflow head's bucket compete — and fills `sorted`
    /// with it. The current bucket must be drained and `len > 0`.
    fn advance(&mut self) {
        let ring_next = self.next_occupied();
        let ov_next = self.overflow.peek().map(|e| self.bucket_of(&e.key));
        self.cur = match (ring_next, ov_next) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no bucket occupied"),
        };
        let slot = (self.cur & self.mask) as usize;
        if self.occ[slot / 64] & (1u64 << (slot % 64)) != 0 {
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
            let mut index = std::mem::replace(&mut self.heads[slot], NIL);
            while index != NIL {
                let node = &self.nodes[index as usize];
                debug_assert_eq!(self.bucket_of(&node.key), self.cur);
                self.sorted.push((node.key, index));
                index = node.next;
            }
        }
        // Overflow entries that have rotated into the current bucket.
        while let Some(head) = self.overflow.peek() {
            if self.bucket_of(&head.key) != self.cur {
                break;
            }
            let Entry { key, val } = self.overflow.pop().expect("peeked");
            let index = self.node(key, NIL, val);
            self.sorted.push((key, index));
        }
        if self.sorted.len() > 1 {
            self.sorted.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Absolute index of the nearest occupied ring slot strictly after
    /// `cur`, scanning the bitmap one word at a time (wrapping).
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cur + 1) & self.mask) as usize;
        let mut word = start / 64;
        let words = self.occ.len();
        // First (partial) word: bits at or after `start`.
        let mut bits = self.occ[word] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if bits != 0 {
                let slot = (word * 64 + bits.trailing_zeros() as usize) as u64;
                // Distance from cur+1 going forward, wrapping.
                let d = (slot.wrapping_sub(self.cur + 1)) & self.mask;
                return Some(self.cur + 1 + d);
            }
            scanned += 1;
            if scanned > words {
                return None;
            }
            word = (word + 1) % words;
            bits = self.occ[word];
            if scanned == words {
                // Final wrap: only bits strictly before `start` remain
                // unexamined in this word.
                if start.is_multiple_of(64) {
                    return None;
                }
                bits &= (1u64 << (start % 64)) - 1;
            }
        }
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(ps: u64, origin: u32, seq: u32) -> EventKey {
        EventKey {
            time: SimTime::from_ps(ps),
            origin,
            seq,
        }
    }

    /// Slab nodes that hold an entry.
    fn live_nodes<T>(w: &TimingWheel<T>) -> usize {
        w.nodes.iter().filter(|node| node.val.is_some()).count()
    }

    #[test]
    fn pops_in_key_order_within_and_across_buckets() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 8); // 16 ps × 8
        let keys = [
            key(3, 1, 0),
            key(3, 0, 2),
            key(17, 0, 0),
            key(1000, 2, 5), // overflow (horizon = 128 ps)
            key(40, 0, 1),
            key(3, 0, 1),
        ];
        for (i, k) in keys.iter().enumerate() {
            w.push(*k, i as u32);
        }
        assert_eq!(w.len(), 6);
        let mut popped = Vec::new();
        while let Some((k, _)) = w.pop() {
            popped.push(k);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        let mut rng = SimRng::new(0x57EE1);
        let mut wheel: TimingWheel<u64> = TimingWheel::with_geometry(6, 64);
        let mut reference: Vec<EventKey> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u32;
        let mut last_pop = key(0, 0, 0);
        for round in 0..2000u64 {
            // Push a burst of events at or after `now`, mixing near and far.
            let burst = 1 + (rng.gen_below(4) as usize);
            for _ in 0..burst {
                let dt = if rng.gen_bool(0.9) {
                    rng.gen_below(500) // near: within a few buckets
                } else {
                    rng.gen_below(1_000_000) // far: deep overflow
                };
                let mut k = key(now + dt, (round % 5) as u32, seq);
                if k < last_pop {
                    // Respect the push invariant (keys never precede the
                    // last popped key), as the kernels do.
                    k.time = SimTime::from_ps(last_pop.time.as_ps() + 1);
                }
                seq += 1;
                wheel.push(k, round);
                reference.push(k);
            }
            // Pop one or two.
            for _ in 0..(1 + rng.gen_below(2)) {
                let got = wheel.pop().map(|(k, _)| k);
                reference.sort();
                let want = if reference.is_empty() {
                    None
                } else {
                    Some(reference.remove(0))
                };
                assert_eq!(got, want, "divergence at round {round}");
                if let Some(k) = got {
                    now = k.time.as_ps();
                    last_pop = k;
                }
            }
        }
        // Drain the rest.
        reference.sort();
        for want in reference {
            assert_eq!(wheel.pop().map(|(k, _)| k), Some(want));
        }
        assert_eq!(wheel.pop().map(|(k, _)| k), None);
    }

    #[test]
    fn peek_matches_pop_and_len_tracks() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.peek_key(), None);
        w.push(key(5_000_000, 0, 0), ()); // 5 µs: beyond one bucket
        w.push(key(10, 0, 1), ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_key(), Some(key(10, 0, 1)));
        assert_eq!(w.pop().map(|(k, _)| k), Some(key(10, 0, 1)));
        assert_eq!(w.peek_key(), Some(key(5_000_000, 0, 0)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(k, _)| k), Some(key(5_000_000, 0, 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn same_bucket_push_after_pop_lands_in_active() {
        let mut w: TimingWheel<u8> = TimingWheel::with_geometry(10, 16); // 1024 ps
        w.push(key(100, 0, 0), 1);
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        // Same bucket as the popped event, later key: must still fire.
        w.push(key(300, 0, 1), 2);
        w.push(key(200, 1, 0), 3);
        assert_eq!(w.pop().map(|(_, v)| v), Some(3));
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn deep_overflow_drains_after_long_gap() {
        let mut w: TimingWheel<u32> = TimingWheel::with_geometry(4, 8);
        // Horizon is 128 ps; schedule a far timeout and a near event.
        w.push(key(7, 0, 0), 0);
        w.push(key(1 << 30, 0, 1), 1);
        w.push(key((1 << 30) + 3, 0, 2), 2);
        assert_eq!(w.pop().map(|(_, v)| v), Some(0));
        assert_eq!(w.pop().map(|(_, v)| v), Some(1));
        assert_eq!(w.pop().map(|(_, v)| v), Some(2));
        assert_eq!(w.pop().map(|(_, v)| v), None);
    }

    /// A same-instant burst lands in the bucket already being drained.
    #[test]
    fn a_same_instant_burst_into_the_bucket_being_drained_pops_in_order() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(key(1000, 0, 0), 0);
        assert_eq!(w.pop(), Some((key(1000, 0, 0), 0)));
        for seq in 1..=8192 {
            w.push(key(1000, 7, seq), seq);
        }
        assert_eq!((w.late.len(), w.sorted.len()), (8192, 0));
        for seq in 1..=8192 {
            assert_eq!(w.pop(), Some((key(1000, 7, seq), seq)));
        }
        assert!(w.is_empty());
        assert_eq!((live_nodes(&w), w.nodes.len()), (0, 8192));
    }

    /// One future bucket filled last key first: its list comes out in
    /// ascending order and is sorted once, when the bucket comes up.
    #[test]
    fn a_future_bucket_filled_in_descending_key_order_pops_ascending() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let base = 10u64 << DEFAULT_BUCKET_SHIFT;
        for i in (0..32_768u32).rev() {
            w.push(key(base + u64::from(i), i % 3, i), i);
        }
        assert_eq!(w.peek_key(), Some(key(base, 0, 0)));
        assert_eq!((w.late.len(), w.sorted.len()), (0, 32_768));
        for i in 0..32_768u32 {
            assert_eq!(w.pop(), Some((key(base + u64::from(i), i % 3, i), i)));
        }
        assert!(w.is_empty());
        assert_eq!((live_nodes(&w), w.nodes.len()), (0, 32_768));
    }

    /// The fabric's payload is `(u32, Event)` with a 24-byte, 8-aligned
    /// `Event` (pinned in `asi-fabric`, on a mirror of `Node`): key, link
    /// and payload are seven words, and the payload's `Option` costs
    /// nothing when the payload has a niche.
    #[test]
    fn node_of_a_four_word_payload_is_seven_words() {
        assert_eq!(std::mem::size_of::<Node<(u32, bool, [u64; 3])>>(), 56);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under any geometry and any interleaving of pushes (into each
        /// place a push can land), peeks, pops and releases of the
        /// drained wheel, the wheel is a `BTreeMap`, and its slab holds
        /// exactly the entries of ring and current bucket: nodes are
        /// recycled, overflow holds none, and the slab is as long as the
        /// peak residency since the last release.
        #[test]
        fn matches_a_btreemap_under_any_geometry_and_interleaving(
            shift in 0u32..=20,
            buckets_log2 in 0u32..=7,
            ops in prop::collection::vec((0u32..10, any::<u64>()), 1..400),
        ) {
            let buckets = 1usize << buckets_log2;
            let width = 1u64 << shift;
            let horizon = width * buckets as u64;
            let mut wheel: TimingWheel<u32> = TimingWheel::with_geometry(shift, buckets);
            let mut model: BTreeMap<EventKey, u32> = BTreeMap::new();
            let mut last = key(0, 0, 0);
            let mut peak = 0;
            // Then drain, so that deep overflow rotates in.
            let pops = std::iter::repeat_n(&(9, 0), ops.len());
            for (seq, &(op, r)) in ops.iter().chain(pops).enumerate() {
                let seq = seq as u32 + 1;
                let now = last.time.as_ps();
                let bucket_start = now & !(width - 1);
                let push_at = match op {
                    // The bucket being drained: before, between or behind
                    // what is left of it (a `peek_key` may have moved
                    // `cur` on, and then this lands behind `cur`).
                    0 | 1 => Some((bucket_start + r % width).max(now)),
                    // The instant of the last pop.
                    2 => Some(now),
                    // The next bucket.
                    3 => Some(bucket_start + width + r % width),
                    // Anywhere in the ring, wrap-around included.
                    4 => Some(now + r % horizon),
                    // Deep overflow.
                    5 => Some(now + horizon * (1 + r % 1000) + (r >> 32) % width),
                    _ => None,
                };
                let mut popped = false;
                if let Some(ps) = push_at {
                    // Never before the last pop: at its instant, its
                    // origin or a higher one, and `seq` only grows.
                    let origin = ((r >> 40) % 4) as u32;
                    let k = key(ps, origin.max(last.origin), seq);
                    wheel.push(k, seq);
                    model.insert(k, seq);
                } else if op == 6 {
                    prop_assert_eq!(wheel.peek_key(), model.keys().next().copied());
                } else if op == 7 && wheel.is_empty() {
                    wheel.release();
                    prop_assert!(wheel.nodes.capacity() <= KEPT_ON_RELEASE);
                    peak = 0;
                } else {
                    let got = wheel.pop();
                    prop_assert_eq!(got, model.pop_first());
                    if let Some((k, _)) = got {
                        last = k;
                        popped = true;
                    }
                }
                prop_assert_eq!(wheel.len(), model.len());
                prop_assert_eq!(wheel.is_empty(), model.is_empty());
                let resident = wheel.len() - wheel.overflow.len();
                prop_assert_eq!(live_nodes(&wheel), resident);
                // A pop frees its node after the bucket has come up.
                peak = peak.max(resident + usize::from(popped));
            }
            prop_assert_eq!(wheel.nodes.len(), peak);
            wheel.release();
            prop_assert!(wheel.nodes.capacity() <= KEPT_ON_RELEASE);
            // A released wheel starts again from an empty slab.
            let k = key(last.time.as_ps() + 1, 0, 0);
            wheel.push(k, 0);
            prop_assert_eq!((wheel.pop(), wheel.nodes.len()), (Some((k, 0)), 1));
        }
    }
}
