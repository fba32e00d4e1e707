//! The compact forms a [`DeviceRecord`](crate::DeviceRecord) keeps: a
//! turn pool as long as its recorded turns and a port vector whose first
//! blocks are inline.
//!
//! A topology database holds one record per device, and on the large
//! fabrics nearly every device is a one-port endpoint a few switches
//! from the manager. A [`TurnPool`] is 72 bytes whatever it holds, and a
//! `Vec` of one port block is a heap chunk of its own; these forms hold
//! such a record's route and ports in the record itself.

use asi_proto::{PortInfo, TurnPool, POOL_WORDS};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A turn pool as a device record keeps it: its recorded turn bits and
/// its capacity. Up to 64 bits are inline; a longer pool's bits are a
/// boxed slice of just the words they fill. A full [`TurnPool`] is built
/// ([`PackedPool::to_pool`]) only where a request header or an encoding
/// needs one.
#[derive(Clone)]
pub struct PackedPool {
    bits: Bits,
    len: u16,
    capacity: u16,
}

#[derive(Clone, PartialEq, Eq)]
enum Bits {
    Inline(u64),
    Spilled(Box<[u64]>),
}

impl PackedPool {
    /// Total recorded turn bits.
    pub fn len_bits(&self) -> u16 {
        self.len
    }

    /// Capacity in bits, as the pool it was packed from had.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// The pool it was packed from.
    pub fn to_pool(&self) -> TurnPool {
        let mut words = [0; POOL_WORDS];
        match &self.bits {
            Bits::Inline(w) => words[0] = *w,
            Bits::Spilled(ws) => words[..ws.len()].copy_from_slice(ws),
        }
        TurnPool::from_words(words, self.len, self.capacity).expect("packed from a valid pool")
    }
}

impl From<&TurnPool> for PackedPool {
    fn from(pool: &TurnPool) -> PackedPool {
        // A pool's bits above its length are zero, so the words its
        // length spans are all of it.
        let words = &pool.words()[..usize::from(pool.len_bits()).div_ceil(64)];
        let bits = match words {
            [] => Bits::Inline(0),
            [w] => Bits::Inline(*w),
            _ => Bits::Spilled(words.into()),
        };
        PackedPool {
            bits,
            len: pool.len_bits(),
            capacity: pool.capacity(),
        }
    }
}

// Equality is over the recorded turns only, as a `TurnPool`'s is.
impl PartialEq for PackedPool {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits && self.len == other.len
    }
}
impl Eq for PackedPool {}

impl fmt::Debug for PackedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_pool().fmt(f)
    }
}

/// Port blocks a [`PortBlocks`] holds inline: every endpoint's (an
/// endpoint has at most four ports).
const INLINE_PORTS: usize = 4;

/// A device's per-port attributes, `None` until the port's block has
/// been read: a fixed-length slice (through `Deref`) whose first
/// `INLINE_PORTS` (4) blocks are inline, so an endpoint's need no heap
/// chunk; a switch's are one boxed slice.
#[derive(Clone)]
pub struct PortBlocks(Blocks);

#[derive(Clone)]
enum Blocks {
    Inline(u8, [Option<PortInfo>; INLINE_PORTS]),
    Boxed(Box<[Option<PortInfo>]>),
}

impl PortBlocks {
    /// `count` ports, none read yet.
    pub fn unread(count: usize) -> PortBlocks {
        match u8::try_from(count) {
            Ok(n) if count <= INLINE_PORTS => PortBlocks(Blocks::Inline(n, [None; INLINE_PORTS])),
            _ => PortBlocks(Blocks::Boxed(vec![None; count].into())),
        }
    }
}

impl From<Vec<Option<PortInfo>>> for PortBlocks {
    fn from(blocks: Vec<Option<PortInfo>>) -> PortBlocks {
        let mut out = PortBlocks::unread(blocks.len());
        out.copy_from_slice(&blocks);
        out
    }
}

impl FromIterator<Option<PortInfo>> for PortBlocks {
    fn from_iter<I: IntoIterator<Item = Option<PortInfo>>>(blocks: I) -> PortBlocks {
        blocks.into_iter().collect::<Vec<_>>().into()
    }
}

impl<'a> IntoIterator for &'a PortBlocks {
    type Item = &'a Option<PortInfo>;
    type IntoIter = std::slice::Iter<'a, Option<PortInfo>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Deref for PortBlocks {
    type Target = [Option<PortInfo>];

    fn deref(&self) -> &[Option<PortInfo>] {
        match &self.0 {
            Blocks::Inline(n, blocks) => &blocks[..usize::from(*n)],
            Blocks::Boxed(blocks) => blocks,
        }
    }
}

impl DerefMut for PortBlocks {
    fn deref_mut(&mut self) -> &mut [Option<PortInfo>] {
        match &mut self.0 {
            Blocks::Inline(n, blocks) => &mut blocks[..usize::from(*n)],
            Blocks::Boxed(blocks) => blocks,
        }
    }
}

impl PartialEq for PortBlocks {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for PortBlocks {}

impl fmt::Debug for PortBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_proto::{PortState, MAX_POOL_BITS};

    /// A pool of `turns` 4-bit turns, each its index mod 16.
    fn pool(turns: u16, capacity: u16) -> TurnPool {
        let mut pool = TurnPool::with_capacity(capacity);
        for t in 0..turns {
            pool.push_turn((t % 16) as u8, 4).unwrap();
        }
        pool
    }

    #[test]
    fn a_pool_packs_and_unpacks_on_both_sides_of_one_word() {
        for turns in [0, 1, 15, 16, 17, 32, 100, 128] {
            let full = pool(turns, MAX_POOL_BITS);
            let packed = PackedPool::from(&full);
            assert_eq!(packed.len_bits(), full.len_bits());
            assert_eq!(packed.capacity(), MAX_POOL_BITS);
            let back = packed.to_pool();
            assert_eq!(back, full, "{turns} turns");
            assert_eq!(back.capacity(), full.capacity());
            assert_eq!(matches!(packed.bits, Bits::Inline(_)), turns <= 16);
            assert_eq!(format!("{packed:?}"), format!("{full:?}"));
        }
        // Equality ignores the capacity, as a pool's does.
        assert_eq!(
            PackedPool::from(&pool(3, 31)),
            PackedPool::from(&pool(3, 64))
        );
        assert_ne!(
            PackedPool::from(&pool(3, 64)),
            PackedPool::from(&pool(4, 64))
        );
    }

    #[test]
    fn port_blocks_are_a_slice_inline_or_boxed() {
        let up = Some(PortInfo {
            state: PortState::Active,
            link_width: 1,
            link_speed: 10,
            peer_port: 2,
        });
        for count in [0, 1, INLINE_PORTS, INLINE_PORTS + 1, 67] {
            let mut blocks = PortBlocks::unread(count);
            assert_eq!(blocks.len(), count);
            assert!(blocks.iter().all(Option::is_none));
            assert_eq!(
                matches!(blocks.0, Blocks::Inline(..)),
                count <= INLINE_PORTS
            );
            if let Some(last) = blocks.last_mut() {
                *last = up;
            }
            let mut want = vec![None; count];
            if let Some(last) = want.last_mut() {
                *last = up;
            }
            assert_eq!(&*blocks, &want[..]);
            assert_eq!(blocks, PortBlocks::from(want));
        }
        // Three words: no larger than the `Vec` each replaces, a third
        // of the `TurnPool`.
        assert!(std::mem::size_of::<PortBlocks>() <= 24);
        assert!(std::mem::size_of::<PackedPool>() <= 24);
    }
}
