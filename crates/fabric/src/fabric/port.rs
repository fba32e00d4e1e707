//! A port: link training and carrier, the two output queues it
//! borrows while it has something to send and the serializer that drains
//! them (`enqueue_out` → `pump` → `transmit`), credit flow control,
//! injected loss — and the one way a locally born packet gets in
//! (`inject`) and a dead one gets out (`drop_entry`). A port is 40
//! bytes, and one training event ends every training a dispatch
//! started, both ends of each link.
//!
//! ## Events per switch hop: three, two, one
//!
//! A forwarded packet leaves a switch `switch_latency` after its header
//! arrived. The general path spends three kernel events on that hop:
//!
//! ```text
//! Arrive ──queue an OutEntry, arm a wake-up──▶ TryTx(ready) ──transmit──▶ Arrive (downstream)
//!                                                                  └────▶ CreditReturn (upstream)
//! ```
//!
//! ### The cut-through commit: no `TryTx`
//!
//! When the transmission at `ready = now + switch_latency` is already
//! *determined* at header arrival, `on_arrive` commits it on the spot:
//! the same [`Fabric::transmit`] routine `pump` uses runs with start time
//! `ready` instead of `now`, so the downstream `Arrive` and the upstream
//! credit return carry the timestamps the queue path would have
//! produced, and the `TryTx` never exists — two events per hop:
//!
//! ```text
//! Arrive ──commit at `ready`──▶ Arrive (downstream)
//!                       └─────▶ CreditReturn (upstream)
//! ```
//!
//! "Determined" is a guard ([`Fabric::cut_through_peer`]), not a knob.
//! Every condition is there because without it the queue path could
//! have done something else between `now` and `ready`:
//!
//! | guard | why |
//! |---|---|
//! | management class only | nothing outranks it and its queue is FIFO; a data packet can be overtaken by management arriving inside the window (`pump` serves the management head first, ready or not) |
//! | egress port active, with a peer | a dead or dangling port drops the packet instead (the device itself is active: it has just accepted the header) |
//! | both egress queues empty | anything queued is ahead of it (management) or shares the serializer |
//! | `busy_until <= ready` | otherwise the start time is the serializer's, not `ready` |
//! | `cut_until <= now` | an earlier commitment that has not started yet is ahead of it |
//! | credits in hand (or flow control off) | credits only grow until `ready` (nothing else can transmit on the port), so in hand now means in hand then; short now means a stall the counters must see |
//! | a loss model that can never lose | a lossy model draws from the device's stream per transmission, in transmission order |
//! | no control event pending | activation, training, link faults and churn change port state; with none pending nothing can take the link down before `ready` (worker dispatches cannot schedule control events) |
//!
//! Two more pieces keep the commit unobservable. The committed packet
//! still counts as queued for `mgmt_queue_peak` until `ready`; and a
//! control event scheduled from *outside* a dispatch
//! ([`Fabric::schedule_activate`] / [`Fabric::schedule_deactivate`])
//! fires no earlier than the latest outstanding `ready`, so no link goes
//! down under a packet the queue path would still have been holding.
//! What does change: `sim_events`, the kernel's `queue-sample` records,
//! and the schedule order (not the time) of events one switch emits — two
//! same-origin events with equal timestamps may swap, which only parallel
//! links between one switch pair could turn into a reordering.
//!
//! ### The credit ledger: no `CreditReturn`
//!
//! On a port that has credits to spare, a `CreditReturn`'s whole effect
//! is `peer_credits += amount` followed by a `pump` that finds nothing
//! it may do: the queue is empty, or its head waits for a time that has
//! not come. All that matters of such an event is *where it falls in
//! the order* — which later reads of the credits see it. So
//! `return_credits` still takes the event's key (`reserve_key`: same
//! origin, same per-origin sequence number as the event would have had),
//! and then, instead of an event, enters `(key, port, class, amount)`
//! on the ledger of the upstream device. Whoever reads a port's credits
//! first takes in every entry whose key is below the key of the event
//! being dispatched — exactly the `CreditReturn`s that would already have
//! fired. One event per hop:
//!
//! ```text
//! Arrive ──commit at `ready`──▶ Arrive (downstream)
//!                       └─ ─ ─▷ ledger of the upstream device, keyed `ready + propagation`
//! ```
//!
//! Which form a credit takes is port state, not an option, and the
//! `CreditReturn` event stays as the path of ports that have run short.
//! Each rule is there because without it something observable moves:
//!
//! | rule | because otherwise |
//! |---|---|
//! | the key is reserved where the event was scheduled, consuming the origin's next sequence number | every other event that device schedules would shift its `seq`, and same-timestamp ties would break differently; and the key *is* the credit's position among the upstream device's events |
//! | [`Device::credits`] — the only way to `peer_credits`, for `pump`, the guard above, `transmit` and the reset in `on_port_trained` alike — first takes in the entries with `key < current_key()` | a hop would see credits that had not yet come back (or miss ones that had): a commit where there was a queued packet, a stall where there was a transmission |
//! | a port whose head stalls (`Action::Stall`) takes its credits as events from then on: its ledger entries are scheduled under the keys they hold, later returns are scheduled as ever | a stalled head must be woken at each return, and `credit_stalls` counts every wake that still falls short |
//! | it goes back to the ledger only when a return finds both classes' credits all home | nothing is then outstanding in either form, so there is no mixed order to argue about |
//! | an entry is dated `now + propagation` or later (a return dated at the very instant it is made — a zero-length wire — stays an event) | that is the bound the parallel kernel's outbox relies on: no dispatch inside the open lookahead window can have a key above the entry's, so none can read it, and the append to another rank's ledger needs no rule of its own (`asi_sim::kernel`) |
//!
//! A retrain resets the credits through the same accessor, so a return
//! still in flight lands on top of the fresh set, as its event did. What
//! changes is what changed for the commit: `sim_events`, `queue-sample`'s
//! `depth`/`processed`, and the event at which a step-driven harness loop
//! stops under background traffic. One seam is left, unobserved in
//! several hundred compared runs: a return dated at the very picosecond a
//! *queued* head's wake-up is due, and ahead of it in key order, used to
//! start that head from its own dispatch; now the wake-up (or an arrival
//! in between) does, at the same instant — the same transmission at the
//! same time, but a stall that both dispatches would have counted is
//! counted once, and an arrival in between sees the head still queued.
//!
//! ## What an idle port holds, what a queued port borrows
//!
//! A fabric is mostly ports — 69,632 on `mesh:64x64`, 242,688 on
//! `dragonfly:8,48`, 1,302,528 on `dragonfly:8,128` — and nearly all of
//! them have nothing queued nearly all of the time: the commit above
//! never queues, and a reply injected on an idle port leaves in the
//! dispatch that queued it. So a port owns no queue. It borrows a
//! [`QueueSet`] from the fabric-wide pool ([`Queues`]) at the
//! `enqueue_out` that finds it without one and hands it back, buffers
//! and all, with the entry that empties it:
//!
//! | | an idle port holds | a port with something queued also borrows |
//! |---|---|---|
//! | what | peer, state, `busy_until`, `try_tx_at`, `cut_until`, the credits in hand (a `u16` per class), three flags in one byte (credits by event, the loss state, negotiated), and `q = NIL` | management and data `VecDeque<OutEntry>`, with the buffers earlier borrowers grew; an entry is the time it is ready, the body's handle and the port it came in on, whose fixed peer is where its input-buffer credits go back to |
//! | where | 40 bytes in its device's port array | 64 bytes of `Fabric::queues`, at index `q`, and 16 bytes of buffer an entry (the body is in a slab, `packets.rs`: 16 bytes a flow body, 136 a whole packet) |
//! | from, until | `Fabric::new` to the end of the run | the first `enqueue_out` on an empty port, to the `pop_head` or `drain_port` that takes its last entry |
//! | read by | `on_arrive`, the guard, `transmit`, `return_credits` — one line, no queue: "both egress queues empty" is `q == NIL` | `enqueue_out`, `pump` (`next_action`, `pop_head`), `drain_port` |
//!
//! A set goes home empty and the one returned last is lent first, so the
//! pool is as large as the most ports that were ever non-empty at once
//! (6 sets on `dragonfly:8,48`'s discovery, 741 for the 4,352 ports of a
//! 16x16 mesh under 0.4 data load) and the set a reply borrows is
//! usually the one the previous reply warmed. Deep queues stay what they
//! were: contiguous `VecDeque`s.
//!
//! ## Training: one event per batch of links
//!
//! Activation and a flap's up edge (`retrain`) start training on the
//! ends of a link that are down and enter the link on the fabric's
//! [`Training`] FIFO: 8 bytes naming one end and whether the other
//! started with it (`both`). The link takes the key its own
//! `PortTrained` would have carried (`reserve_key`, `now + train_time`),
//! and only a link that opens a batch schedules the event, under that
//! key; a link whose key is the one right after the newest entry's joins
//! that entry's batch instead, and is its `last` from then on. The event
//! runs `on_port_trained` on every link of its batch, in FIFO order:
//! the named end, then the other, each judged on its own — an end whose
//! device or peer died meanwhile goes down, one that was taken down
//! stays down, and a stale end that finds its port retrained comes up,
//! as its own event used to bring it up.
//!
//! Why that is the order the links' own events fired in, with nothing
//! between them:
//!
//! | claim | because |
//! |---|---|
//! | a batch's keys are consecutive: same instant, same origin, `seq` one apart | a link joins only under the key right after the newest entry's, so no other key was reserved in between; a batch stays open only while nothing else takes a key |
//! | no event can sort between a batch's first key and its last | an event's key sorts between two such keys only with the same instant and origin and a `seq` between theirs, and every such `seq` is a batch member's |
//! | nothing a member's completion schedules fires before the next member | every `retrain` caller is a `Control` dispatch, so the batch's keys carry `EXTERNAL_RANK`, as does every key its own dispatch reserves, with a `seq` above the whole batch's |
//! | the credit reset reads the same credits | `Device::credits` takes in the ledger entries below `current_key()`, now the batch's first key, where it was the member's own; a ledger entry's key was reserved for a credit return, never for a batch member, so none falls between the two |
//! | the keys the completions reserve sort as they did | the members' keys are still reserved, one per link, so a batch takes the sequence numbers its links' events took, and the completions run in the same order with nothing between; a key's place among the others is all that is observable of it |
//! | FIFO order is key order | `train_time` is constant and control dispatches run in key order at nondecreasing instants, each reserving larger `seq`s (asserted in debug builds) |
//!
//! A batch's event is pending while any of its links trains, so the
//! cut-through guard's "no control event pending" reads as it did. What
//! changes is `sim_events`, `queue-sample`'s `depth`/`processed`, and
//! the kernel's burst: bring-up, one activation event for a run of
//! devices (`inject.rs`) and one training event for every link it
//! starts, holds two events in the kernel where `dragonfly:8,48` held
//! 121,152, and the FIFO, 8 bytes a link, shrinks once it drains.
//!
//! Data is one FIFO. The paper's §2 lists two ASI congestion-management
//! options, BVC bypass queues and source injection rate limits; its
//! evaluation uses neither, so a data packet whose header carries `OO`
//! waits in order with the rest, and an endpoint sends data as fast as
//! its link and credits allow.

use super::*;

/// Credit / arbitration class of a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum CreditClass {
    /// Management plane (PI-4/PI-5): highest priority.
    Mgmt,
    /// Application data.
    Data,
}

impl CreditClass {
    pub(super) fn of(packet: &Packet) -> CreditClass {
        if packet.is_management() {
            CreditClass::Mgmt
        } else {
            CreditClass::Data
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// A port's full set of credits — the peer's input buffer, empty — per
/// class, indexed by [`CreditClass::idx`]. [`Fabric::new`] rejects a
/// configured count that does not fit a `u16`.
fn credit_capacity(config: &FabricConfig) -> [u16; 2] {
    [config.mgmt_credits as u16, config.data_credits as u16]
}

/// What a `size`-byte packet costs in credits, as a port holds them. A
/// payload's length is at most a `u16` of bytes, so a packet's cost
/// (one credit per 64 bytes) always fits.
fn credit_cost(config: &FabricConfig, size: usize) -> u16 {
    u16::try_from(config.credits_for(size)).expect("a packet costs at most 1,100 credits")
}

/// Where a packet's input-buffer credits must be released: the
/// transmitter at the far end of the link it came in on.
#[derive(Clone, Copy, Debug)]
pub(super) struct CreditOrigin {
    dev: DevId,
    port: u8,
    class: CreditClass,
    amount: u16,
}

/// A packet waiting on an output port: 16 bytes.
///
/// The packet body lives in one of the fabric's two slabs (`packets.rs`):
/// entries move through per-port `VecDeque`s, and carrying a 4-byte
/// handle keeps those moves cheap and recycles body memory through the
/// slabs' free lists. Where the input-buffer credits the packet holds go
/// back to is not stored but worked out where they are released
/// ([`Fabric::upstream`]): the peer of the port it came in on, which is
/// fixed from [`Fabric::new`] on, and the class and cost of the packet
/// itself.
pub(super) struct OutEntry {
    pub(super) ready: SimTime,
    pub(super) packet: PacketRef,
    /// The port the packet came in on, or [`BORN`] for a packet that holds
    /// no input buffer on this device.
    pub(super) from: u8,
}

/// [`OutEntry::from`] of a packet born on its device: a traffic shot, a
/// reply, an agent's send, a PI-5 report, a multicast replica. A device
/// has at most 255 ports, so no port has this number.
pub(super) const BORN: u8 = u8::MAX;

impl OutEntry {
    /// A packet born on the device, ready to leave at `ready`.
    pub(super) fn born(ready: SimTime, packet: PacketRef) -> OutEntry {
        OutEntry {
            ready,
            packet,
            from: BORN,
        }
    }
}

/// The output queues of one port, for as long as it has something queued.
#[derive(Default)]
pub(super) struct QueueSet {
    mgmt_q: VecDeque<OutEntry>,
    data_q: VecDeque<OutEntry>,
}

impl QueueSet {
    pub(super) fn len(&self) -> usize {
        self.mgmt_q.len() + self.data_q.len()
    }
}

/// Buffers the fabric lends by index and takes back with whatever they
/// have grown: as many as were ever out at once, not one per holder.
/// [`Queues`] lends ports their output queues, [`Fifos`] lends the
/// serial stages theirs (`endpoint.rs`).
pub(super) struct Pool<T> {
    sets: Vec<T>,
    /// Indices of the buffers at home; the one returned last (and so most
    /// likely still cached) is lent first.
    free: Vec<u32>,
}

/// The output queues of the ports that have something queued.
pub(super) type Queues = Pool<QueueSet>;

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            sets: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Default> Pool<T> {
    /// Lends a buffer: the one returned last, or a new one.
    #[inline]
    pub(super) fn lend(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let at = u32::try_from(self.sets.len()).ok().filter(|&at| at != NIL);
            self.sets.push(T::default());
            at.expect("pool indices stay below the NIL sentinel")
        })
    }
}

impl<T> Pool<T> {
    /// Takes buffer `at` back; its holder has emptied it.
    #[inline]
    pub(super) fn take_back(&mut self, at: u32) {
        self.free.push(at);
    }

    /// How many buffers are out.
    pub(super) fn lent(&self) -> usize {
        self.sets.len() - self.free.len()
    }

    /// Every buffer, lent or at home.
    pub(super) fn iter(&self) -> std::slice::Iter<'_, T> {
        self.sets.iter()
    }
}

impl<T> std::ops::Index<u32> for Pool<T> {
    type Output = T;
    #[inline]
    fn index(&self, at: u32) -> &T {
        &self.sets[at as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Pool<T> {
    #[inline]
    fn index_mut(&mut self, at: u32) -> &mut T {
        &mut self.sets[at as usize]
    }
}

/// No index: [`Port::q`] of a port with nothing queued, [`Port::peer_dev`]
/// of a port with nothing plugged in, a stage's FIFO while it holds
/// nothing.
pub(super) const NIL: u32 = u32::MAX;

/// One port of a device: 40 bytes, and everything the cut-through guard
/// asks of it is in them (the table in the module header).
pub(super) struct Port {
    /// The device at the other end of the link ([`NIL`] if the port is
    /// dangling) and its port there; read through [`Port::peer`].
    peer_dev: u32,
    peer_port: u8,
    /// Down → Training → Active; written by [`Fabric::set_port_state`]
    /// alone.
    pub(super) state: PortState,
    /// The queue set this port has on loan from [`Fabric::queues`], or
    /// [`NIL`]: a port borrows one at its first `enqueue_out` and hands
    /// it back the moment it drains, so `q == NIL` *is* "nothing queued".
    q: u32,
    busy_until: SimTime,
    /// Earliest pending [`Event::TryTx`] wakeup for this port
    /// ([`NO_WAKEUP`] when none; a sentinel rather than an `Option` so
    /// that `cut_until` fits in the space and `Port` does not grow).
    /// At most one wakeup is kept armed: without this guard every packet
    /// enqueued behind a busy serializer schedules its own retry, and a
    /// K-deep queue burns O(K²) events leapfrogging `busy_until`.
    try_tx_at: SimTime,
    /// Start time of the latest cut-through commitment on this port.
    /// While `now < cut_until` a packet is committed but has not started
    /// serializing: it blocks a second commitment and still counts as
    /// queued for `mgmt_queue_peak`.
    pub(super) cut_until: SimTime,
    /// Credits available at the peer's input buffer, per class; read and
    /// written through [`Device::credits`] alone, which settles the ledger
    /// first.
    peer_credits: PeerCredits,
    /// Three flags in one byte ([`Port::flag`]): [`BY_EVENT`], [`GE_BAD`]
    /// and [`NEGOTIATED`].
    flags: u8,
}

/// [`Port::flags`]: credits come back to this port as `CreditReturn`
/// events (once a head has stalled here), not through the device's
/// ledger.
const BY_EVENT: u8 = 1;
/// [`Port::flags`]: the Gilbert–Elliott loss state of the outgoing link
/// is bad (bursty loss).
const GE_BAD: u8 = 2;
/// [`Port::flags`]: the port has had a state set since power-on. Until
/// then no link width or speed is negotiated on it, and its block in the
/// configuration space reads all zero ([`Port::info`]).
const NEGOTIATED: u8 = 4;

use ledger::PeerCredits;
pub(super) use ledger::{Ledger, Spill};

/// The credits a port holds and the credits on their way back to it.
/// [`PeerCredits`]' field is private to this module, so that
/// [`Device::credits`], which settles the ledger first, is the only way
/// to read or write it.
mod ledger {
    use super::*;

    /// Credits in hand for the peer's input buffer, per class.
    pub(in crate::fabric) struct PeerCredits([u16; 2]);

    impl PeerCredits {
        pub(super) fn full(config: &FabricConfig) -> PeerCredits {
            PeerCredits(credit_capacity(config))
        }
    }

    /// A credit return that holds its `CreditReturn`'s key and spent no
    /// event: due from the first dispatch behind `key` on.
    struct Owed {
        key: EventKey,
        port: u8,
        class: CreditClass,
        amount: u16,
    }

    /// The returns owed to one device's ports, in no particular order.
    /// The first is inline, in the device's first cache line: on a quiet
    /// fabric one is nearly always all there is (one wire flight's worth,
    /// plus what no dispatch has had a reason to take in yet). Only a
    /// second return owed at once goes to the fabric's [`Spill`]; the
    /// device's `spilled` flag, beside the ledger, says whether the spill
    /// holds any of its returns, and it holds none whenever the inline
    /// entry is empty.
    #[derive(Default)]
    pub(in crate::fabric) struct Ledger(Option<Owed>);

    /// The returns owed beyond each device's [`Ledger`] entry, for the
    /// whole fabric. Where memory matters (a quiet fabric) few devices
    /// are ever owed two at once — 881 of 39,936 in `dragonfly:8,48`'s
    /// discovery — so a device holds a flag instead of a `Vec` of its
    /// own. A device's `Vec` is allocated at the first second return it
    /// is owed and kept from then on, so where spilling is common (a busy
    /// fabric) it is allocated once per device.
    #[derive(Default)]
    pub(in crate::fabric) struct Spill {
        /// By device id: 1 + the index of its `Vec` in `lists`, or 0 for
        /// none; empty until a device spills, then as long as the highest
        /// id that has.
        at: Vec<u32>,
        lists: Vec<Vec<Owed>>,
    }

    impl Spill {
        /// The returns spilled for `dev`.
        #[inline]
        fn of(&mut self, dev: DevId) -> &mut Vec<Owed> {
            match self.at.get(dev.idx()) {
                Some(&at) if at > 0 => &mut self.lists[at as usize - 1],
                _ => self.open(dev),
            }
        }

        /// `dev`'s first spill: a `Vec` of its own from here on.
        #[cold]
        fn open(&mut self, dev: DevId) -> &mut Vec<Owed> {
            if dev.idx() >= self.at.len() {
                self.at.resize(dev.idx() + 1, 0);
            }
            self.lists.push(Vec::new());
            self.at[dev.idx()] = self.lists.len() as u32;
            self.lists.last_mut().expect("just pushed")
        }

        /// The same, read-only.
        fn owed_to(&self, dev: DevId) -> &[Owed] {
            match self.at.get(dev.idx()) {
                Some(&at) if at > 0 => &self.lists[at as usize - 1],
                _ => &[],
            }
        }
    }

    impl Device {
        /// The credits `port` holds, once every return due before `upto`
        /// — the key of the event being dispatched — is in: exactly the
        /// `CreditReturn`s that would have fired by now. `spill` is the
        /// fabric's, and `dev` this device (it does not store its id).
        #[inline]
        pub(super) fn credits(
            &mut self,
            port: u8,
            upto: EventKey,
            spill: &mut Spill,
            dev: DevId,
        ) -> &mut [u16; 2] {
            if self.ledger.0.is_some() {
                self.settle(upto, spill, dev);
            }
            &mut self.ports[usize::from(port)].peer_credits.0
        }

        /// Takes in every return due before `upto`; if the inline entry
        /// was due, a spilled one left takes its place.
        #[inline]
        fn settle(&mut self, upto: EventKey, spill: &mut Spill, dev: DevId) {
            let ports = &mut self.ports;
            let mut take_in = |owed: &Owed| {
                let due = owed.key < upto;
                if due {
                    let held = &mut ports[usize::from(owed.port)].peer_credits;
                    held.0[owed.class.idx()] += owed.amount;
                }
                due
            };
            if self.spilled {
                let rest = spill.of(dev);
                rest.retain(|owed| !take_in(owed));
                if self.ledger.0.as_ref().is_some_and(take_in) {
                    self.ledger.0 = rest.pop();
                }
                self.spilled = !rest.is_empty();
            } else if self.ledger.0.as_ref().is_some_and(take_in) {
                self.ledger.0 = None;
            }
        }

        /// Enters a return to one of this device's ports, due at `key`.
        #[inline]
        pub(super) fn owe(&mut self, key: EventKey, to: CreditOrigin, spill: &mut Spill) {
            let owed = Owed {
                key,
                port: to.port,
                class: to.class,
                amount: to.amount,
            };
            if self.ledger.0.is_none() {
                self.ledger.0 = Some(owed);
            } else {
                spill.of(to.dev).push(owed);
                self.spilled = true;
            }
        }

        /// Takes one of `port`'s returns off the ledger, if any is left
        /// (`dev` is this device: the ledger does not store it).
        pub(super) fn call_in(
            &mut self,
            dev: DevId,
            port: u8,
            spill: &mut Spill,
        ) -> Option<(EventKey, CreditOrigin)> {
            let owed = if self.ledger.0.as_ref()?.port == port {
                let next = self.spilled.then(|| spill.of(dev).pop()).flatten();
                std::mem::replace(&mut self.ledger.0, next)?
            } else if self.spilled {
                let rest = spill.of(dev);
                let at = rest.iter().position(|owed| owed.port == port)?;
                rest.swap_remove(at)
            } else {
                return None;
            };
            self.spilled &= !spill.owed_to(dev).is_empty();
            let Owed {
                key,
                port,
                class,
                amount,
            } = owed;
            let to = CreditOrigin {
                dev,
                port,
                class,
                amount,
            };
            Some((key, to))
        }

        /// Credits of this device's active ports that are neither in hand
        /// nor on the ledger (`spill` and `dev` as for `credits`).
        pub(in crate::fabric) fn credits_away(
            &self,
            config: &FabricConfig,
            spill: &Spill,
            dev: DevId,
        ) -> u64 {
            let active = |p: &Port| p.state == PortState::Active;
            let capacity: u64 = credit_capacity(config).iter().copied().map(u64::from).sum();
            let (mut full, mut home) = (0u64, 0u64);
            for p in self.ports.iter().filter(|p| active(p)) {
                full += capacity;
                home += p.peer_credits.0.iter().copied().map(u64::from).sum::<u64>();
            }
            for owed in self.ledger.0.iter().chain(spill.owed_to(dev)) {
                if active(&self.ports[usize::from(owed.port)]) {
                    home += u64::from(owed.amount);
                }
            }
            full.abs_diff(home)
        }
    }
}

/// One link in training, on [`Training`]'s FIFO: 8 bytes.
#[derive(Clone, Copy)]
struct Trainee {
    /// The end named first, as [`Fabric::on_port_trained`] takes it.
    dev: u32,
    port: u8,
    /// The far end started training with it.
    both: bool,
    /// The last link of its batch.
    last: bool,
}

/// What [`Training::release_if_drained`] leaves the FIFO: a few entries,
/// for the reason `TimingWheel::release` keeps a few (glibc's mmap
/// threshold; `asi-sim`'s `wheel.rs`).
const KEPT_TRAINEES: usize = 64;

/// The links in training, in key order: one entry per link, and one
/// `PortTrained` event per batch of entries whose own events' keys would
/// have been consecutive (the module header).
#[derive(Default)]
pub(super) struct Training {
    fifo: VecDeque<Trainee>,
    /// The key the newest entry's own event would have carried.
    newest: Option<EventKey>,
}

impl Training {
    /// Enters a link whose training ends at `key`, a key reserved for it
    /// and not scheduled. True if it opens a batch, whose event the
    /// caller schedules under `key`; false if it joins the newest batch,
    /// which it does when no other key was reserved since that batch's
    /// last link took its own.
    pub(super) fn push(&mut self, key: EventKey, dev: DevId, port: u8, both: bool) -> bool {
        debug_assert_eq!(key.origin, EXTERNAL_RANK, "a retrain is a control dispatch");
        debug_assert!(
            self.fifo.is_empty() || self.newest < Some(key),
            "FIFO order is key order"
        );
        let next = (self.newest).map(|newest| EventKey {
            seq: newest.seq.wrapping_add(1),
            ..newest
        });
        let joins = match self.fifo.back_mut() {
            Some(tail) if next == Some(key) => {
                tail.last = false;
                true
            }
            _ => false,
        };
        self.fifo.push_back(Trainee {
            dev: dev.0,
            port,
            both,
            last: true,
        });
        self.newest = Some(key);
        !joins
    }

    /// The next link of the batch whose event is being dispatched.
    fn pop(&mut self) -> Trainee {
        self.fifo
            .pop_front()
            .expect("a PortTrained event has a batch")
    }

    /// Shrinks the FIFO once it drains: bring-up's burst is every link of
    /// the fabric, what follows a link or two.
    fn release_if_drained(&mut self) {
        if self.fifo.is_empty() {
            self.fifo.shrink_to(KEPT_TRAINEES);
        }
    }
}

/// [`Port::try_tx_at`] when no wakeup is armed.
const NO_WAKEUP: SimTime = SimTime::MAX;

/// What [`Fabric::pump`] does next on a port.
enum Action {
    Idle,
    /// The serializer or the head's `ready` says not yet.
    Wait(SimTime),
    /// The head is short of credits; a `CreditReturn` will re-pump.
    Stall,
    /// The head can never fit the downstream buffer: drop, don't stall.
    Oversized(CreditClass),
    /// The head may start: its class and its size on the wire.
    Tx(CreditClass, usize),
}

impl Port {
    /// A port in its power-on state: down, idle, a full set of credits.
    pub(super) fn new(peer: Option<(DevId, u8)>, config: &FabricConfig) -> Port {
        let (peer_dev, peer_port) = peer.map_or((NIL, 0), |(dev, port)| (dev.0, port));
        Port {
            peer_dev,
            peer_port,
            state: PortState::Down,
            q: NIL,
            busy_until: SimTime::ZERO,
            try_tx_at: NO_WAKEUP,
            cut_until: SimTime::ZERO,
            peer_credits: PeerCredits::full(config),
            flags: 0,
        }
    }

    /// Whether flag `bit` of [`Port::flags`] is set.
    #[inline]
    fn flag(&self, bit: u8) -> bool {
        self.flags & bit != 0
    }

    /// Sets flag `bit` of [`Port::flags`] to `on`; returns what it was.
    #[inline]
    fn set_flag(&mut self, bit: u8, on: bool) -> bool {
        let was = self.flag(bit);
        self.flags = if on {
            self.flags | bit
        } else {
            self.flags & !bit
        };
        was
    }

    /// The port's block in its device's configuration space, as the FM
    /// reads it: the state, an x1 link at 2.5 Gb/s, and while the link is
    /// up the partner's port number, exchanged during link training. A
    /// port that has never had a state set reads all zero.
    #[inline]
    pub(super) fn info(&self) -> PortInfo {
        if !self.flag(NEGOTIATED) {
            return PortInfo::default();
        }
        let peer_port = match (self.state, self.peer()) {
            (PortState::Active, Some((_, pp))) => pp,
            _ => 0,
        };
        PortInfo {
            state: self.state,
            link_width: 1,
            link_speed: 10,
            peer_port,
        }
    }

    /// The far end of the link, if the port is wired.
    #[inline]
    pub(super) fn peer(&self) -> Option<(DevId, u8)> {
        (self.peer_dev != NIL).then_some((DevId(self.peer_dev), self.peer_port))
    }

    /// Whether anything is queued here: the guard's "both egress queues
    /// empty", without reading a queue.
    #[inline]
    fn is_queued(&self) -> bool {
        self.q != NIL
    }

    /// Pops the head `pump` just inspected for `class`. The port's queue
    /// set goes home with the last entry.
    #[inline]
    fn pop_head(&mut self, queues: &mut Queues, class: CreditClass) -> OutEntry {
        let set = &mut queues[self.q];
        let entry = match class {
            CreditClass::Mgmt => set.mgmt_q.pop_front(),
            CreditClass::Data => set.data_q.pop_front(),
        }
        .expect("head inspected above");
        if set.len() == 0 {
            queues.take_back(std::mem::replace(&mut self.q, NIL));
        }
        entry
    }

    /// The one credit decision: whether a `size`-byte packet of `class`
    /// may start on this port as far as flow control goes — `Tx`, `Stall`
    /// or `Oversized`. The queue path and the cut-through guard both ask
    /// here, so they cannot drift.
    #[inline]
    fn admit(config: &FabricConfig, held: [u16; 2], class: CreditClass, size: usize) -> Action {
        if !config.flow_control {
            return Action::Tx(class, size);
        }
        let cost = config.credits_for(size);
        if cost > u32::from(credit_capacity(config)[class.idx()]) {
            Action::Oversized(class)
        } else if u32::from(held[class.idx()]) < cost {
            Action::Stall
        } else {
            Action::Tx(class, size)
        }
    }

    /// Inspects the queue heads at `now`, with `held` credits in hand.
    #[inline]
    fn next_action(
        &self,
        now: SimTime,
        config: &FabricConfig,
        packets: &Packets,
        queues: &Queues,
        held: [u16; 2],
    ) -> Action {
        if !self.is_queued() {
            return Action::Idle;
        }
        if self.busy_until > now {
            return Action::Wait(self.busy_until);
        }
        // Management first, then data.
        let set = &queues[self.q];
        let (class, entry) = match set.mgmt_q.front() {
            Some(e) => (CreditClass::Mgmt, e),
            None => (CreditClass::Data, set.data_q.front().expect("a lent set")),
        };
        if entry.ready > now {
            Action::Wait(entry.ready)
        } else {
            Port::admit(config, held, class, packets.wire_size(entry.packet))
        }
    }

    /// Draws the loss decision for one transmission on this port,
    /// advancing the link's Gilbert–Elliott state if the model is
    /// bursty. Draws come from the *transmitting device's* own stream,
    /// so they depend only on that device's dispatch order — identical
    /// under every kernel. Zero probabilities short-circuit before
    /// consuming a random draw where the decision is already known, and
    /// a draw never changes scheduling — so a lossless model replays the
    /// loss-free run byte-for-byte.
    #[inline]
    fn draw_loss(&mut self, model: LossModel, rng: &mut SimRng) -> bool {
        match model {
            LossModel::None => false,
            LossModel::Uniform { p } => p > 0.0 && rng.gen_bool(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let bad = self.flag(GE_BAD);
                let flip_p = if bad { p_exit_bad } else { p_enter_bad };
                if flip_p > 0.0 && rng.gen_bool(flip_p) {
                    self.set_flag(GE_BAD, !bad);
                }
                let p = if self.flag(GE_BAD) {
                    loss_bad
                } else {
                    loss_good
                };
                p > 0.0 && rng.gen_bool(p)
            }
        }
    }
}

/// Selects the [`FabricCounters`] field a dropped packet is charged to.
type DropCounter = fn(&mut FabricCounters) -> &mut u64;

impl Fabric {
    // ---------------- the way in and the way out ----------------

    /// The one way a packet born on `dev` (traffic shot, PI-4 reply, agent
    /// send, PI-5 report, multicast replica) enters the fabric: onto
    /// `(dev, port)`'s egress queue, with no upstream buffer to credit.
    pub(super) fn inject(&mut self, dev: DevId, port: u8, ready: SimTime, packet: Packet) {
        let entry = OutEntry::born(ready, self.packets.alloc(packet));
        self.enqueue_out(dev, port, entry);
    }

    /// The one way a queued or forwarded packet on `dev` dies: charge the
    /// counter, hand the credits of the input buffer it holds back
    /// upstream, free the body.
    pub(super) fn drop_entry(&mut self, dev: DevId, entry: OutEntry, counter: DropCounter) {
        *counter(&mut self.counters) += 1;
        self.release_origin_now(dev, entry.from, entry.packet);
        self.packets.free(entry.packet);
    }

    // ---------------- credits ----------------

    /// Where the credits of the input buffer a packet of `class`, `size`
    /// bytes on the wire, holds on `(dev, from)` go back to: the far end
    /// of that port's link. `None` with flow control off, or for a packet
    /// born on `dev` ([`BORN`]), which holds no input buffer.
    fn upstream(
        &self,
        dev: DevId,
        from: u8,
        class: CreditClass,
        size: usize,
    ) -> Option<CreditOrigin> {
        if from == BORN || !self.config.flow_control {
            return None;
        }
        let (dev, port) = self.devices[dev.idx()].ports[usize::from(from)].peer()?;
        let amount = credit_cost(&self.config, size);
        Some(CreditOrigin {
            dev,
            port,
            class,
            amount,
        })
    }

    /// Releases, now, the input buffer `packet` holds on `(dev, from)`.
    pub(super) fn release_origin_now(&mut self, dev: DevId, from: u8, packet: PacketRef) {
        let (class, size) = (self.packets.class(packet), self.packets.wire_size(packet));
        self.return_credits(self.upstream(dev, from, class, size), self.sim.now());
    }

    /// Returns the credits of an input buffer freed at `freed_at`, if the
    /// packet held one and its upstream transmitter is still alive. The
    /// return takes its place in the event order here, by reserving the
    /// `CreditReturn`'s key; whether an event is spent on it is the
    /// upstream port's state (the ledger rules in the module header).
    fn return_credits(&mut self, origin: Option<CreditOrigin>, freed_at: SimTime) {
        let Some(origin) = origin.filter(|o| self.devices[o.dev.idx()].active) else {
            return;
        };
        let key = self.sim.reserve_key(freed_at + self.config.propagation);
        let up = &mut self.devices[origin.dev.idx()];
        // A zero-length wire could date the return at this very instant,
        // behind the event being dispatched: only an event fires there.
        if up.ports[usize::from(origin.port)].flag(BY_EVENT) || key.time <= self.sim.now() {
            self.sched_credit_return(key, origin);
        } else {
            up.owe(key, origin, &mut self.spill);
        }
    }

    /// The event form of a credit return, under the key reserved for it.
    fn sched_credit_return(&mut self, key: EventKey, to: CreditOrigin) {
        let event = Event::CreditReturn {
            dev: to.dev,
            port: to.port,
            class: to.class,
            amount: to.amount,
        };
        self.sched_keyed(key, event);
    }

    pub(super) fn on_credit_return(
        &mut self,
        dev: DevId,
        port: u8,
        class: CreditClass,
        amount: u16,
    ) {
        let d = &mut self.devices[dev.idx()];
        let held = d.credits(port, self.sim.current_key(), &mut self.spill, dev);
        held[class.idx()] += amount;
        // Everything home: nothing is outstanding in either form, so the
        // port can go back to the ledger.
        if *held == credit_capacity(&self.config) {
            d.ports[usize::from(port)].set_flag(BY_EVENT, false);
        }
        self.pump(dev, port);
    }

    /// A head on `(dev, port)` is short of credits: every return must
    /// wake it, so the port takes its credits as events from here on,
    /// starting with the returns already on the ledger, each under the
    /// key it reserved.
    fn take_credits_by_event(&mut self, dev: DevId, port: u8) {
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if p.set_flag(BY_EVENT, true) {
            return;
        }
        while let Some((key, to)) = self.devices[dev.idx()].call_in(dev, port, &mut self.spill) {
            self.sched_credit_return(key, to);
        }
    }

    // ---------------- queues and the serializer ----------------

    pub(super) fn enqueue_out(&mut self, dev: DevId, port: u8, entry: OutEntry) {
        let class = self.packets.class(entry.packet);
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if !p.is_queued() {
            p.q = self.queues.lend();
        }
        let set = &mut self.queues[p.q];
        match class {
            CreditClass::Mgmt => set.mgmt_q.push_back(entry),
            CreditClass::Data => set.data_q.push_back(entry),
        }
        // Occupancy high-water marks per VC class. Queue depths are
        // device-local, so under the kernel-identity contract the
        // peaks are identical across kernels and shard counts. A
        // cut-through commitment that has not started serializing
        // would still be in the management queue.
        let committed = usize::from(p.cut_until > self.sim.now());
        let c = &mut self.counters;
        c.mgmt_queue_peak = c.mgmt_queue_peak.max((set.mgmt_q.len() + committed) as u64);
        c.data_queue_peak = c.data_queue_peak.max(set.data_q.len() as u64);
        self.pump(dev, port);
    }

    /// A [`Event::TryTx`] wakeup fired. Only the wakeup recorded in
    /// `try_tx_at` pumps; earlier-armed duplicates that were superseded
    /// by a sooner wakeup are dropped here.
    pub(super) fn on_try_tx(&mut self, dev: DevId, port: u8) {
        let now = self.sim.now();
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if p.try_tx_at != now {
            return;
        }
        p.try_tx_at = NO_WAKEUP;
        self.pump(dev, port);
    }

    /// Attempts to start transmissions on `(dev, port)`.
    pub(super) fn pump(&mut self, dev: DevId, port: u8) {
        let now = self.sim.now();
        let d = &self.devices[dev.idx()];
        if !d.active || d.ports[usize::from(port)].state != PortState::Active {
            // Unusable: everything queued is lost.
            self.drain_port(dev, port);
            return;
        }
        let key = self.sim.current_key();
        loop {
            let d = &mut self.devices[dev.idx()];
            let held = *d.credits(port, key, &mut self.spill, dev);
            let p = &mut d.ports[usize::from(port)];
            let queues = &mut self.queues;
            match p.next_action(now, &self.config, &self.packets, queues, held) {
                Action::Idle => return,
                Action::Wait(at) => {
                    if p.try_tx_at > at {
                        p.try_tx_at = at;
                        self.sched_at(at, Event::TryTx { dev, port });
                    }
                    return;
                }
                Action::Stall => {
                    self.counters.credit_stalls += 1;
                    self.take_credits_by_event(dev, port);
                    return;
                }
                Action::Oversized(class) => {
                    let entry = p.pop_head(queues, class);
                    self.drop_entry(dev, entry, |c| &mut c.dropped_bad_route);
                }
                Action::Tx(class, size) => match (p.pop_head(queues, class), p.peer()) {
                    (entry, Some(peer)) => {
                        self.transmit(dev, port, (class, size), entry, peer, now)
                    }
                    // Dangling port: count as link-down drop.
                    (entry, None) => self.drop_entry(dev, entry, |c| &mut c.dropped_link_down),
                },
            }
        }
    }

    /// The cut-through guard: the egress peer if the transmission of
    /// `entry`, `size` bytes on the wire, on `(dev, port)` at
    /// `entry.ready` is already determined now, at header arrival —
    /// nothing that can happen before `entry.ready` would make `pump` do
    /// anything but transmit it then. The module header gives the reason
    /// for each condition.
    pub(super) fn cut_through_peer(
        &mut self,
        dev: DevId,
        port: u8,
        entry: &OutEntry,
        size: usize,
    ) -> Option<(DevId, u8)> {
        if self.control_pending != 0 || !self.config.faults.loss.is_lossless() {
            return None;
        }
        if self.packets.class(entry.packet) != CreditClass::Mgmt {
            return None;
        }
        let d = &mut self.devices[dev.idx()];
        let p = &d.ports[usize::from(port)];
        if p.state != PortState::Active
            || p.is_queued()
            || p.busy_until > entry.ready
            || p.cut_until > self.sim.now()
        {
            return None;
        }
        let peer = p.peer();
        let held = *d.credits(port, self.sim.current_key(), &mut self.spill, dev);
        match Port::admit(&self.config, held, CreditClass::Mgmt, size) {
            Action::Tx(..) => peer,
            _ => None,
        }
    }

    /// Puts `entry`, of `class` and `size` bytes on the wire, on the wire
    /// of `(dev, port)` toward `peer`, the serializer starting at `start`:
    /// `now` from `pump`, or the future `ready` of a cut-through
    /// commitment, whose guard has established that nothing else can
    /// claim the port or the credits before then. Everything downstream
    /// of the transmission is scheduled relative to `start`, the release
    /// of the input buffer the packet held on its way in among it.
    pub(super) fn transmit(
        &mut self,
        dev: DevId,
        port: u8,
        (class, size): (CreditClass, usize),
        entry: OutEntry,
        (peer_dev, peer_port): (DevId, u8),
        start: SimTime,
    ) {
        let cost = credit_cost(&self.config, size);
        let upstream = self.upstream(dev, entry.from, class, size);
        let d = &mut self.devices[dev.idx()];
        if self.config.flow_control {
            d.credits(port, self.sim.current_key(), &mut self.spill, dev)[class.idx()] -= cost;
        }
        let p = &mut d.ports[usize::from(port)];
        p.busy_until = start + self.config.tx_time(size);
        match class {
            CreditClass::Mgmt => self.counters.mgmt_bytes += size as u64,
            CreditClass::Data => self.counters.data_bytes += size as u64,
        }
        // A loss-free model draws nothing: no stream to look up or create.
        let lost = match self.config.faults.loss {
            LossModel::None => false,
            model => p.draw_loss(model, self.rngs.of(dev)),
        };
        if lost {
            // Injected loss: the receiver's CRC discards the packet. Its
            // input buffer is freed on arrival, so the consumed credits
            // bounce straight back to this port.
            self.counters.dropped_corrupted += 1;
            self.trace.emit(start, || TraceEvent::FaultPacketLost {
                device: dev.0,
                port: u16::from(port),
            });
            let bounced = CreditOrigin {
                dev,
                port,
                class,
                amount: cost,
            };
            let bounced = self.config.flow_control.then_some(bounced);
            self.return_credits(bounced, start + self.config.propagation);
            self.packets.free(entry.packet);
        } else {
            // Header arrival downstream (virtual cut-through).
            let header_bytes = self.packets.header_bytes(entry.packet);
            let arrive_at = start + self.config.tx_time(header_bytes) + self.config.propagation;
            self.sched_at(
                arrive_at,
                Event::Arrive {
                    dev: peer_dev,
                    port: peer_port,
                    packet: entry.packet,
                },
            );
        }
        // The packet has left this device: release the input buffer it
        // occupied upstream (after the downstream `Arrive`: the order of
        // the two is a same-timestamp tie-break).
        self.return_credits(upstream, start);
    }

    /// Everything queued on a port that went down is lost with the link.
    fn drain_port(&mut self, dev: DevId, port: u8) {
        // This runs on every pump() of a downed port: most find nothing.
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        if !p.is_queued() {
            return;
        }
        // One entry at a time, no interim Vec; the set goes home empty.
        let q = std::mem::replace(&mut p.q, NIL);
        loop {
            let set = &mut self.queues[q];
            let entry = set.mgmt_q.pop_front().or_else(|| set.data_q.pop_front());
            let Some(entry) = entry else { break };
            self.drop_entry(dev, entry, |c| &mut c.dropped_link_down);
        }
        self.queues.take_back(q);
    }

    // ---------------- training and carrier ----------------

    /// The one place a port changes state. The configuration space reads
    /// the port itself ([`Port::info`]), so nothing else moves with it.
    fn set_port_state(&mut self, dev: DevId, port: u8, state: PortState) {
        let p = &mut self.devices[dev.idx()].ports[usize::from(port)];
        p.state = state;
        p.set_flag(NEGOTIATED, true);
    }

    /// The one carrier-loss path: `(dev, port)` goes down and what it had
    /// queued is lost. With `notify` the device outlives its port (the far
    /// end of a dead device's link, either end of a flapped one) and says
    /// so, if there was a carrier to lose. Without, the device itself is
    /// dying: every port goes down, silently.
    pub(super) fn carrier_lost(&mut self, dev: DevId, port: u8, notify: bool) {
        if notify && self.devices[dev.idx()].ports[usize::from(port)].state == PortState::Down {
            return;
        }
        self.set_port_state(dev, port, PortState::Down);
        self.drain_port(dev, port);
        if notify {
            self.notify_port_change(dev, port, PortEvent::PortDown);
        }
    }

    /// Starts link training on a port that is down (a port already
    /// training or active is left alone); true if it started. The caller
    /// enters the link on [`Fabric::training`], whose batch's
    /// [`Event::PortTrained`] ends it.
    pub(super) fn begin_training(&mut self, dev: DevId, port: u8) -> bool {
        if self.devices[dev.idx()].ports[usize::from(port)].state != PortState::Down {
            return false;
        }
        self.set_port_state(dev, port, PortState::Training);
        true
    }

    /// A `PortTrained` event fired: training ends on every link of the
    /// batch at the head of [`Fabric::training`], in the order the links
    /// began, as their own events would have fired.
    pub(super) fn on_links_trained(&mut self, _first: DevId) {
        loop {
            let link = self.training.pop();
            self.on_port_trained(DevId(link.dev), link.port, link.both);
            if link.last {
                break;
            }
        }
        self.training.release_if_drained();
    }

    /// Training ends on `(dev, port)` and, with `both`, on the far end of
    /// its link, whose training started in the same call: the order in
    /// which two events under consecutive keys would have fired, with
    /// nothing able to sort between them. Each end is judged on its own.
    pub(super) fn on_port_trained(&mut self, dev: DevId, port: u8, both: bool) {
        self.port_trained(dev, port);
        if both {
            let peer = self.devices[dev.idx()].ports[usize::from(port)].peer();
            let (peer_dev, peer_port) = peer.expect("a link has two ends");
            self.port_trained(peer_dev, peer_port);
        }
    }

    /// One end's training is over: the port comes up unless it was taken
    /// down (or retrained: then this is a stale end, and it comes up
    /// early, as it always has) or either device died meanwhile.
    fn port_trained(&mut self, dev: DevId, port: u8) {
        let d = &self.devices[dev.idx()];
        let p = &d.ports[usize::from(port)];
        if !d.active || p.state != PortState::Training {
            return;
        }
        // The peer may have been deactivated mid-training.
        if p.peer()
            .is_some_and(|(pd, _)| !self.devices[pd.idx()].active)
        {
            self.set_port_state(dev, port, PortState::Down);
            return;
        }
        self.set_port_state(dev, port, PortState::Active);
        let d = &mut self.devices[dev.idx()];
        // Fresh link: peer buffers are empty. (A return still on its way
        // lands on top of the fresh set, on the ledger as in an event.)
        *d.credits(port, self.sim.current_key(), &mut self.spill, dev) =
            credit_capacity(&self.config);
        d.ports[usize::from(port)].busy_until = self.sim.now();
        self.notify_port_change(dev, port, PortEvent::PortUp);
        self.pump(dev, port);
    }

    /// Fires the local agent's port-event hook and emits PI-5 toward the
    /// FM if the device's reporting-route register holds a valid route
    /// (the FM writes it over PI-4 after discovery).
    fn notify_port_change(&mut self, dev: DevId, port: u8, event: PortEvent) {
        // Local agent callback (e.g. the FM watching its own link).
        self.with_agent(dev, |agent, ctx| agent.on_port_event(ctx, port, event));
        let now = self.sim.now();
        let d = &mut self.devices[dev.idx()];
        let Some((egress, pool)) = d.config.event_route() else {
            return;
        };
        // Sequences are modular (RFC-1982 comparison at the FM), so a
        // long-lived reporter wraps rather than overflowing.
        d.pi5_seq = d.pi5_seq.wrapping_add(1);
        // Don't report through the port that just died.
        if egress == port && event == PortEvent::PortDown {
            return;
        }
        let report = Pi5 {
            reporter_dsn: d.info.dsn,
            port,
            event,
            sequence: d.pi5_seq,
        };
        let header = RouteHeader::forward(ProtocolInterface::EventReporting, MANAGEMENT_TC, pool);
        self.counters.pi5_emitted += 1;
        self.counters.injected += 1;
        self.trace.emit(now, || TraceEvent::Pi5Emitted {
            dsn: report.reporter_dsn,
            port: u16::from(port),
            up: event == PortEvent::PortUp,
        });
        let packet = Packet::new(header, Payload::Pi5(report));
        self.inject(dev, egress, now, packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Switch `S` of a star and the endpoint on its port 0.
    const S: DevId = DevId(0);
    const E0: DevId = DevId(1);

    /// `S` with endpoints on ports 0, 1, 2, trained.
    fn star() -> Fabric {
        let mut topo = Topology::new("star");
        let switch = topo.add_switch(16, "S");
        for port in 0..3 {
            let end = topo.add_endpoint(format!("E{port}"));
            topo.connect(switch, port, end, 0).unwrap();
        }
        let mut fabric = Fabric::new(&topo, FabricConfig::default());
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        fabric
    }

    /// The two queues of a port, as plain FIFOs of packet tags.
    #[derive(Default, Debug, PartialEq)]
    struct Model {
        mgmt: VecDeque<u16>,
        data: VecDeque<u16>,
    }

    impl Model {
        fn len(&self) -> usize {
            self.mgmt.len() + self.data.len()
        }

        /// Management first, FIFO within.
        fn pop(&mut self) -> Option<u16> {
            self.mgmt.pop_front().or_else(|| self.data.pop_front())
        }
    }

    /// What a tagged packet is: management, data, or data whose header
    /// carries the `OO` bit (which the fabric carries but ignores).
    #[derive(Clone, Copy)]
    enum Lane {
        Mgmt,
        Oo,
        Data,
    }

    /// A tagged management or data packet addressed to whoever is at the
    /// far end of the link it is put on.
    fn tagged(lane: Lane, tag: u16) -> Packet {
        let (pi, tc) = match lane {
            Lane::Mgmt => (ProtocolInterface::DeviceManagement, MANAGEMENT_TC),
            _ => (ProtocolInterface::Data, 0),
        };
        let mut header = RouteHeader::forward(pi, tc, TurnPool::new_spec());
        header.oo = matches!(lane, Lane::Oo);
        let payload = match lane {
            Lane::Mgmt => Payload::Pi4(Pi4::WriteCompletion {
                req_id: u32::from(tag),
            }),
            _ => Payload::Data { len: tag },
        };
        Packet::new(header, payload)
    }

    impl Fabric {
        fn port(&mut self, dev: DevId, port: u8) -> &mut Port {
            &mut self.devices[dev.idx()].ports[usize::from(port)]
        }

        /// What `(dev, port)` has queued, read off the set it holds.
        fn observed(&self, dev: DevId, port: u8) -> Model {
            let p = &self.devices[dev.idx()].ports[usize::from(port)];
            if !p.is_queued() {
                return Model::default();
            }
            let tags = |q: &VecDeque<OutEntry>| {
                q.iter()
                    .map(|e| match self.packets.packet(e.packet).payload {
                        Payload::Pi4(Pi4::WriteCompletion { req_id }) => req_id as u16,
                        Payload::Data { len } => len,
                        ref other => panic!("unexpected {other:?}"),
                    })
                    .collect()
            };
            let set = &self.queues[p.q];
            Model {
                mgmt: tags(&set.mgmt_q),
                data: tags(&set.data_q),
            }
        }

        /// The sets out on loan, by port; panics if two ports hold one.
        fn sets_held(&self) -> Vec<u32> {
            let ports = self.devices.iter().flat_map(|d| d.ports.iter());
            let mut held: Vec<u32> = ports.filter(|p| p.is_queued()).map(|p| p.q).collect();
            held.sort_unstable();
            assert!(held.windows(2).all(|w| w[0] != w[1]), "a set lent twice");
            assert_eq!(held.len(), self.queues.lent());
            held
        }

        /// Sets the credits `(S, port)` has in hand, both classes.
        fn set_credits(&mut self, port: u8, held: [u16; 2]) {
            let key = self.sim.current_key();
            *self.devices[S.idx()].credits(port, key, &mut self.spill, S) = held;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The real `enqueue_out` / `pump` / `carrier_lost` /
        /// `on_port_trained` on three ports that borrow from one pool,
        /// against two plain `VecDeque`s per port, an `OO`-marked data
        /// packet queueing with the rest of the data. The clock stands
        /// still, so the test decides what each pump finds: a serializer
        /// that is busy (an enqueue), free (a pump: exactly one head
        /// leaves) or free with no credits in hand (a stall).
        #[test]
        fn queue_discipline_matches_two_plain_fifos_per_port(
            ops in prop::collection::vec((0u8..3, 0u8..16), 1..160),
        ) {
            let mut fabric = star();
            let now = fabric.now();
            let busy = now + SimDuration::from_us(1_000_000);
            let full = credit_capacity(&fabric.config);
            let mut model: [Model; 3] = Default::default();
            let (mut mgmt_peak, mut data_peak, mut lost) = (0, 0, 0);
            for (tag, (port, op)) in ops.into_iter().enumerate() {
                let (tag, m) = (tag as u16 + 64, &mut model[usize::from(port)]);
                let up = fabric.port(S, port).state == PortState::Active;
                match op {
                    0..=8 => {
                        let (lane, queue) = match op {
                            0..=2 => (Lane::Mgmt, &mut m.mgmt),
                            3..=4 => (Lane::Oo, &mut m.data),
                            _ => (Lane::Data, &mut m.data),
                        };
                        queue.push_back(tag);
                        mgmt_peak = mgmt_peak.max(m.mgmt.len());
                        data_peak = data_peak.max(m.data.len());
                        if !up {
                            // Lost on the spot: the port is dead.
                            lost += m.len();
                            *m = Model::default();
                        }
                        fabric.port(S, port).busy_until = busy;
                        fabric.inject(S, port, now, tagged(lane, tag));
                    }
                    9..=12 => {
                        fabric.port(S, port).busy_until = now;
                        fabric.set_credits(port, full);
                        fabric.pump(S, port);
                        m.pop();
                    }
                    13 => {
                        let stalls = fabric.counters.credit_stalls;
                        fabric.port(S, port).busy_until = now;
                        fabric.set_credits(port, [0, 0]);
                        fabric.pump(S, port);
                        let stalled = u64::from(up && m.len() > 0);
                        prop_assert_eq!(fabric.counters.credit_stalls, stalls + stalled);
                    }
                    14 if up => {
                        fabric.carrier_lost(S, port, true);
                        lost += m.len();
                        *m = Model::default();
                    }
                    _ => {
                        fabric.begin_training(S, port);
                        fabric.port_trained(S, port);
                    }
                }
                // Same contents in the same order, so the same pops; a
                // set is held exactly while something is queued, and by
                // one port only.
                for port in 0..3u8 {
                    let m = &model[usize::from(port)];
                    prop_assert_eq!(&fabric.observed(S, port), m);
                    prop_assert_eq!(fabric.port(S, port).is_queued(), m.len() > 0);
                }
                fabric.sets_held();
                prop_assert_eq!(fabric.queued_packets(), model.iter().map(Model::len).sum());
                prop_assert_eq!(fabric.counters.dropped_link_down, lost as u64);
            }
            prop_assert_eq!(fabric.counters.mgmt_queue_peak, mgmt_peak as u64);
            prop_assert_eq!(fabric.counters.data_queue_peak, data_peak as u64);
            // Every set comes home: a dead port holds none, a live one
            // drains through its serializer.
            for port in 0..3 {
                fabric.port(S, port).busy_until = now;
                fabric.set_credits(port, full);
                fabric.pump(S, port);
            }
            fabric.run_until_idle();
            prop_assert_eq!(fabric.queues.lent(), 0);
            prop_assert_eq!(fabric.queued_packets(), 0);
            prop_assert_eq!(fabric.packet_arena_live(), 0);
        }
    }

    /// A link joins the newest batch only under the key after that
    /// batch's last link's: a key reserved in between, a later instant
    /// or a batch that has fired opens a new one.
    #[test]
    fn a_link_joins_a_batch_only_under_the_next_key() {
        let key = |ns, seq| EventKey {
            time: SimTime::from_ns(ns),
            origin: EXTERNAL_RANK,
            seq,
        };
        let mut training = Training::default();
        assert!(training.push(key(1_000, 5), S, 0, true));
        assert!(!training.push(key(1_000, 6), S, 1, true));
        assert!(training.push(key(1_000, 8), S, 2, false));
        assert!(training.push(key(1_500, 9), S, 0, true));
        let batches: Vec<(u8, bool)> = (0..4)
            .map(|_| training.pop())
            .map(|link| (link.port, link.last))
            .collect();
        assert_eq!(batches, [(0, false), (1, true), (2, true), (0, true)]);
        training.release_if_drained();
        assert!(training.push(key(1_500, 10), S, 1, true));
    }

    /// Two links retrained half a training apart end apart, in a batch
    /// each: the second did not join the first's pending batch.
    #[test]
    fn trainings_started_apart_end_apart() {
        let mut fabric = star();
        let now = fabric.now();
        for port in [0, 1] {
            fabric.carrier_lost(S, port, true);
        }
        let (train, gap) = (fabric.config.train_time, SimDuration::from_ns(500));
        fabric.sched_at(now, Event::FaultLinkUp { dev: S, port: 0 });
        fabric.sched_at(now + gap, Event::FaultLinkUp { dev: S, port: 1 });
        fabric.run_until(now + train);
        assert_eq!(fabric.port(S, 0).state, PortState::Active);
        assert_eq!(fabric.port(S, 1).state, PortState::Training);
        fabric.run_until_idle();
        assert_eq!(fabric.port(S, 1).state, PortState::Active);
        assert_eq!(fabric.now(), now + gap + train);
        let trained = fabric
            .dispatch_counts()
            .find(|&(kind, _)| kind == "port_trained");
        assert_eq!(trained, Some(("port_trained", 3)));
    }

    /// A forwarded packet queued behind a busy port holds the input
    /// buffer it came in on; when a flap drains the queue, that buffer's
    /// credits go back to the transmitter upstream, worked out from the
    /// port the packet came in on.
    #[test]
    fn a_packet_drained_by_a_flap_returns_its_upstream_credits() {
        const E1: DevId = DevId(2);
        let mut fabric = star();
        let now = fabric.now();
        // E0 → S → E1: one turn at S, from port 0 to port 1.
        let mut pool = TurnPool::new_spec();
        let turn = asi_proto::turn_for(0, 1, 16);
        pool.push_turn(turn, turn_width(16)).unwrap();
        let header = RouteHeader::forward(ProtocolInterface::Data, 0, pool);
        let packet = Packet::new(header, Payload::Data { len: 512 });
        let cost = u64::from(credit_cost(&fabric.config, packet.wire_size()));
        fabric.port(S, 1).busy_until = now + SimDuration::from_us(100);
        fabric.inject(E0, 0, now, packet);
        fabric.run_until(now + SimDuration::from_us(10));
        assert_eq!(fabric.queued_packets(), 1);
        assert!(fabric.port(S, 1).is_queued());
        // E0 spent the packet's credits on S's input buffer, and S has
        // not sent them back.
        assert_eq!(fabric.credits_outstanding(), cost);
        let down_for = SimDuration::from_us(5);
        let flap = Event::FaultLinkDown {
            dev: S,
            port: 1,
            down_for,
        };
        fabric.sched_at(fabric.now(), flap);
        fabric.run_until_idle();
        assert_eq!(fabric.counters.dropped_link_down, 1);
        assert_eq!(fabric.port(S, 1).state, PortState::Active);
        assert_eq!(fabric.port(E1, 0).state, PortState::Active);
        assert_eq!(fabric.queued_packets(), 0);
        assert_eq!(fabric.packet_arena_live(), 0);
        assert_eq!(fabric.credits_outstanding(), 0);
    }

    #[test]
    fn a_set_a_removed_device_returned_is_lent_to_another_port_and_not_shared() {
        let mut fabric = star();
        let now = fabric.now();
        // Ready long after everything below: whatever is queued stays.
        let later = now + SimDuration::from_us(10);
        fabric.inject(E0, 0, later, tagged(Lane::Mgmt, 1));
        fabric.inject(S, 1, later, tagged(Lane::Data, 2));
        let (first, second) = (fabric.port(E0, 0).q, fabric.port(S, 1).q);
        assert_eq!(fabric.sets_held(), [first, second]);
        // Churn removes E0: its packet is lost with the link, its set
        // goes home.
        fabric.sched_at(now, Event::ChurnRemove { dev: E0 });
        fabric.run_until(now);
        assert_eq!(fabric.counters.dropped_link_down, 1);
        assert!(!fabric.port(E0, 0).is_queued());
        assert_eq!(fabric.sets_held(), [second]);
        // The next port to queue anything borrows that very set, and
        // finds nothing of E0's in it; S's port 1 still has its own.
        fabric.inject(S, 2, later, tagged(Lane::Oo, 3));
        assert_eq!(fabric.port(S, 2).q, first);
        let only = |lane: Lane, tag: u16| {
            let mut model = Model::default();
            match lane {
                Lane::Mgmt => model.mgmt.push_back(tag),
                Lane::Oo | Lane::Data => model.data.push_back(tag),
            }
            model
        };
        assert_eq!(fabric.observed(S, 2), only(Lane::Oo, 3));
        assert_eq!(fabric.observed(S, 1), only(Lane::Data, 2));
        // Re-added and retrained (1 µs), E0 queues again — on a third
        // set, the first being out.
        fabric.sched_at(now, Event::ChurnAdd { dev: E0 });
        fabric.run_until(now + SimDuration::from_us(2));
        assert_eq!(fabric.port(E0, 0).state, PortState::Active);
        fabric.inject(E0, 0, later, tagged(Lane::Mgmt, 4));
        assert_eq!(fabric.sets_held().len(), 3);
        assert_eq!(fabric.observed(E0, 0), only(Lane::Mgmt, 4));
        assert_eq!(fabric.observed(S, 2), only(Lane::Oo, 3));
        assert_eq!(fabric.queued_packets(), 3);
        fabric.run_until_idle();
        assert_eq!(fabric.queued_packets(), 0);
        assert_eq!(fabric.sets_held(), []);
        assert_eq!(fabric.packet_arena_live(), 0);
        assert_eq!(fabric.counters.churn_events, 2);
    }
}
