//! Packet bodies at rest, in two slabs.
//!
//! What an agent or a device builds — PI-4, PI-5, PI-9, agent-sent data,
//! multicast — is stored whole, a [`Packet`] of 136 bytes. A packet of a
//! traffic plan's unicast or switch-sourced flow is stored as a
//! [`FlowBody`]: which flow, when it was sent, how far along the flow's
//! route it has come. Everything else about it is its flow's — the route
//! (`Traffic::flows`), the direction (forward), the class (data), the
//! payload and the wire size ([`FlowWire`]) — so the packets
//! that crowd the data queues under load are 16 bytes a slot, not a copy
//! of their flow's 72-byte turn pool and a payload sized for PI-4
//! completions.
//!
//! Events and port queues carry a 4-byte [`PacketRef`] whose top bit
//! picks the slab, and every question the fabric asks of a body goes
//! through the accessors here. A flow body never reaches an agent: its
//! delivery consumes it and the drop paths free it, so the agent edge
//! only ever sees whole packets.

use super::*;

/// Handle to a packet body: its slab index, with the top bit set for a
/// [`FlowBody`].
#[derive(Clone, Copy, Debug)]
pub(super) struct PacketRef(u32);

/// Which slab a [`PacketRef`] points into, and where.
enum Slab {
    Whole(u32),
    Flow(u32),
}

impl PacketRef {
    const FLOW: u32 = 1 << 31;

    fn new(at: u32, slab: u32) -> PacketRef {
        assert!(at < PacketRef::FLOW, "packet slab overflow");
        PacketRef(at | slab)
    }

    #[inline]
    fn slab(self) -> Slab {
        if self.0 & PacketRef::FLOW == 0 {
            Slab::Whole(self.0)
        } else {
            Slab::Flow(self.0 & !PacketRef::FLOW)
        }
    }
}

/// A traffic-plan unicast packet at rest. A slot of its slab is 16 bytes
/// (pinned by a test in `fabric.rs`): the body's 14, and in its padding
/// the [`FlowTag`] whose unused values tell the slab's free slots apart.
pub(super) struct FlowBody {
    /// Injection time in picoseconds, for the delivery's latency.
    pub(super) sent_ps: u64,
    /// The flow: an index into `Traffic::flows`.
    pub(super) flow: u32,
    /// Where in the flow's pool the next switch reads its turn.
    pub(super) turn_pointer: u16,
    /// Never read: its one value leaves the slab the byte's other 255
    /// to mark a free slot with.
    _tag: FlowTag,
}

/// A byte that can hold one value: what makes [`FlowBody`] a type with a
/// niche, so that its arena slot (a body or a free-list link) needs no
/// separate discriminant.
#[derive(Clone, Copy)]
#[repr(u8)]
enum FlowTag {
    Body,
}

impl FlowBody {
    pub(super) fn new(sent_ps: u64, flow: u32, turn_pointer: u16) -> FlowBody {
        FlowBody {
            sent_ps,
            flow,
            turn_pointer,
            _tag: FlowTag::Body,
        }
    }
}

/// What the wire sees of each packet of one flow, worked out once from
/// the packet its shots stand for ([`build_flow_packet`]).
#[derive(Clone, Copy)]
struct FlowWire {
    /// Bytes on the wire.
    size: usize,
    /// Routing header plus its framing: what a switch needs in to route.
    header: usize,
}

/// The two slabs, and each flow's [`FlowWire`].
#[derive(Default)]
pub(super) struct Packets {
    whole: Arena<Packet>,
    flows: Arena<FlowBody>,
    /// Parallel to `Traffic::flows`.
    wire: Vec<FlowWire>,
}

impl Packets {
    /// Records what the wire sees of each flow's packets.
    pub(super) fn set_flows(&mut self, flows: &[FlowSpec]) {
        let wire = |spec| {
            let packet = build_flow_packet(spec);
            let (size, header) = (packet.wire_size(), packet.header.wire_size() + 4);
            FlowWire { size, header }
        };
        self.wire = flows.iter().map(wire).collect();
    }

    pub(super) fn alloc(&mut self, packet: Packet) -> PacketRef {
        PacketRef::new(self.whole.alloc(packet), 0)
    }

    pub(super) fn alloc_flow(&mut self, body: FlowBody) -> PacketRef {
        PacketRef::new(self.flows.alloc(body), PacketRef::FLOW)
    }

    /// Frees a body from whichever slab holds it.
    pub(super) fn free(&mut self, packet: PacketRef) {
        match packet.slab() {
            Slab::Whole(at) => self.whole.free(at),
            Slab::Flow(at) => self.flows.free(at),
        }
    }

    /// Live bodies, both slabs.
    pub(super) fn live(&self) -> usize {
        self.whole.live() + self.flows.live()
    }

    /// The packet, if it is stored whole (`None` for a flow body).
    #[inline]
    pub(super) fn whole(&self, packet: PacketRef) -> Option<&Packet> {
        match packet.slab() {
            Slab::Whole(at) => Some(self.whole.get(at)),
            Slab::Flow(_) => None,
        }
    }

    /// A packet known to be stored whole: what an agent, a responder or
    /// a multicast replication handles.
    pub(super) fn packet(&self, packet: PacketRef) -> &Packet {
        self.whole(packet)
            .expect("a flow body is consumed at its delivery")
    }

    /// Moves a whole packet out, freeing its slot.
    pub(super) fn take(&mut self, packet: PacketRef) -> Packet {
        match packet.slab() {
            Slab::Whole(at) => self.whole.take(at),
            Slab::Flow(_) => panic!("a flow body is consumed at its delivery"),
        }
    }

    /// Moves a flow body out, freeing its slot.
    pub(super) fn take_flow(&mut self, packet: PacketRef) -> FlowBody {
        match packet.slab() {
            Slab::Flow(at) => self.flows.take(at),
            Slab::Whole(_) => panic!("not a flow body"),
        }
    }

    /// Bytes on the wire.
    #[inline]
    pub(super) fn wire_size(&self, packet: PacketRef) -> usize {
        match packet.slab() {
            Slab::Whole(at) => self.whole.get(at).wire_size(),
            Slab::Flow(at) => self.flow_wire(at).size,
        }
    }

    /// The routing header and its framing: what must be in before a
    /// switch can route, and what the tail follows.
    #[inline]
    pub(super) fn header_bytes(&self, packet: PacketRef) -> usize {
        match packet.slab() {
            Slab::Whole(at) => self.whole.get(at).header.wire_size() + 4,
            Slab::Flow(at) => self.flow_wire(at).header,
        }
    }

    #[inline]
    pub(super) fn class(&self, packet: PacketRef) -> CreditClass {
        match packet.slab() {
            Slab::Whole(at) => CreditClass::of(self.whole.get(at)),
            Slab::Flow(_) => CreditClass::Data,
        }
    }

    fn flow_wire(&self, at: u32) -> FlowWire {
        self.wire[self.flows.get(at).flow as usize]
    }
}

impl Fabric {
    /// The packet's turn cursor and the pool it reads.
    #[inline]
    pub(super) fn route(&self, packet: PacketRef) -> (TurnCursor, &TurnPool) {
        match packet.slab() {
            Slab::Whole(at) => {
                let header = &self.packets.whole.get(at).header;
                let cursor = TurnCursor {
                    pointer: header.turn_pointer,
                    direction: header.direction,
                };
                (cursor, &header.pool)
            }
            Slab::Flow(at) => {
                let body = self.packets.flows.get(at);
                let cursor = TurnCursor {
                    pointer: body.turn_pointer,
                    direction: Direction::Forward,
                };
                (cursor, &self.traffic.flows[body.flow as usize].pool)
            }
        }
    }

    /// Moves the packet's turn pointer on to `pointer`.
    #[inline]
    pub(super) fn advance(&mut self, packet: PacketRef, pointer: u16) {
        match packet.slab() {
            Slab::Whole(at) => self.packets.whole.get_mut(at).header.turn_pointer = pointer,
            Slab::Flow(at) => self.packets.flows.get_mut(at).turn_pointer = pointer,
        }
    }
}
