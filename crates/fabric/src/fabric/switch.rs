//! A routing header arriving at a device: the destination waits for the
//! tail, a switch takes its turn from the header and forwards — committed
//! on the spot when the cut-through guard allows (see `port.rs`), through
//! the output queue otherwise — and a multicast packet is replicated
//! along the group's tree.

use super::*;

impl Fabric {
    pub(super) fn on_arrive(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let d = &self.devices[dev.idx()];
        if !d.active || d.ports[usize::from(port)].state != PortState::Active {
            // Nobody is listening: no buffer was taken, none to release.
            self.counters.dropped_inactive += 1;
            self.packets.free(packet);
            return;
        }
        if let Some(Packet {
            payload: Payload::Mcast { .. },
            ..
        }) = self.packets.whole(packet)
        {
            return self.on_arrive_mcast(dev, port, packet);
        }
        let (cursor, pool) = self.route(packet);
        if cursor.exhausted(pool) {
            // This device is the destination.
            return self.await_tail(dev, port, packet);
        }
        let turn = self.take_turn(dev, port, cursor, pool);
        let ready = self.sim.now() + self.config.switch_latency;
        // Once per hop: the credit release, the guard and the transmission
        // all read it.
        let size = self.packets.wire_size(packet);
        let entry = OutEntry {
            ready,
            packet,
            origin: self.origin_of(dev, port, packet, size),
        };
        let Some((egress, pointer)) = turn else {
            return self.drop_entry(entry, |c| &mut c.dropped_bad_route);
        };
        self.advance(packet, pointer);
        self.counters.forwarded += 1;
        match self.cut_through_peer(dev, egress, &entry, size) {
            Some(peer) => {
                // Commit now what `pump` would do at `ready`.
                self.devices[dev.idx()].ports[usize::from(egress)].cut_until = ready;
                self.cut_latest = self.cut_latest.max(ready);
                self.counters.mgmt_queue_peak = self.counters.mgmt_queue_peak.max(1);
                self.transmit(dev, egress, (CreditClass::Mgmt, size), entry, peer, ready);
            }
            None => self.enqueue_out(dev, egress, entry),
        }
    }

    /// The route step: reads this switch's turn at the packet's cursor and
    /// returns the egress port and the turn pointer past it. `None` is a
    /// bad route: turns left at an endpoint (nowhere to go), an
    /// undecodable turn, or a U-turn.
    #[inline]
    fn take_turn(
        &self,
        dev: DevId,
        port: u8,
        cursor: TurnCursor,
        pool: &TurnPool,
    ) -> Option<(u8, u16)> {
        let info = &self.devices[dev.idx()].info;
        if info.device_type != DeviceType::Switch {
            return None;
        }
        let ports = info.port_count as u8;
        let (turn, next) = cursor.take_turn(pool, turn_width(ports)).ok()?;
        let egress = match cursor.direction {
            Direction::Forward => apply_forward(port, turn, ports),
            Direction::Backward => apply_backward(port, turn, ports),
        };
        (egress != port).then_some((egress, next.pointer))
    }

    /// The header is in and this device consumes the packet: deliver it
    /// once the rest has been received.
    fn await_tail(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let header = self.packets.header_bytes(packet);
        let remaining = self.packets.wire_size(packet).saturating_sub(header);
        let at = self.sim.now() + self.config.tx_time(remaining);
        self.sched_at(at, Event::Deliver { dev, port, packet });
    }

    /// Multicast forwarding: switches replicate along their configured
    /// group mask (a spanning tree installed by the FM's multicast group
    /// management); member endpoints consume.
    fn on_arrive_mcast(&mut self, dev: DevId, port: u8, packet: PacketRef) {
        let Payload::Mcast { group, len, hops } = self.packets.packet(packet).payload else {
            unreachable!("caller checked");
        };
        let d = &self.devices[dev.idx()];
        let (mask, nports) = (d.config.mcast_entry(group), d.ports.len());
        if d.is_endpoint() {
            if mask != 0 {
                return self.await_tail(dev, port, packet);
            }
            // Not a member: the NIC filter discards it, uncounted.
            self.release_origin_now(dev, port, packet);
            self.packets.free(packet);
            return;
        }
        // The input buffer is freed as soon as the replicas are copied to
        // the output queues.
        self.release_origin_now(dev, port, packet);
        let ready = self.sim.now() + self.config.switch_latency;
        // With `hops == 0` the loop guard has tripped (a misconfigured,
        // cyclic tree): replicate nowhere.
        let mask = if hops == 0 { 0 } else { mask };
        let mut replicated = false;
        // A table entry is one dword: ports past 31 carry no tree.
        for p in 0..nports.min(32) as u8 {
            if p == port || (mask >> p) & 1 == 0 {
                continue;
            }
            replicated = true;
            self.counters.forwarded += 1;
            let header = self.packets.packet(packet).header.clone();
            let payload = Payload::Mcast {
                group,
                len,
                hops: hops - 1,
            };
            self.inject(dev, p, ready, Packet::new(header, payload));
        }
        if !replicated {
            // The tree does not point anywhere from here.
            self.counters.dropped_bad_route += 1;
        }
        // The inbound copy is consumed here either way.
        self.packets.free(packet);
    }
}
