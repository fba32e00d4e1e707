//! The outside world acting on the fabric: device power-up and removal,
//! the scheduled faults of a [`FaultPlan`](crate::FaultPlan) and the
//! hot-plug events of a [`ChurnPlan`](crate::ChurnPlan).

use super::*;

impl Fabric {
    /// Puts the fault plan's events on the clock, then the churn plan's
    /// (an inert one materializes to nothing and seeds no RNG, so
    /// zero-rate runs replay churn-free runs byte-for-byte).
    pub(super) fn schedule_faults_and_churn(&mut self, topo: &Topology) {
        for fault in self.config.faults.events.clone() {
            let event = match fault.kind {
                FaultKind::LinkFlap {
                    device,
                    port,
                    down_for,
                } => Event::FaultLinkDown {
                    dev: DevId(device),
                    port,
                    down_for,
                },
                FaultKind::DeviceHang { device, duration } => Event::FaultDeviceHang {
                    dev: DevId(device),
                    duration,
                },
                FaultKind::DeviceSlow {
                    device,
                    factor,
                    duration,
                } => Event::FaultDeviceSlow {
                    dev: DevId(device),
                    factor,
                    duration,
                },
            };
            self.sched_at(SimTime::ZERO + fault.at, event);
        }
        for churn in self.config.churn.materialize(topo) {
            let event = match churn.action {
                ChurnAction::LinkFlap {
                    device,
                    port,
                    down_for,
                } => Event::ChurnFlap {
                    dev: DevId(device),
                    port,
                    down_for,
                },
                ChurnAction::DeviceRemove { device } => Event::ChurnRemove { dev: DevId(device) },
                ChurnAction::DeviceAdd { device } => Event::ChurnAdd { dev: DevId(device) },
            };
            self.sched_at(SimTime::ZERO + churn.at, event);
        }
    }

    // ---------------- activation ----------------

    pub(super) fn on_activate(&mut self, dev: DevId) {
        if self.devices[dev.idx()].active {
            return;
        }
        self.devices[dev.idx()].active = true;
        let device = dev.0;
        self.trace
            .emit(self.sim.now(), || TraceEvent::DeviceActivated { device });
        // Train every link whose peer is already active.
        for port in 0..self.devices[dev.idx()].ports.len() as u8 {
            self.retrain(dev, port);
        }
    }

    /// Trains both ends of `(dev, port)`'s link if both devices are up
    /// (training only starts from `Down`: an end already training or
    /// active is left alone), for activation and a flap's up edge alike.
    /// True if the link exists and both ends are alive.
    fn retrain(&mut self, dev: DevId, port: u8) -> bool {
        let Some((peer_dev, peer_port)) = self.devices[dev.idx()].ports[usize::from(port)].peer()
        else {
            return false;
        };
        if !self.devices[dev.idx()].active || !self.devices[peer_dev.idx()].active {
            return false;
        }
        // One event for the link, due when the ends that started training
        // here are done.
        let event = match (
            self.begin_training(dev, port),
            self.begin_training(peer_dev, peer_port),
        ) {
            (true, both) => Event::PortTrained { dev, port, both },
            (false, true) => Event::PortTrained {
                dev: peer_dev,
                port: peer_port,
                both: false,
            },
            (false, false) => return true,
        };
        self.sched_after(self.config.train_time, event);
        true
    }

    pub(super) fn on_deactivate(&mut self, dev: DevId) {
        if !self.devices[dev.idx()].active {
            return;
        }
        self.devices[dev.idx()].active = false;
        let device = dev.0;
        self.trace
            .emit(self.sim.now(), || TraceEvent::DeviceDeactivated { device });
        for port in 0..self.devices[dev.idx()].ports.len() as u8 {
            // Own side: silent death. Peer side: carrier loss, reported.
            self.carrier_lost(dev, port, false);
            if let Some((peer_dev, peer_port)) =
                self.devices[dev.idx()].ports[usize::from(port)].peer()
            {
                self.carrier_lost(peer_dev, peer_port, true);
            }
        }
        // Clear local consumers; queued packets are lost with the device.
        let d = &mut self.devices[dev.idx()];
        let fifos = &mut self.fifos;
        let mut free = |(_, packet): Held| self.packets.free(packet);
        let mut lost =
            d.ingress.clear(fifos, &mut free) + d.responder.stage.clear(fifos, &mut free);
        if let Some(slot) = &mut d.agent {
            lost += slot.inbox.clear(fifos, free);
        }
        self.counters.dropped_inactive += lost as u64;
    }

    // ---------------- injected faults ----------------

    /// True when a scheduled fault names a `(dev, port)` that exists.
    /// Plans are user data, so out-of-range targets are ignored rather
    /// than crashing the run.
    fn fault_link_exists(&self, dev: DevId, port: u8) -> bool {
        dev.idx() < self.devices.len() && usize::from(port) < self.devices[dev.idx()].ports.len()
    }

    /// A link flap's down edge: both ends lose carrier and drain their
    /// queues, and — unlike [`Fabric::on_deactivate`], where the dying
    /// device is silent — *both* sides report a PI-5 `PortDown`, since
    /// both devices stay alive. The up edge is scheduled `down_for`
    /// later.
    pub(super) fn on_fault_link_down(&mut self, dev: DevId, port: u8, down_for: SimDuration) {
        if !self.fault_link_exists(dev, port) {
            return;
        }
        let Some(peer) = self.devices[dev.idx()].ports[usize::from(port)].peer() else {
            return;
        };
        self.counters.link_flaps += 1;
        self.trace
            .emit(self.sim.now(), || TraceEvent::FaultLinkDown {
                device: dev.0,
                port: u16::from(port),
            });
        for (d, p) in [(dev, port), peer] {
            self.carrier_lost(d, p, true);
        }
        self.sched_after(down_for, Event::FaultLinkUp { dev, port });
    }

    /// A link flap's up edge: retrain both ends, unless a device died
    /// meanwhile.
    pub(super) fn on_fault_link_up(&mut self, dev: DevId, port: u8) {
        if self.fault_link_exists(dev, port) && self.retrain(dev, port) {
            self.trace.emit(self.sim.now(), || TraceEvent::FaultLinkUp {
                device: dev.0,
                port: u16::from(port),
            });
        }
    }

    pub(super) fn on_fault_device_hang(&mut self, dev: DevId, duration: SimDuration) {
        let until = self.sim.now() + duration;
        if let Some(d) = self.devices.get_mut(dev.idx()) {
            let faults = d.responder.faults.get_or_insert_with(Box::default);
            faults.hang_until = faults.hang_until.max(until);
            let device = dev.0;
            self.trace
                .emit(self.sim.now(), || TraceEvent::FaultDeviceHang { device });
        }
    }

    pub(super) fn on_fault_device_slow(&mut self, dev: DevId, factor: f64, duration: SimDuration) {
        let until = self.sim.now() + duration;
        if let Some(d) = self.devices.get_mut(dev.idx()) {
            let faults = d.responder.faults.get_or_insert_with(Box::default);
            (faults.slow_until, faults.slow_factor) = (until, factor);
            let device = dev.0;
            self.trace
                .emit(self.sim.now(), || TraceEvent::FaultDeviceSlow { device });
        }
    }

    // ---------------- churn ----------------
    //
    // Churn-plan events are thin provenance wrappers over the shared
    // link-down / activate / deactivate machinery, so churned runs
    // exercise exactly the hot-plug paths manual experiments use.

    /// Counts and traces one churn event if its target `exists` (plans
    /// are user data). True if the event should go ahead.
    fn churn(&mut self, exists: bool, event: TraceEvent) -> bool {
        if exists {
            self.counters.churn_events += 1;
            self.trace.emit(self.sim.now(), || event);
        }
        exists
    }

    pub(super) fn on_churn_flap(&mut self, dev: DevId, port: u8, down_for: SimDuration) {
        let flap = TraceEvent::ChurnLinkFlap {
            device: dev.0,
            port: u16::from(port),
        };
        if self.churn(self.fault_link_exists(dev, port), flap) {
            self.on_fault_link_down(dev, port, down_for);
        }
    }

    pub(super) fn on_churn_remove(&mut self, dev: DevId) {
        let removed = TraceEvent::ChurnDeviceRemoved { device: dev.0 };
        if self.churn(dev.idx() < self.devices.len(), removed) {
            self.on_deactivate(dev);
        }
    }

    pub(super) fn on_churn_add(&mut self, dev: DevId) {
        let readded = TraceEvent::ChurnDeviceReadded { device: dev.0 };
        if self.churn(dev.idx() < self.devices.len(), readded) {
            self.on_activate(dev);
        }
    }
}
