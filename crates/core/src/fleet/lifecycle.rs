//! Peers and lifecycle waves: converting finished members into serving
//! peers, the rolling upgrade, scale-down and scale-up waves, and the
//! hand-offs that start each step inside a member's own sim.

use super::engine::{FleetEvent, Goal};
use super::{Fleet, FleetStall, LifecycleStage, ARCHIVE_SLOT_BASE, PEER_SHELF_BASE, UPGRADE_SLOT};
use crate::devirt::Phase;
use crate::fabric::{self, image_disk, image_server};
use crate::machine::{
    reclaim, sample_flight_row, start_deployment, start_flight_sampler, start_program,
    start_revirt, GuestProgram, Machine, MachineSim, MachineSpec,
};
use hwsim::disk::DiskModel;
use hwsim::eth::MacAddr;
use simkit::{Prng, SimDuration, SimTime};
use std::collections::VecDeque;

/// A member's standing as a read-only peer server: off, announced
/// (its copy completed and the [`FleetEvent::PeerActivate`] is in
/// flight), or serving from a node in other members' read sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Peer {
    Off,
    Announced,
    Serving,
}

/// The lifecycle wave: what it deploys and who still waits for a slot.
#[derive(Default)]
pub(super) struct Wave {
    /// Image seed of the *next* tenant.
    seed: u64,
    /// Scale-down: hold reclaimed members empty instead of redeploying.
    park: bool,
    /// Members waiting for an admission slot, released one at a time
    /// as predecessors park or finish redeploying (bounded concurrency
    /// — the lifecycle side of the admission ramp).
    queue: VecDeque<usize>,
    /// Members whose stage gates the wave's completion, kept by
    /// [`Fleet::set_stage`] so the run loop's exit check is O(1).
    pub(super) pending: usize,
}

impl LifecycleStage {
    /// Whether a member at this stage still gates its wave: from its
    /// selection until it parks or boots the redeployed image.
    pub(super) fn gates_wave(self) -> bool {
        matches!(
            self,
            LifecycleStage::Queued
                | LifecycleStage::SnapshotBack
                | LifecycleStage::Reclaiming
                | LifecycleStage::Redeploying
        )
    }
}

/// Starts a member's deployment with its installed guest program, and
/// its timeline sampler (a no-op unless the flight recorder is on).
pub(super) fn deploy_member(m: &mut Machine, sim: &mut MachineSim) {
    start_deployment(m, sim);
    start_program(m, sim);
    start_flight_sampler(m, sim);
}

/// Member-side arm of [`FleetEvent::UpgradeStart`]: once the machine
/// reaches bare metal (re-virtualization must wait for a booted
/// guest's background copy and devirtualization), point its writes
/// at its archive volume and re-virtualize. Polls on its own sim.
fn arm_revirt(m: &mut Machine, sim: &mut MachineSim, slot: u8) {
    if m.phase() != Phase::BareMetal {
        sim.schedule_in(SimDuration::from_millis(1), move |m: &mut Machine, sim| {
            arm_revirt(m, sim, slot)
        });
        return;
    }
    if let Some(vmm) = m.vmm.as_mut() {
        vmm.client.set_write_target(0, slot);
    }
    start_revirt(m, sim);
}

impl Fleet {
    /// Moves member `i` to `stage`: the one place a stage changes, so
    /// the wave's pending count follows it.
    fn set_stage(&mut self, i: usize, stage: LifecycleStage) {
        let was = self.members[i].stage.gates_wave();
        self.members[i].stage = stage;
        match (was, stage.gates_wave()) {
            (false, true) => self.wave.pending += 1,
            (true, false) => self.wave.pending -= 1,
            _ => {}
        }
    }

    /// Member `i` stepped to `at`: books its peer announcement once its
    /// copy completes, and detects its lifecycle stage transitions — at
    /// most one per step (the next stage always waits on a fleet event
    /// or more member progress).
    pub(super) fn note_member_progress(&mut self, i: usize, at: SimTime) {
        let m = &self.members[i];
        if self.cfg.peer_serving && m.peer == Peer::Off && m.machine.deployment_progress() >= 1.0 {
            self.members[i].peer = Peer::Announced;
            self.timeline
                .announce(at, FleetEvent::PeerActivate { machine: i });
        }
        let m = &self.members[i].machine;
        match self.members[i].stage {
            LifecycleStage::SnapshotBack if m.snapshot_complete() => {
                self.set_stage(i, LifecycleStage::Reclaiming);
                self.timeline
                    .announce(at, FleetEvent::Reclaim { machine: i });
            }
            LifecycleStage::Reclaiming if m.phase() != Phase::SnapshotBack => {
                // The scheduled reclaim executed: the member now runs
                // the next tenant's deployment, or parks. A parked
                // member frees its wave admission slot here; a
                // redeploying one frees it when the new image boots.
                self.members[i].image_seed = self.wave.seed;
                if self.wave.park {
                    self.set_stage(i, LifecycleStage::Parked);
                    self.admit_upgrade_next(at);
                } else {
                    self.set_stage(i, LifecycleStage::Redeploying);
                }
            }
            LifecycleStage::Redeploying if m.guest.finished => {
                // Close the redeploy timeline at its boot-finish state
                // (no-op when the recorder is off).
                sample_flight_row(m, at);
                self.set_stage(i, LifecycleStage::Done);
                self.members[i].redeployed_at = Some(at);
                self.admit_upgrade_next(at);
            }
            _ => {}
        }
    }

    /// Member `i`'s [`FleetEvent::PeerActivate`] announcement landed.
    /// A member pulled into a lifecycle wave meanwhile must not start
    /// serving: its image view is (or is about to go) stale. Idle and
    /// Done members hold a complete, current image and may serve it.
    pub(super) fn peer_announced(&mut self, i: usize) {
        if self.members[i].peer == Peer::Announced {
            self.members[i].peer = Peer::Off;
        }
        if matches!(
            self.members[i].stage,
            LifecycleStage::Idle | LifecycleStage::Done
        ) {
            self.activate_peer(i);
            self.admit_ramp();
        }
    }

    /// Releases the next queued wave member: announces its
    /// [`FleetEvent::UpgradeStart`] as the slot opens at `at`.
    fn admit_upgrade_next(&mut self, at: SimTime) {
        if let Some(i) = self.wave.queue.pop_front() {
            self.timeline
                .announce(at, FleetEvent::UpgradeStart { machine: i });
        }
    }

    /// Converts finished machine `i` into a read-only peer server: a
    /// new node exporting the immutable golden image on its own switch
    /// port (guest writes live in the machine's private copy and are
    /// never served), appended to every other machine's read-endpoint
    /// set. Attaching a port draws no randomness, so peer activation
    /// preserves the deterministic interleave.
    fn activate_peer(&mut self, i: usize) {
        self.members[i].peer = Peer::Serving;
        let shelf = PEER_SHELF_BASE + i as u16;
        // The bitmap is full: the member holds exactly the image of its
        // seed (the golden one, or the upgrade's after a wave).
        let seed = self.members[i].image_seed;
        let server = image_server(
            &self.cfg.machine_cfg,
            self.cfg.server_cfg.clone(),
            shelf,
            self.cfg.spec.image_sectors,
            seed,
        );
        self.fabric
            .add_server(MacAddr::host(1024 + i as u16), server, false);
        // Only members deploying the *same* image may stripe reads onto
        // this peer — during a rolling upgrade old-image laggards and
        // new-image redeployers coexist on one fabric.
        let members = self.members.iter_mut().enumerate();
        let same = members.filter(|(j, m)| *j != i && m.image_seed == seed);
        for vmm in same.filter_map(|(_, m)| m.machine.vmm.as_mut()) {
            vmm.client.add_read_endpoint((shelf, 0));
        }
    }

    /// Retires member `i`'s peer node before any tenant state changes:
    /// the shelf leaves request routing (clients recover by retransmit
    /// failover) and every other machine's read set, so no client is
    /// handed old-tenant blocks once the image view goes stale. The node
    /// stays on the fabric, unreachable, until the member serves again.
    fn retire_peer(&mut self, i: usize) {
        let was = std::mem::replace(&mut self.members[i].peer, Peer::Off);
        if was != Peer::Serving {
            return;
        }
        let shelf = PEER_SHELF_BASE + i as u16;
        self.fabric.retire_shelf(shelf);
        let others = self.members.iter_mut().enumerate().filter(|(j, _)| *j != i);
        for vmm in others.filter_map(|(_, m)| m.machine.vmm.as_mut()) {
            vmm.client.remove_read_endpoint((shelf, 0));
        }
    }

    /// How many members have converted into read-only serving peers.
    pub fn peers_active(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.peer == Peer::Serving)
            .count()
    }

    /// Begins member `i`'s lifecycle wave step: retire its peer first,
    /// then (inside the member's own sim) point its writes at its
    /// archive volume and start re-virtualization.
    pub(super) fn upgrade_start(&mut self, i: usize, t: SimTime) {
        self.retire_peer(i);
        self.set_stage(i, LifecycleStage::SnapshotBack);
        let slot = ARCHIVE_SLOT_BASE + i as u8;
        self.hand_off(i, t, move |m: &mut Machine, sim| arm_revirt(m, sim, slot));
    }

    /// Member `i`'s snapshot-back completed: reset the machine for the
    /// next tenant and, unless the wave parks it, redeploy.
    pub(super) fn reclaim_member(&mut self, i: usize, t: SimTime) {
        let factory = &mut self.program;
        let program = (!self.wave.park)
            .then(|| (factory.as_mut().expect("start() installed the factory"))(i));
        let mut spec = self.cfg.spec.clone();
        spec.image_seed = self.wave.seed;
        let jitter = self.members[i].reclaim_jitter;
        self.hand_off_redeploy(i, t, Some((spec, jitter)), program);
    }

    /// Hands member `i` its next tenant at `t`, inside its own sim:
    /// with `reclaim_with` (next spec, jitter reseed) it is reset first
    /// (a failure surfaces as [`Machine::reclaim_error`]); then its reads
    /// go to the [`UPGRADE_SLOT`] replicas, and a `program` deploys.
    fn hand_off_redeploy(
        &mut self,
        i: usize,
        t: SimTime,
        reclaim_with: Option<(MachineSpec, u64)>,
        program: Option<Box<dyn GuestProgram>>,
    ) {
        let servers = self.cfg.servers as u16;
        self.hand_off(i, t, move |m: &mut Machine, sim| {
            if let Some((spec, jitter)) = reclaim_with {
                if reclaim(m, sim, &spec).is_err() {
                    return;
                }
                if let Some(vmm) = m.vmm.as_mut() {
                    vmm.client.reseed_jitter(jitter);
                }
            }
            if let Some(vmm) = m.vmm.as_mut() {
                vmm.client
                    .set_read_endpoints((0..servers).map(|j| (j, UPGRADE_SLOT)).collect());
            }
            if let Some(program) = program {
                m.set_program(program);
                deploy_member(m, sim);
            }
        });
    }

    /// Exports the [`UPGRADE_SLOT`] volume (the `seed` image) on every
    /// origin replica, once — a second wave must carry the same image.
    fn export_upgrade_volume(&mut self, seed: u64) {
        if let Some(s) = self.upgrade_volume_seed.replace(seed) {
            assert_eq!(s, seed, "the upgrade volume holds another image");
            return;
        }
        let sectors = self.cfg.spec.image_sectors;
        for server in self.fabric.origins_mut() {
            server.add_volume(UPGRADE_SLOT, image_disk(sectors, seed));
        }
    }

    /// Arms a snapshot wave over `members`: exports the upgrade volume
    /// (unless the wave parks) and one archive volume per member (slot
    /// `ARCHIVE_SLOT_BASE + i` on origin 0, a replica of its *current*
    /// image that snapshot-back overwrites with its dirty blocks), then
    /// admits the first `batch`; each later one takes a freed slot.
    fn begin_wave(&mut self, members: Vec<usize>, new_seed: u64, batch: usize, park: bool) {
        assert!(batch >= 1, "a wave needs at least one machine in flight");
        assert!(!members.is_empty(), "a wave needs at least one member");
        assert!(
            self.members.len() <= (u8::MAX - ARCHIVE_SLOT_BASE) as usize + 1,
            "archive volumes are addressed by 8-bit AoE slots"
        );
        self.wave.seed = new_seed;
        self.wave.park = park;
        // Fork the post-reclaim jitter reseeds up front: admission
        // order is deterministic, but forking per completion would tie
        // the stream to detection timing.
        let mut seeds = Prng::new(self.cfg.seed ^ new_seed.rotate_left(17));
        for m in &mut self.members {
            m.reclaim_jitter = seeds.next_u64();
        }
        if !park {
            self.export_upgrade_volume(new_seed);
        }
        for &i in &members {
            let stage = self.members[i].stage;
            assert!(
                matches!(stage, LifecycleStage::Idle | LifecycleStage::Done),
                "machine {i} cannot start a snapshot wave from {stage:?}"
            );
            let slot = ARCHIVE_SLOT_BASE + i as u8;
            assert!(
                !self.fabric.server().serves_slot(slot),
                "machine {i} already archived this run (one snapshot wave per member)"
            );
            let disk = image_disk(self.cfg.spec.image_sectors, self.members[i].image_seed);
            self.fabric.server_mut().add_volume(slot, disk);
            self.set_stage(i, LifecycleStage::Queued);
            self.members[i].redeployed_at = None;
        }
        self.wave.queue = members.into_iter().collect();
        for _ in 0..batch.min(self.wave.queue.len()) {
            self.admit_upgrade_next(self.now);
        }
        self.rearm_fleet_sampler();
    }

    /// The redeploy boot-finish instants of `members`, in their order.
    /// The wave ends only once every member it redeploys has booted.
    fn redeployed(&self, members: &[usize]) -> Vec<SimTime> {
        let at = |i: &usize| self.members[*i].redeployed_at;
        members.iter().filter_map(at).collect()
    }

    /// Rolling image upgrade across every member, under bounded
    /// concurrency: each machine in turn retires its peer (if any),
    /// re-virtualizes, streams its dirty blocks to its archive volume,
    /// is reclaimed, and redeploys the `new_seed` image from the
    /// [`UPGRADE_SLOT`] replicas — with at most `batch` machines out
    /// of service at any instant (the lifecycle analogue of the
    /// admission ramp). Returns per-machine redeploy boot-finish
    /// instants, in member order. Call after
    /// [`Fleet::run_to_all_booted`].
    /// A stall names each member whose reclaim failed.
    pub fn run_rolling_upgrade(
        &mut self,
        new_seed: u64,
        batch: usize,
        program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        let members: Vec<usize> = (0..self.members.len()).collect();
        self.run_upgrade_wave(&members, new_seed, batch, program, limit)
    }

    /// [`Fleet::run_rolling_upgrade`] over a member subset — the rest
    /// of the fleet keeps running (serving, deploying) while the wave
    /// cycles only `members` through snapshot-back and redeploy.
    pub fn run_upgrade_wave(
        &mut self,
        members: &[usize],
        new_seed: u64,
        batch: usize,
        program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        self.program = Some(Box::new(program));
        self.begin_wave(members.to_vec(), new_seed, batch, false);
        self.run_loop(limit, Goal::Wave)?;
        Ok(self.redeployed(members))
    }

    /// Scale-down wave: re-virtualize, snapshot-back, and reclaim
    /// `members`, then hold them empty ([`LifecycleStage::Parked`]) —
    /// their tenants' final disk states live on in the archive
    /// volumes, ready to hand the hardware to new tenants later
    /// ([`Fleet::run_scale_up`]).
    pub fn run_scale_down(
        &mut self,
        members: &[usize],
        batch: usize,
        limit: SimTime,
    ) -> Result<(), FleetStall> {
        // Parked machines get no image; the seed is a placeholder for
        // the reclaimed (empty) disk's mirror bookkeeping.
        self.begin_wave(members.to_vec(), self.cfg.spec.image_seed, batch, true);
        self.run_loop(limit, Goal::Wave)
    }

    /// Scale-up wave: redeploys previously [`LifecycleStage::Parked`]
    /// members with the `new_seed` image (from the [`UPGRADE_SLOT`]
    /// replicas) and a fresh guest program. All `members` release
    /// together, one fabric lookahead out — parked machines hold no
    /// tenant, so there is nothing to drain first. Returns their boot
    /// instants in `members` order.
    pub fn run_scale_up(
        &mut self,
        members: &[usize],
        new_seed: u64,
        mut program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static,
        limit: SimTime,
    ) -> Result<Vec<SimTime>, FleetStall> {
        self.wave.seed = new_seed;
        self.export_upgrade_volume(new_seed);
        let at = self.now + fabric::lookahead();
        for &i in members {
            let stage = self.members[i].stage;
            assert_eq!(stage, LifecycleStage::Parked, "machine {i} is not parked");
            self.set_stage(i, LifecycleStage::Redeploying);
            self.members[i].redeployed_at = None;
            self.members[i].image_seed = new_seed;
            // The parked reclaim already pointed reads at the upgrade
            // replicas; the hand-off repoints them in case the parked
            // wave ran under a different server count.
            self.hand_off_redeploy(i, at, None, Some(program(i)));
        }
        self.rearm_fleet_sampler();
        self.run_loop(limit, Goal::Wave)?;
        Ok(self.redeployed(members))
    }

    /// Member `i`'s lifecycle stage.
    pub fn lifecycle_stage(&self, i: usize) -> LifecycleStage {
        self.members[i].stage
    }

    /// Machine `i`'s archive volume (origin 0, slot
    /// `ARCHIVE_SLOT_BASE + i`): after its snapshot-back, the departing
    /// tenant's final disk state. `None` before any wave archived it.
    pub fn archive_volume(&self, i: usize) -> Option<&DiskModel> {
        self.fabric.server().volume(ARCHIVE_SLOT_BASE + i as u8)
    }

    /// Per-member redeploy boot-finish instants for the current wave
    /// (index-aligned; `None` for members not redeployed).
    pub fn redeploy_times(&self) -> Vec<Option<SimTime>> {
        self.members.iter().map(|m| m.redeployed_at).collect()
    }
}
