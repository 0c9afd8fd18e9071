//! The fleet engine: the fleet's own timeline, the member index, the
//! run loop that interleaves them, admission, and request forwarding.

use super::{Fleet, FleetStall, MachineOutcome, Member};
use crate::fabric::{self, FabricEvent};
use crate::machine::{
    pop_vmm_tx, sample_flight_row, vmm_nic_rx, GuestProgram, Machine, MachineSim,
};
use simkit::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// An event on the fleet's own (fabric + server) timeline. Machine-side
/// events stay inside each member's [`MachineSim`].
#[derive(Debug)]
pub(super) enum FleetEvent {
    /// Work on the shared fabric; a delivered reply frame is handed to
    /// its member's sim.
    Fabric(FabricEvent),
    /// Machine `machine`'s full copy becomes visible to the rack: the
    /// fleet converts it into a read-only peer server. Booked one
    /// fabric lookahead after the bitmap fills.
    PeerActivate { machine: usize },
    /// Machine `machine` begins its lifecycle wave step: its peer node
    /// (if any) is retired from routing and every endpoint list first,
    /// then the member re-virtualizes and starts streaming dirty
    /// blocks to its archive volume. Booked one fabric lookahead after
    /// the admission decision.
    UpgradeStart { machine: usize },
    /// Machine `machine`'s snapshot-back completed: reset it for the
    /// next tenant (and redeploy, unless the wave parks it). Booked
    /// one lookahead after the completion was detected, like
    /// [`FleetEvent::PeerActivate`].
    Reclaim { machine: usize },
    /// Fleet-level timeline sampler tick.
    Sample,
}

/// The fleet's own event queue: a min-heap on `(time, sequence)`.
#[derive(Default)]
pub(super) struct Timeline {
    events: BinaryHeap<Reverse<Timed>>,
    seq: u64,
}

/// A timeline entry, ordered by `(time, sequence)` alone.
struct Timed {
    at: SimTime,
    seq: u64,
    event: FleetEvent,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl Timeline {
    pub(super) fn push(&mut self, at: SimTime, event: FleetEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Timed { at, seq, event }));
    }

    /// Books a control-plane announcement made at `at`: it lands one
    /// fabric lookahead later, since it takes at least as long to cross
    /// the rack as a frame does.
    pub(super) fn announce(&mut self, at: SimTime, event: FleetEvent) {
        self.push(at + fabric::lookahead(), event);
    }

    /// When the earliest event is due.
    fn next_at(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse(t)| t.at)
    }

    /// Takes the earliest event.
    fn pop(&mut self) -> Option<(SimTime, FleetEvent)> {
        self.events.pop().map(|Reverse(t)| (t.at, t.event))
    }

    /// Whether a sampler tick is queued.
    pub(super) fn has_sample(&self) -> bool {
        self.events
            .iter()
            .any(|Reverse(t)| matches!(t.event, FleetEvent::Sample))
    }
}

/// Per-machine guest-program factory handed to [`Fleet::start`].
pub(super) type ProgramFactory = Box<dyn FnMut(usize) -> Box<dyn GuestProgram>>;

/// What a run of the loop waits for: every member's first boot, or
/// the end of the lifecycle wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Goal {
    Boot,
    Wave,
}

impl Goal {
    /// Whether member `m` still gates a run toward this goal.
    fn gates(self, m: &Member) -> bool {
        match self {
            Goal::Boot => m.booted_at.is_none(),
            Goal::Wave => m.stage.gates_wave(),
        }
    }
}

impl Fleet {
    /// Arms every member: installs its guest program (from the factory,
    /// by machine index) and starts deployment and the program at that
    /// member's staggered arrival time (`i * start_stagger`; everyone
    /// at `t = 0` with the default zero stagger), putting the first
    /// fetch burst on the shared fabric. With an admission ramp
    /// ([`FleetConfig::admission_base`](super::FleetConfig::admission_base))
    /// only the first `base` machines are released here; the rest are
    /// released as peers convert.
    pub fn start(&mut self, program: impl FnMut(usize) -> Box<dyn GuestProgram> + 'static) {
        self.program = Some(Box::new(program));
        let initial = match self.cfg.admission_base {
            0 => self.members.len(),
            base => base.min(self.members.len()),
        };
        for _ in 0..initial {
            self.admit_next();
        }
        if self.fleet_sampler.is_enabled() {
            self.record_fleet_sample(SimTime::ZERO);
            let at = SimTime::ZERO + self.fleet_sampler.interval();
            self.timeline.push(at, FleetEvent::Sample);
        }
    }

    /// Releases the next unstarted machine: one stagger interval after
    /// the previously scheduled start, never in the past. The first
    /// machine (release at `t = 0` before the run) starts inline so
    /// its fetch burst hits the fabric exactly as the pre-stagger code
    /// did.
    fn admit_next(&mut self) {
        let i = self.admitted;
        self.admitted += 1;
        let at = if i == 0 {
            SimTime::ZERO
        } else {
            self.now.max(self.last_sched_start + self.cfg.start_stagger)
        };
        self.last_sched_start = at;
        let program = self
            .program
            .as_mut()
            .expect("start() installed the factory");
        let m = &mut self.members[i];
        m.start_at = at;
        m.machine.set_program(program(i));
        if at == SimTime::ZERO && self.now == SimTime::ZERO {
            super::lifecycle::deploy_member(&mut m.machine, &mut m.sim);
            self.forward_requests(i, SimTime::ZERO);
            self.index_machine(i);
        } else {
            // A deferred start is just a machine-sim event: the run
            // loop harvests the fetch burst right after stepping it.
            self.hand_off(i, at, super::lifecycle::deploy_member);
        }
    }

    /// Schedules `f` into member `i`'s own sim at `at` and re-indexes
    /// the member: the one way the fleet hands a member work.
    pub(super) fn hand_off(
        &mut self,
        i: usize,
        at: SimTime,
        f: impl FnOnce(&mut Machine, &mut MachineSim) + Send + 'static,
    ) {
        self.members[i].sim.schedule_at(at, f);
        self.index_machine(i);
    }

    /// Pushes machine `i`'s current next-event time into the scheduling
    /// index (no-op when its queue is empty).
    fn index_machine(&mut self, i: usize) {
        if let Some(t) = self.members[i].sim.next_event_at() {
            self.next_index.push(Reverse((t, i)));
        }
    }

    /// Re-indexes member `i` after [`Fleet::machine_floor`] chose it and
    /// it stepped: its old entry is the index's top, so it is replaced in
    /// place rather than left for the floor to discard.
    fn reindex_stepped(&mut self, i: usize) {
        let next = self.members[i].sim.next_event_at();
        if self.next_index.peek().is_some_and(|top| top.0 .1 == i) {
            let mut top = self.next_index.peek_mut().expect("just peeked");
            match next {
                Some(t) => *top = Reverse((t, i)),
                None => drop(PeekMut::pop(top)),
            }
        } else if let Some(t) = next {
            self.next_index.push(Reverse((t, i)));
        }
    }

    /// The earliest member event as `(time, machine)`, ties broken by
    /// the lowest machine index, at O(log n) amortized. Peeked entries
    /// that no longer match their sim's head are stale and dropped:
    /// every head change re-indexes the member, so its true head is
    /// always present.
    fn machine_floor(&mut self) -> Option<(SimTime, usize)> {
        while let Some(&Reverse((t, i))) = self.next_index.peek() {
            if self.members[i].sim.next_event_at() == Some(t) {
                return Some((t, i));
            }
            self.next_index.pop();
        }
        None
    }

    /// Opens the admission window to `base + per_peer × peers` and
    /// releases newly admitted machines (no-op without a ramp).
    pub(super) fn admit_ramp(&mut self) {
        if self.cfg.admission_base == 0 {
            return;
        }
        let allowed = (self.cfg.admission_base + self.cfg.admission_per_peer * self.peers_active())
            .min(self.members.len());
        while self.admitted < allowed {
            self.admit_next();
        }
    }

    /// Runs until every member's guest program has finished (the OS
    /// boot, for the scale-out figure) or `limit` passes. Returns the
    /// per-machine finish times, in machine order (absolute fleet
    /// time; see [`Fleet::startup_durations`] for per-machine elapsed
    /// times under staggered arrivals).
    ///
    /// # Errors
    ///
    /// Returns a [`FleetStall`] carrying per-machine
    /// [`MachineOutcome`]s when the limit passes, the fleet wedges (no
    /// events anywhere), or every unfinished member has surfaced a
    /// terminal [`DeployError`](crate::machine::DeployError) — the run
    /// fails fast instead of spinning out the clock on machines that
    /// can no longer boot.
    pub fn run_to_all_booted(&mut self, limit: SimTime) -> Result<Vec<SimTime>, FleetStall> {
        self.run_loop(limit, Goal::Boot)?;
        // The run ends only once every member has booted.
        Ok(self.startup_times().into_iter().flatten().collect())
    }

    /// Whether a run toward `goal` is complete, from the O(1) count of
    /// members that still gate it.
    fn run_done(&self, goal: Goal) -> bool {
        let pending = match goal {
            Goal::Boot => self.members.len() - self.booted,
            Goal::Wave => self.wave.pending,
        };
        debug_assert_eq!(
            pending,
            self.members.iter().filter(|m| goal.gates(m)).count()
        );
        pending == 0
    }

    /// The run loop of the boot run and every wave: executes the
    /// globally earliest event (fleet first, then members) until `goal`
    /// is met, the limit passes, the fleet wedges, or every member
    /// still gating the run has failed terminally.
    pub(super) fn run_loop(&mut self, limit: SimTime, goal: Goal) -> Result<(), FleetStall> {
        // (Re)build the scheduling index: members may have been armed
        // (or a previous run stalled) since it was last current.
        self.next_index.clear();
        for i in 0..self.members.len() {
            self.index_machine(i);
        }
        loop {
            if self.run_done(goal) {
                return Ok(());
            }
            // The globally earliest event: fleet first, then members in
            // index order — the fixed iteration order that makes the
            // interleave deterministic.
            let fleet_next = self.timeline.next_at();
            let machine_next = self.machine_floor();
            let step_machine = match (fleet_next, machine_next) {
                (None, None) => return Err(self.stall(true, limit)),
                (Some(ft), Some((mt, i))) if mt < ft => Some((mt, i)),
                (Some(ft), _) => {
                    if ft > limit {
                        return Err(self.stall(false, limit));
                    }
                    self.step_fleet(goal);
                    None
                }
                (None, Some((mt, i))) => Some((mt, i)),
            };
            if let Some((t, i)) = step_machine {
                if t > limit {
                    return Err(self.stall(false, limit));
                }
                let errored = self.step_member(i);
                // Fail fast: when every machine still gating the run
                // has failed terminally, no amount of simulated time
                // will finish it.
                if errored {
                    let done_or_dead = self.members.iter().all(|m| {
                        !goal.gates(m)
                            || m.machine.deploy_error().is_some()
                            || m.machine.reclaim_error().is_some()
                    });
                    if done_or_dead {
                        return Err(self.stall(false, limit));
                    }
                }
            }
        }
    }

    /// The stall report now: the boot run's outcomes, with a failed
    /// reclaim outranking the boot it followed.
    fn stall(&self, wedged: bool, limit: SimTime) -> FleetStall {
        let outcome = |m: &Member| match m.machine.reclaim_error() {
            Some(error) => MachineOutcome::ReclaimFailed { error },
            None => m.outcome(),
        };
        let outcomes = self.members.iter().map(outcome).collect();
        FleetStall {
            at: self.now,
            limit,
            wedged,
            outcomes,
        }
    }

    /// Executes member `i`'s earliest event and its follow-through;
    /// returns whether the member is in a terminal error.
    fn step_member(&mut self, i: usize) -> bool {
        let m = &mut self.members[i];
        m.sim.step(&mut m.machine);
        let stepped_to = m.sim.now();
        self.now = self.now.max(stepped_to);
        self.reindex_stepped(i);
        self.forward_requests(i, stepped_to);
        let m = &mut self.members[i];
        if m.machine.guest.finished && m.booted_at.is_none() {
            m.booted_at = Some(stepped_to);
            self.booted += 1;
            // Close this member's timeline at its boot-finish
            // state (no-op when the recorder is off).
            sample_flight_row(&m.machine, stepped_to);
        }
        self.note_member_progress(i, stepped_to);
        let m = &self.members[i].machine;
        m.deploy_error().is_some() || m.reclaim_error().is_some()
    }

    /// Pops and executes the earliest fleet event.
    fn step_fleet(&mut self, goal: Goal) {
        let Some((t, event)) = self.timeline.pop() else {
            return;
        };
        self.now = self.now.max(t);
        self.fleet_events_executed += 1;
        match event {
            FleetEvent::Fabric(event) => {
                let delivered = self.fabric.fire(t, event, &mut |at, e| {
                    self.timeline.push(at, FleetEvent::Fabric(e))
                });
                if let Some((i, payload)) = delivered {
                    self.hand_off(i, t, move |m: &mut Machine, sim| {
                        vmm_nic_rx(m, sim, payload)
                    });
                }
            }
            FleetEvent::PeerActivate { machine } => self.peer_announced(machine),
            FleetEvent::UpgradeStart { machine } => self.upgrade_start(machine, t),
            FleetEvent::Reclaim { machine } => self.reclaim_member(machine, t),
            FleetEvent::Sample => {
                self.record_fleet_sample(t);
                if !self.run_done(goal) {
                    let at = t + self.fleet_sampler.interval();
                    self.timeline.push(at, FleetEvent::Sample);
                }
            }
        }
    }

    /// Drains machine `i`'s NIC TX ring onto the shared fabric at `now`
    /// (after every step of that machine, so frames leave at the same
    /// instant a standalone machine's in-event pump sends them).
    fn forward_requests(&mut self, i: usize, now: SimTime) {
        while let Some(frame) = pop_vmm_tx(&mut self.members[i].machine) {
            self.fabric.forward(now, i, frame.payload, &mut |at, e| {
                self.timeline.push(at, FleetEvent::Fabric(e))
            });
        }
    }

    /// Total events executed so far: the fleet's own timeline plus
    /// every member simulation — the denominator behind the bench
    /// harness's events/second figure. Timer ticks that do nothing (the
    /// writer waiting for an idle window, a gated retriever, an empty
    /// retransmit round; see `simkit::Sim::arm`) are skipped, not
    /// executed, so they are not counted and the host cost per counted
    /// event is higher than when every tick was an event.
    pub fn events_executed(&self) -> u64 {
        let members: u64 = self.members.iter().map(|m| m.sim.executed_events()).sum();
        self.fleet_events_executed + members
    }
}
