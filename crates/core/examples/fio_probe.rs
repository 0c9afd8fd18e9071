//! Probe: what interferes with the fio read during deployment?
use bmcast::config::{BmcastConfig, Moderation};
use bmcast::deploy::Runner;
use bmcast::machine::MachineSpec;
use bmcast::programs::FioProgram;
use guestsim::workload::fio::FioJob;
use hwsim::block::Lba;
use simkit::SimDuration;

fn main() {
    let spec = MachineSpec::default();
    let mut r = Runner::bmcast(
        &spec,
        BmcastConfig {
            moderation: Moderation::default(),
            ..BmcastConfig::default()
        },
    );
    let file = Lba(1 << 16);
    let wjob = FioJob {
        write: true,
        total_bytes: 200 << 20,
        block_bytes: 1 << 20,
        start: file,
    };
    r.start_program(Box::new(FioProgram::new(wjob)));
    r.run_to_finish(r.now() + SimDuration::from_secs(600))
        .unwrap();
    let w0 = r.machine().vmm.as_ref().unwrap().bg.blocks_written();
    let t0 = r.now();
    {
        let vmm = r.machine().vmm.as_ref().unwrap();
        eprintln!(
            "pre-read: idle={} next_allowed={} now={} pending={} fills={}",
            vmm.writer_idle(),
            vmm.writer_next_allowed(),
            t0,
            vmm.bg.has_pending_writes(),
            vmm.bg.has_pending_fills()
        );
    }
    let rjob = FioJob {
        write: false,
        total_bytes: 200 << 20,
        block_bytes: 1 << 20,
        start: file,
    };
    r.start_program(Box::new(FioProgram::new(rjob)));
    for k in 1..=6 {
        r.run_until(t0 + SimDuration::from_millis(k * 300));
        let vmm = r.machine().vmm.as_ref().unwrap();
        eprintln!("t+{}ms: written={} idle={} pending={} inflight={} aoe_out={} retx={} overflow={} discarded={}",
            k*300, vmm.bg.blocks_written(), vmm.writer_idle(),
            vmm.bg.has_pending_writes(), vmm.bg.inflight(), vmm.client.outstanding(),
            vmm.client.retransmits(), vmm.nic.nic().rx_overflow(), vmm.bg.blocks_discarded());
    }
    let done = r
        .run_to_finish(r.now() + SimDuration::from_secs(600))
        .unwrap();
    let m = r.machine();
    let vmm = m.vmm.as_ref().unwrap();
    let dt = done.duration_since(t0).as_secs_f64();
    eprintln!("read phase: {:.3}s -> {:.1} MB/s; vmm writes during: {}; guest io rate now: {:.0}/s; redirects {}",
        dt, 200.0*1.048576/dt, vmm.bg.blocks_written() - w0, vmm.bg.guest_io_rate(r.now()), m.stats.redirected_ios);
}
