//! Probe: measures the background-writer cycle during an idle-guest deployment.
use bmcast::config::BmcastConfig;
use bmcast::deploy::Runner;
use bmcast::machine::MachineSpec;
use simkit::SimTime;

fn main() {
    let spec = MachineSpec {
        capacity_sectors: (2u64 << 30) / 512,
        image_sectors: (2u64 << 30) / 512,
        ..MachineSpec::default()
    };
    let mut runner = Runner::bmcast(&spec, BmcastConfig::default());
    let mut last_written = 0u64;
    let mut last_t = 0.0;
    for step in 1..=40 {
        runner.run_until(SimTime::from_millis(step * 2000));
        let vmm = runner.machine().vmm.as_ref().unwrap();
        let w = vmm.bg.blocks_written();
        let t = runner.now().as_secs_f64();
        if w > last_written {
            println!(
                "t={:6.1}s written={:5} (+{:3}) cycle={:6.2}ms inflight={} fifo_pending={} discarded={}",
                t, w, w - last_written,
                (t - last_t) * 1000.0 / (w - last_written) as f64,
                vmm.bg.inflight(), vmm.bg.has_pending_writes(), vmm.bg.blocks_discarded()
            );
        }
        last_written = w;
        last_t = t;
        if vmm.bitmap.is_complete() {
            break;
        }
    }
}
