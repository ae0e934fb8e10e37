//! Streaming-observation integration tests: the fleet epochs pushed
//! over a live stream rebuild the batch per-epoch timeline CSV
//! byte-for-byte, including across the bounded channel to a consumer
//! thread and at any worker count.

use std::sync::mpsc::sync_channel;

use agilewatts::aw_cluster::{
    AutoscalePolicy, FleetConfig, FleetEpochEvent, FleetObserver, FleetSim, FleetWindow, LoadShape,
    RoutingPolicy,
};
use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_exec::{set_default_jobs, SweepExecutor};
use agilewatts::aw_server::{ServerConfig, WorkloadSpec};
use agilewatts::aw_types::Nanos;

/// A small fleet with every scheduling-sensitive feature enabled.
fn fleet_config() -> FleetConfig {
    let cores = 4;
    let workload = WorkloadSpec::poisson("stream-fleet", 1_000.0, Nanos::from_micros(250.0), 0.6);
    let capacity = cores as f64 / workload.mean_service().as_secs();
    FleetConfig::new(3, ServerConfig::new(cores, NamedConfig::NtAw), workload, 0.3 * capacity * 3.0)
        .with_epochs(3, Nanos::from_millis(15.0))
        .with_policy(RoutingPolicy::Packing)
        .with_load(LoadShape::Diurnal { amplitude: 0.5 })
        .with_autoscale(AutoscalePolicy::default())
}

/// Rebuilds the fleet timeline CSV from streamed epochs alone.
#[derive(Default)]
struct CsvRebuilder {
    csv: String,
}

impl FleetObserver for CsvRebuilder {
    fn on_epoch(&mut self, event: &FleetEpochEvent) {
        if self.csv.is_empty() {
            self.csv.push_str(FleetWindow::CSV_HEADER);
        }
        self.csv.push_str(&event.window.csv_row());
    }
}

/// One test function on purpose: [`set_default_jobs`] is process-global
/// and `#[test]` functions of one binary run concurrently. At every
/// worker count, the CSV rebuilt from streamed epochs — both in-process
/// and across the bounded channel — equals the batch timeline CSV.
#[test]
fn streamed_fleet_epochs_rebuild_the_timeline_csv_at_any_worker_count() {
    let mut reference: Option<String> = None;
    for jobs in [1usize, 8] {
        set_default_jobs(jobs);
        assert_eq!(SweepExecutor::current().jobs(), jobs, "override not picked up");

        let batch_csv = FleetSim::new(fleet_config()).run().timeline_csv();

        let mut rebuilder = CsvRebuilder::default();
        let report = FleetSim::new(fleet_config()).run_observed(&mut rebuilder);
        assert_eq!(rebuilder.csv, batch_csv, "in-process stream drifted at jobs={jobs}");
        assert_eq!(report.timeline_csv(), batch_csv, "observation perturbed the run");

        // Across the bounded channel: a slow consumer thread (capacity 1
        // forces the producer to block on every epoch) still sees every
        // window, in order.
        let (mut tx, rx) = sync_channel(1);
        let producer =
            std::thread::spawn(move || FleetSim::new(fleet_config()).run_observed(&mut tx));
        let mut rebuilder = CsvRebuilder::default();
        while let Ok(event) = rx.recv() {
            rebuilder.on_epoch(&event);
        }
        let report = producer.join().expect("producer panicked");
        assert_eq!(rebuilder.csv, batch_csv, "cross-thread stream drifted at jobs={jobs}");
        assert_eq!(report.timeline_csv(), batch_csv);

        match &reference {
            None => reference = Some(batch_csv),
            Some(first) => assert_eq!(&batch_csv, first, "timeline drifted at jobs={jobs}"),
        }
    }
    set_default_jobs(0); // release the override for anything that follows
}

/// A consumer that detaches mid-run does not wedge or perturb the
/// producer: with the receiver dropped after the first epoch, every
/// later send fails, and the run still finishes with the batch report.
#[test]
fn dropped_receiver_lets_the_producer_finish_unperturbed() {
    let batch_csv = FleetSim::new(fleet_config()).run().timeline_csv();
    let (mut tx, rx) = sync_channel(1);
    let producer = std::thread::spawn(move || FleetSim::new(fleet_config()).run_observed(&mut tx));
    let first = rx.recv().expect("the first epoch arrives");
    let head = format!("{}{}", FleetWindow::CSV_HEADER, first.window.csv_row());
    assert!(batch_csv.starts_with(&head), "the first epoch differs from the batch run's");
    drop(rx);
    let report = producer.join().expect("producer panicked");
    assert_eq!(report.timeline_csv(), batch_csv);
}
