//! One experiment per table/figure of the paper's evaluation.
//!
//! Table experiments are plain functions returning a [`TextTable`];
//! figure experiments are structs with parameters (a fast
//! [`SweepParams::quick`] preset for tests, the paper-scale defaults in
//! the benches) and a `run()` producing a typed report that also renders
//! as text.
//!
//! [`TextTable`]: crate::TextTable

mod ablations;
mod crossvendor;
mod diurnal;
mod figs_memcached;
mod figs_other;
mod fleet;
mod flows;
mod motivation;
mod package;
mod proportionality;
mod snoop;
mod tables;
mod validation;

pub use ablations::{
    enhanced_split, governor_ablation, retention_ablation, sleep_mode_ablation,
    zone_count_ablation, EnhancedSplit, GovernorAblationRow, RetentionAblation, SleepModeAblation,
    ZoneAblationRow,
};
pub use crossvendor::{CrossVendor, CrossVendorEntry, CrossVendorReport};
pub use diurnal::{Diurnal, DiurnalReport};
pub use figs_memcached::{
    Fig10, Fig10Report, Fig10Row, Fig11, Fig11Report, Fig8, Fig8Report, Fig8Row, Fig9, Fig9Report,
    Fig9Row, SweepParams,
};
pub use figs_other::{Fig12, Fig12Report, Fig12Row, Fig13, Fig13Report, Fig13Row};
pub use fleet::{Fleet, FleetComparison, FleetRow};
pub use flows::{flow_latencies, FlowLatencies};
pub use motivation::{motivation, motivation_simulated, MotivationRow};
pub use package::{PackageAnalysis, PackageRow};
pub use proportionality::{Proportionality, ProportionalityReport};
pub use snoop::{snoop_impact, snoop_impact_on, SnoopImpact};
pub use tables::{table1, table1_for, table2, table3, table4, table5, Table5Params};
pub use validation::{Validation, ValidationReport, ValidationRow};
