//! Host-stamped benchmark of the wash-trading study: the batch study, the
//! streamed epoch, and explorer reads beside the writes.
//!
//! The benchmark generates each workload's world from a seed, times the
//! program's public calls from outside, checks every output, and prints a
//! table of medians and quartiles followed by one JSON result line. See
//! `perfbench/README.md` for the workloads and the metric table.

pub mod record;
pub mod session;
pub mod smoke;
pub mod stats;
pub mod workload;

use record::{Kind, Provenance, Record};
use workload::{Setup, Workload};

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink the world to the quick-check size.
    pub smoke: bool,
}

/// Set the workload up, measure it, and render the record: the table, then
/// the JSON result line (end-to-end metrics, or per-layer ones when traced).
pub fn run(config: RunConfig) -> (Record, String) {
    let provenance =
        Provenance::stamp(config.workload.name(), config.seed, config.seconds, config.trace);
    let mut record = Record::default();
    let (setup, setup_s) =
        Setup::repeated(config.workload, config.seed, config.smoke, session::SETUPS, &mut record);
    session::run(&setup, &setup_s, config.seconds, config.trace, &mut record);
    let kind = if config.trace { Kind::PerLayer } else { Kind::EndToEnd };
    let text = record.render(&provenance, kind);
    (record, text)
}
