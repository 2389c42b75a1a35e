//! The repository benchmark: three closed-loop workloads, each against
//! one `HiveServer`, every answer checked against a pure-Rust oracle.
//! See `README.md` in this directory for the workloads and metrics.

pub mod churn;
pub mod clock;
pub mod layers;
pub mod lookup;
pub mod olap;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use workload::Workload;

/// TPC-H scale factor of `olap_scan`: 300k `lineitem` rows.
pub const OLAP_SF: f64 = 0.05;
/// Rows in `interactive_lookup`'s table.
pub const LOOKUP_ROWS: i64 = 400_000;
/// Closed-loop clients of `interactive_lookup`.
pub const LOOKUP_CLIENTS: usize = 2;
/// Rows in `acid_churn`'s table.
pub const CHURN_ROWS: i64 = 100_000;

pub const WORKLOADS: &[&str] = &["olap_scan", "interactive_lookup", "acid_churn"];

/// Build a workload by name at its benchmark size, its data drawn from
/// `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "olap_scan" => Box::new(olap::Olap::new(seed, OLAP_SF)),
        "interactive_lookup" => Box::new(lookup::Lookup::new(seed, LOOKUP_ROWS, LOOKUP_CLIENTS)),
        "acid_churn" => Box::new(churn::Churn::new(seed, CHURN_ROWS)),
        _ => return None,
    })
}
