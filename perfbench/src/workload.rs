//! The two workloads, their set-up and the explorer query mix.
//!
//! Every workload runs the same session against one seeded world: batch
//! studies (`analyze_with`), a stream from genesis to the tip
//! (`StreamAnalyzer::ingest_epoch`), and after each publish a burst of
//! explorer queries through a cached `QueryService::query` on the same
//! thread. The workloads differ in world size, epoch granularity and how
//! the session's time is split, so each one stresses different layers.

use std::collections::HashSet;
use std::time::Instant;

use bench_suite::input_of;
use ethsim::{Address, BlockNumber};
use tokens::NftId;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions, AnalysisReport};
use washtrade_serve::{Query, Snapshot};
use washtrade_stream::{LiveReport, StreamAnalyzer, StreamOptions};
use workload::{EpochPlan, WorkloadConfig, World};

use crate::record::Record;

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large world, studied whole over and over; the stream side ingests
    /// the chain in one epoch, so reassembly and publish do little.
    BatchLarge,
    /// A smaller world in 48 epochs with a query burst after every
    /// publish: per-epoch fixed costs dominate the stream, and reads run
    /// beside writes, with cache misses after each invalidation.
    ServeMixed,
}

/// Size and shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// `WorkloadConfig::paper_scaled` fraction.
    pub scale: f64,
    /// `EpochPlan::straddling` epoch count of one stream pass.
    pub epochs: usize,
    /// Batch studies per session round (each round also streams once).
    pub studies_per_round: usize,
}

/// Times the query mix is replayed after each publish, on every workload.
/// The publish invalidates the cache, so the first replay misses and the
/// other three hit: one query in four takes the miss path. `query_p50_us`
/// then falls among the hits and `query_p99_us` among the misses.
pub const BURST_REPEATS: usize = 4;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BatchLarge, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchLarge => "batch_large",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// The workload's size; `smoke` shrinks the world to the quick-check
    /// size the benchmark's own tests use.
    pub fn params(self, smoke: bool) -> Params {
        let params = match self {
            Workload::BatchLarge => Params { scale: 0.12, epochs: 1, studies_per_round: 2 },
            Workload::ServeMixed => Params { scale: 0.05, epochs: 48, studies_per_round: 1 },
        };
        if smoke {
            Params { scale: 0.01, epochs: params.epochs.min(8), ..params }
        } else {
            params
        }
    }
}

/// A generated world with everything the session needs from set-up: the
/// epoch budgets, the batch reference report, the query mix and the planted
/// NFTs.
pub struct Setup {
    pub workload: Workload,
    pub params: Params,
    pub world: World,
    pub budgets: Vec<u64>,
    pub reference: AnalysisReport,
    pub mix: Vec<Query>,
    pub planted: HashSet<NftId>,
}

impl Setup {
    /// Set the workload up `times` times from the seed, timing each set-up
    /// (world generation, epoch plan, the reference study and one warm-up
    /// stream to the tip); returns the last set-up and every set-up time in
    /// seconds. Successive set-ups must produce the same reference report.
    pub fn repeated(
        workload: Workload,
        seed: u64,
        smoke: bool,
        times: usize,
        record: &mut Record,
    ) -> (Setup, Vec<f64>) {
        let params = workload.params(smoke);
        let mut seconds = Vec::with_capacity(times);
        let mut last: Option<Setup> = None;
        for _ in 0..times.max(1) {
            // Free the previous world first: at most one is resident.
            let previous = last.take().map(|setup| setup.reference);
            let started = Instant::now();
            let setup = Setup::once(workload, params, seed, record);
            seconds.push(started.elapsed().as_secs_f64());
            if let Some(previous) = previous {
                record.check(same_analysis(&previous, &setup.reference), || {
                    "set-up is not deterministic: two reference studies differ".to_string()
                });
            }
            last = Some(setup);
        }
        (last.expect("at least one set-up ran"), seconds)
    }

    fn once(workload: Workload, params: Params, seed: u64, record: &mut Record) -> Setup {
        let world = World::generate(WorkloadConfig::paper_scaled(seed, params.scale))
            .expect("world generation succeeds for every paper_scaled config");
        let budgets = EpochPlan::straddling(&world, params.epochs).budgets();
        let reference = analyze_with(input_of(&world), AnalysisOptions::default());
        let planted = world.truth.iter().map(|truth| truth.nft).collect();
        let mut setup =
            Setup { workload, params, world, budgets, reference, mix: Vec::new(), planted };

        // Warm-up: one stream to the tip, checked against the batch study;
        // the query mix is drawn from the snapshot it converges to.
        let mut live = StreamAnalyzer::new(setup.input(), StreamOptions::default());
        for budget in &setup.budgets {
            live.ingest_epoch(*budget);
        }
        setup.check_tip(live.report(), record);
        setup.mix = query_mix(&live.snapshot());
        setup
    }

    /// The analysis inputs of the generated world.
    pub fn input(&self) -> AnalysisInput<'_> {
        input_of(&self.world)
    }

    /// At the tip, the stream's report must equal the batch study of the
    /// same world.
    pub fn check_tip(&self, live: &LiveReport, record: &mut Record) {
        let batch = &self.reference;
        record.check(
            live.detection == batch.detection
                && live.characterization == batch.characterization
                && live.rewards == batch.rewards
                && live.resales == batch.resales
                && live.refinement == batch.refinement,
            || {
                format!(
                    "{}: stream report at the tip differs from the batch study",
                    self.workload.name()
                )
            },
        );
    }

    /// Share of planted NFTs among the confirmed ones of `confirmed`.
    pub fn recall(&self, confirmed: impl Iterator<Item = NftId>) -> f64 {
        let found: HashSet<NftId> = confirmed.filter(|nft| self.planted.contains(nft)).collect();
        found.len() as f64 / self.planted.len().max(1) as f64
    }
}

/// Whether two batch reports carry the same analysis (stage timings aside).
pub fn same_analysis(a: &AnalysisReport, b: &AnalysisReport) -> bool {
    a.detection == b.detection
        && a.characterization == b.characterization
        && a.rewards == b.rewards
        && a.resales == b.resales
        && a.refinement == b.refinement
        && a.table1 == b.table1
        && a.dataset_transfers == b.dataset_transfers
}

/// The explorer mix of the repository's serving bench (`build_mix` in
/// `crates/bench/benches/query_throughput.rs`), drawn from a converged
/// snapshot: the four rollups and rankings, three windowed suspect feeds,
/// two lookups that find nothing, and 8 NFT and 8 account lookups spaced
/// evenly over the suspects and accounts. 25 distinct queries.
fn query_mix(snapshot: &Snapshot) -> Vec<Query> {
    let watermark = snapshot.watermark().0;
    let mut mix = vec![
        Query::Stats,
        Query::TopMovers(10),
        Query::TopCollections(5),
        Query::Marketplaces,
        Query::SuspectsSince(BlockNumber(0)),
        Query::SuspectsSince(BlockNumber(watermark / 2)),
        Query::SuspectsBetween(BlockNumber(watermark / 4), BlockNumber(watermark / 2)),
        Query::Nft(NftId::new(Address::derived("no-such-collection"), 404)),
        Query::Account(Address::derived("uninvolved-bystander")),
    ];
    let suspects = snapshot.suspects();
    mix.extend(
        (0..8).filter_map(|i| suspects.get(i * suspects.len() / 8)).map(|s| Query::Nft(s.nft)),
    );
    let accounts = snapshot.accounts();
    mix.extend(
        (0..8).filter_map(|i| accounts.get(i * accounts.len() / 8)).map(|a| Query::Account(*a)),
    );
    mix
}
