//! Determinism gate for the three-phase sharded ingest: on random worlds, the
//! dataset — columns, interner tables, verdict sets — and the full
//! `AnalysisReport` must be identical across thread counts {1, 2, 4, 8} and
//! across epoch slicings, and identical to the serial one-shot build.
//!
//! This is the property that lets batch and stream share one ingest code
//! path: the parallel decode fan-out is invisible in every observable
//! artifact, at any shard geometry.

use ethsim::BlockNumber;
use washtrade::dataset::Dataset;
use washtrade::parallel::Executor;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions};
use washtrade::report::render_deterministic;
use workload::{WorkloadConfig, World};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

proptest::proptest! {
    #[test]
    fn parallel_ingest_is_deterministic_across_threads_and_slicings(
        seed in 0u64..40,
        budgets in proptest::collection::vec(1u64..150, 1..4),
    ) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let serial = Dataset::build(&world.chain, &world.directory, &Executor::new(1));
        let tip = world.chain.current_block_number();

        for threads in THREAD_COUNTS {
            let executor = Executor::new(threads);

            // One-shot sharded build equals the serial one-shot build.
            let one_shot = Dataset::build(&world.chain, &world.directory, &executor);
            proptest::prop_assert_eq!(&one_shot, &serial, "one-shot at {} threads", threads);
            proptest::prop_assert_eq!(one_shot.interner.accounts(), serial.interner.accounts());
            proptest::prop_assert_eq!(one_shot.interner.nfts(), serial.interner.nfts());

            // Epoch-sliced sharded ingest equals it too: every epoch is
            // itself decoded in parallel shards, and the random budget cycle
            // cuts through planted activities at arbitrary blocks.
            let mut sliced = Dataset::default();
            let mut from = 0u64;
            let mut cycle = budgets.iter().cycle();
            while from <= tip.0 {
                let budget = *cycle.next().expect("non-empty budgets");
                let last = (from + budget - 1).min(tip.0);
                sliced.ingest_blocks(
                    &world.chain,
                    &world.directory,
                    BlockNumber(from),
                    BlockNumber(last),
                    &executor,
                );
                from = last + 1;
            }
            proptest::prop_assert_eq!(&sliced, &serial, "epoch-sliced at {} threads", threads);
        }
    }

    #[test]
    fn full_report_is_identical_across_thread_counts(seed in 0u64..20) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let input = input_of(&world);
        let options = |threads| AnalysisOptions { threads, collect_metrics: false };
        let baseline = render_deterministic(&analyze_with(input, options(1)));
        for threads in [2, 4, 8] {
            let report = analyze_with(input, options(threads));
            proptest::prop_assert_eq!(
                &render_deterministic(&report),
                &baseline,
                "report diverged at {} threads",
                threads
            );
        }
    }
}
