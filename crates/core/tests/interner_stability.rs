//! Interner and columnar-store invariants on generated worlds:
//!
//! * dense ids round-trip and enumerate `0..count` with no gaps,
//! * id assignment is **stream-stable**: interning epoch by epoch over
//!   [`EpochPlan::straddling`] (boundaries cutting through planted wash
//!   activities) yields exactly the id assignment of a one-shot build,
//! * [`TransferColumns`] per-NFT row slices resolve to exactly the per-NFT
//!   transfer vectors the address-keyed pipeline used to store, verified
//!   against an independent reconstruction from the raw chain logs.

use std::collections::HashMap;

use ethsim::Wei;
use ids::NftKey;
use tokens::NftId;
use washtrade::dataset::{Dataset, NftTransfer};
use washtrade::parallel::Executor;
use workload::{EpochPlan, WorkloadConfig, World};

fn world(seed: u64) -> World {
    World::generate(WorkloadConfig::small(seed)).expect("world")
}

/// Independent reconstruction of the address-keyed pipeline's canonical
/// storage — one chronological `Vec<NftTransfer>` per NFT — straight from
/// the chain's logs, mirroring §III-A decode/compliance/annotation without
/// going through `TransferColumns`.
fn reference_histories(world: &World, dataset: &Dataset) -> HashMap<NftId, Vec<NftTransfer>> {
    let mut histories: HashMap<NftId, Vec<NftTransfer>> = HashMap::new();
    for entry in world.chain.logs(&Dataset::transfer_filter()) {
        let Some(decoded) = entry.log.decode_erc721_transfer() else {
            continue;
        };
        if !dataset.compliant_contracts.contains(&decoded.contract) {
            continue;
        }
        let tx = world.chain.transaction(entry.tx_hash).expect("log has transaction");
        let price = if !tx.value.is_zero() {
            tx.value
        } else {
            let erc20_paid: u128 = tx
                .logs
                .iter()
                .filter_map(|log| log.decode_erc20_transfer())
                .filter(|t| t.from == decoded.to)
                .map(|t| t.amount)
                .sum();
            Wei::new(erc20_paid)
        };
        let marketplace = tx.to.filter(|to| world.directory.by_contract(*to).is_some());
        let nft = NftId::new(decoded.contract, decoded.token_id);
        histories.entry(nft).or_default().push(NftTransfer {
            nft,
            from: decoded.from,
            to: decoded.to,
            tx_hash: entry.tx_hash,
            block: entry.block,
            timestamp: entry.timestamp,
            price,
            marketplace,
        });
    }
    histories
}

#[test]
fn ids_are_dense_and_round_trip_on_a_generated_world() {
    let world = world(21);
    let dataset = Dataset::build(&world.chain, &world.directory, &Executor::new(1));
    let interner = &dataset.interner;
    assert!(interner.account_count() > 0 && interner.nft_count() > 0);
    for (index, &address) in interner.accounts().iter().enumerate() {
        let id = interner.account_id(address).expect("every table entry resolves");
        assert_eq!(id.index(), index, "account ids enumerate 0..count densely");
        assert_eq!(interner.address(id), address);
    }
    for (index, &nft) in interner.nfts().iter().enumerate() {
        let key = interner.nft_key(nft).expect("every table entry resolves");
        assert_eq!(key.index(), index, "nft keys enumerate 0..count densely");
        assert_eq!(interner.nft(key), nft);
    }
}

#[test]
fn epoch_by_epoch_interning_matches_one_shot_over_straddling_boundaries() {
    for seed in [3, 21, 77] {
        let world = world(seed);
        let batch = Dataset::build(&world.chain, &world.directory, &Executor::new(1));

        // Ingest along the straddling plan: epoch boundaries cut through the
        // middle of planted activities, so ids for an activity's accounts
        // are assigned across different epochs.
        let plan = EpochPlan::straddling(&world, 5);
        let mut incremental = Dataset::default();
        let mut from = 0u64;
        for end in &plan.ends {
            let entries = world.chain.logs_in_blocks(
                ethsim::BlockNumber(from),
                *end,
                &Dataset::transfer_filter(),
            );
            incremental.apply_entries(&world.chain, &world.directory, &entries);
            from = end.0 + 1;
        }

        // Bit-for-bit: same columns, same id assignment, same verdicts.
        assert_eq!(incremental, batch, "seed {seed}: epoch-sliced dataset diverged");
        assert_eq!(
            incremental.interner.accounts(),
            batch.interner.accounts(),
            "seed {seed}: account id assignment is not stream-stable"
        );
        assert_eq!(incremental.interner.nfts(), batch.interner.nfts());
    }
}

#[test]
fn column_slices_equal_the_old_per_nft_vectors() {
    let world = world(5);
    let dataset = Dataset::build(&world.chain, &world.directory, &Executor::new(1));
    let reference = reference_histories(&world, &dataset);

    assert_eq!(dataset.nft_count(), reference.len());
    let mut covered_rows = 0usize;
    for (&nft, expected) in &reference {
        let resolved = dataset.transfers_of(nft);
        assert_eq!(&resolved, expected, "history of {nft} diverged from the reference");
        let key = dataset.interner.nft_key(nft).expect("nft interned");
        assert_eq!(dataset.columns.transfer_count_of(key), expected.len());
        covered_rows += expected.len();
    }
    // The per-NFT slices partition the store: every row belongs to exactly
    // one NFT's slice.
    assert_eq!(covered_rows, dataset.transfer_count());
    for key in 0..dataset.nft_count() as u32 {
        for &row in dataset.columns.rows_of(NftKey(key)) {
            assert_eq!(dataset.columns.nft[row as usize], NftKey(key));
        }
    }
}

proptest::proptest! {
    #[test]
    fn interning_is_stream_stable_at_random_epoch_slicings(
        seed in 0u64..50,
        budgets in proptest::collection::vec(1u64..150, 1..5),
    ) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let batch = Dataset::build(&world.chain, &world.directory, &Executor::new(1));

        let tip = world.chain.current_block_number().0;
        let mut incremental = Dataset::default();
        let mut from = 0u64;
        let mut cycle = budgets.iter().cycle();
        while from <= tip {
            let budget = *cycle.next().expect("non-empty budgets");
            let last = (from + budget - 1).min(tip);
            let entries = world.chain.logs_in_blocks(
                ethsim::BlockNumber(from),
                ethsim::BlockNumber(last),
                &Dataset::transfer_filter(),
            );
            incremental.apply_entries(&world.chain, &world.directory, &entries);
            from = last + 1;
        }
        proptest::prop_assert_eq!(&incremental, &batch);
    }
}
