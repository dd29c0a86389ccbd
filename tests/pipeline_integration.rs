//! End-to-end integration tests: workload generation → full analysis
//! pipeline, checking structural invariants that must hold regardless of the
//! random seed.

use std::collections::HashSet;

use washtrade::pipeline::{analyze, AnalysisInput, AnalysisReport};
use workload::{WorkloadConfig, World};

fn run(seed: u64) -> (World, AnalysisReport) {
    let world = World::generate(WorkloadConfig::small(seed)).expect("world builds");
    let report = analyze(AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    });
    (world, report)
}

#[test]
fn table1_covers_all_six_marketplaces() {
    let (_, report) = run(1);
    assert_eq!(report.table1.len(), 6);
    let names: HashSet<&str> = report.table1.iter().map(|r| r.name.as_str()).collect();
    for name in ["OpenSea", "LooksRare", "Rarible", "SuperRare", "Foundation", "Decentraland"] {
        assert!(names.contains(name), "missing {name} in Table I");
    }
    // OpenSea should carry the bulk of ordinary transactions, as in the paper.
    let opensea = report.table1.iter().find(|r| r.name == "OpenSea").unwrap();
    let total_txs: usize = report.table1.iter().map(|r| r.transactions).sum();
    assert!(
        opensea.transactions * 2 > total_txs,
        "OpenSea should dominate marketplace transactions"
    );
}

#[test]
fn refinement_funnel_shrinks_monotonically() {
    let (_, report) = run(2);
    let refinement = report.refinement;
    assert!(refinement.initial.components >= refinement.after_service_removal.components);
    assert!(
        refinement.after_service_removal.components >= refinement.after_contract_removal.components
    );
    assert!(
        refinement.after_contract_removal.components >= refinement.after_zero_volume.components
    );
    assert!(refinement.after_zero_volume.components > 0, "some candidates must survive");
}

#[test]
fn venn_counts_are_consistent_with_confirmed_activities() {
    let (_, report) = run(3);
    let with_flow_evidence =
        report.detection.confirmed.iter().filter(|a| a.methods.flow_method_count() > 0).count();
    assert_eq!(report.detection.venn.total(), with_flow_evidence);
    // Everything confirmed must have at least one method.
    for activity in &report.detection.confirmed {
        assert!(activity.methods.confirmed());
    }
    // Self-trade counter matches the per-activity flags.
    let self_trades = report.detection.confirmed.iter().filter(|a| a.methods.self_trade).count();
    assert_eq!(report.detection.self_trades, self_trades);
}

#[test]
fn detection_is_deterministic_for_a_fixed_seed() {
    let (_, first) = run(4);
    let (_, second) = run(4);
    let nfts_first: Vec<_> = {
        let mut v: Vec<_> = first.detection.confirmed.iter().map(|a| a.nft()).collect();
        v.sort();
        v
    };
    let nfts_second: Vec<_> = {
        let mut v: Vec<_> = second.detection.confirmed.iter().map(|a| a.nft()).collect();
        v.sort();
        v
    };
    assert_eq!(nfts_first, nfts_second);
    assert_eq!(first.detection.venn, second.detection.venn);
    assert_eq!(first.dataset_transfers, second.dataset_transfers);
}

#[test]
fn characterization_totals_are_internally_consistent() {
    let (_, report) = run(5);
    let characterization = &report.characterization;
    assert_eq!(characterization.total_activities, report.detection.confirmed.len());
    let per_market_activities: usize =
        characterization.per_marketplace.iter().map(|row| row.activities).sum();
    assert_eq!(per_market_activities, characterization.total_activities);
    let histogram_total: usize = characterization.patterns.accounts_histogram.iter().sum();
    assert_eq!(histogram_total, characterization.total_activities);
    let classified: usize = characterization.patterns.pattern_occurrences.values().sum();
    assert_eq!(
        classified + characterization.patterns.uncatalogued,
        characterization.total_activities
    );
    // Volume shares are valid fractions.
    for row in &characterization.per_marketplace {
        if let Some(share) = row.share_of_marketplace_volume {
            assert!((0.0..=1.0 + 1e-9).contains(&share), "share {share} out of range");
        }
    }
    // Lifetime CDF fractions are monotone.
    assert!(
        characterization.lifetimes.within_one_day <= characterization.lifetimes.within_ten_days
    );
}

#[test]
fn wash_volume_never_exceeds_marketplace_total_volume() {
    let (_, report) = run(6);
    let totals: std::collections::HashMap<&str, f64> =
        report.table1.iter().map(|row| (row.name.as_str(), row.volume_usd)).collect();
    for row in &report.characterization.per_marketplace {
        if let Some(total) = totals.get(row.name.as_str()) {
            assert!(
                row.volume_usd <= total * 1.0001,
                "{}: wash volume {} exceeds marketplace volume {}",
                row.name,
                row.volume_usd,
                total
            );
        }
    }
}

#[test]
fn table2_shares_divide_by_the_reported_table1_totals() {
    // Table II and Table I come from one Table I computation per study: each
    // share is the row's wash volume over the same report's Table I total,
    // bit for bit.
    let (_, report) = run(8);
    let totals: std::collections::HashMap<&str, f64> =
        report.table1.iter().map(|row| (row.name.as_str(), row.volume_usd)).collect();
    let mut checked = 0;
    for row in &report.characterization.per_marketplace {
        let Some(share) = row.share_of_marketplace_volume else {
            continue;
        };
        let total = totals
            .get(row.name.as_str())
            .unwrap_or_else(|| panic!("{} has a share but no Table I row", row.name));
        let expected = if *total > 0.0 { row.volume_usd / total } else { 0.0 };
        assert_eq!(share.to_bits(), expected.to_bits(), "{}: {share} != {expected}", row.name);
        checked += 1;
    }
    assert!(checked > 0, "no Table II row carries a share");
}

#[test]
fn larger_worlds_scale_without_breaking_invariants() {
    let world = World::generate(WorkloadConfig::paper_scaled(9, 0.008)).expect("world");
    let report = analyze(AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    });
    assert!(report.detection.confirmed.len() >= world.truth.len() / 2);
    assert!(report.characterization.total_volume_usd > 0.0);
    // The LooksRare wash share of LooksRare volume should be large, as in the
    // paper (84.79%), because its legit volume is tiny in comparison.
    if let Some(row) =
        report.characterization.per_marketplace.iter().find(|row| row.name == "LooksRare")
    {
        if let Some(share) = row.share_of_marketplace_volume {
            assert!(share > 0.3, "LooksRare wash share unexpectedly low: {share}");
        }
    }
}
