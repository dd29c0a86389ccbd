//! Profitability analysis (§VI): token-reward exploitation on LooksRare and
//! Rarible (Eq. 2) and NFT resale after the manipulation (Eq. 3).

use std::collections::{HashMap, HashSet};

use ethsim::{Address, Chain, Wei};
use ids::Interner;
use marketplace::MarketplaceDirectory;
use oracle::PriceOracle;
use serde::{Deserialize, Serialize};
use tokens::NftId;

use crate::detect::DenseActivity;
use crate::parallel::Executor;
use crate::refine::DenseCandidate;
use crate::stats::Summary;
use crate::txgraph::NftGraph;

// ---------------------------------------------------------------------------
// Reward-system exploitation (§VI-A)
// ---------------------------------------------------------------------------

/// Per-activity outcome of the reward-exploitation analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewardOutcome {
    /// The manipulated NFT.
    pub nft: NftId,
    /// The marketplace (LooksRare or Rarible).
    pub marketplace: String,
    /// Wash-traded volume of the activity in ETH.
    pub volume_eth: f64,
    /// USD value of the reward tokens claimed (at claim time).
    pub rewards_usd: f64,
    /// USD value of the gas and marketplace fees spent (at spend time).
    pub fees_usd: f64,
    /// `rewards − fees` (Eq. 2).
    pub balance_usd: f64,
    /// Whether the operators claimed any reward tokens at all.
    pub claimed: bool,
}

/// Table III column: either the successful or the failed activities of one
/// marketplace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RewardSideSummary {
    /// Number of activities on this side.
    pub events: usize,
    /// Minimum activity volume in ETH.
    pub min_volume_eth: f64,
    /// Maximum activity volume in ETH.
    pub max_volume_eth: f64,
    /// Mean activity volume in ETH.
    pub mean_volume_eth: f64,
    /// Largest gain (successful side) or largest loss (failed side), USD.
    pub max_balance_usd: f64,
    /// Mean balance in USD.
    pub mean_balance_usd: f64,
    /// Total balance in USD.
    pub total_balance_usd: f64,
}

impl RewardSideSummary {
    fn of(outcomes: &[&RewardOutcome]) -> Self {
        if outcomes.is_empty() {
            return RewardSideSummary::default();
        }
        let volume = Summary::of(outcomes.iter().map(|o| o.volume_eth));
        let balance = Summary::of(outcomes.iter().map(|o| o.balance_usd));
        let extreme = outcomes
            .iter()
            .map(|o| o.balance_usd)
            .max_by(|a, b| a.abs().total_cmp(&b.abs()))
            .unwrap_or(0.0);
        RewardSideSummary {
            events: outcomes.len(),
            min_volume_eth: volume.min,
            max_volume_eth: volume.max,
            mean_volume_eth: volume.mean,
            max_balance_usd: extreme,
            mean_balance_usd: balance.mean,
            total_balance_usd: balance.total,
        }
    }
}

/// Table III block for one reward marketplace.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RewardMarketReport {
    /// Marketplace name.
    pub marketplace: String,
    /// Activities that closed with a positive balance.
    pub successful: RewardSideSummary,
    /// Activities that closed with a non-positive balance.
    pub failed: RewardSideSummary,
    /// Activities whose operators never claimed the reward tokens (excluded
    /// from the success/failure statistics, as in the paper).
    pub did_not_claim: usize,
}

/// The full §VI-A report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RewardReport {
    /// One block per reward marketplace, in directory order.
    pub markets: Vec<RewardMarketReport>,
    /// Per-activity outcomes (claimed activities only).
    pub outcomes: Vec<RewardOutcome>,
}

impl RewardReport {
    /// Fraction of claimed activities that closed with a gain, across all
    /// reward marketplaces.
    pub fn success_rate(&self) -> f64 {
        let successes: usize = self.markets.iter().map(|m| m.successful.events).sum();
        let failures: usize = self.markets.iter().map(|m| m.failed.events).sum();
        if successes + failures == 0 {
            0.0
        } else {
            successes as f64 / (successes + failures) as f64
        }
    }
}

/// Analyze reward-system exploitation for every confirmed activity whose
/// dominant marketplace distributes reward tokens. Activities arrive in
/// dense form; colluder addresses are resolved once per activity for the
/// chain-history claim scans, and the per-activity outcomes (report structs)
/// carry resolved NFT identities.
///
/// The per-candidate chain scans ([`reward_facts`], the expensive half) fan
/// out over `executor`; the serial [`reduce_rewards`] then folds the facts
/// in activity order, so the report is bit-identical at any thread count.
pub fn analyze_rewards(
    activities: &[DenseActivity],
    chain: &Chain,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    interner: &Interner,
    executor: &Executor,
) -> RewardReport {
    let facts = executor.map(activities, |activity| {
        reward_facts(&activity.candidate, chain, directory, oracle, interner)
    });
    reduce_rewards(facts.iter().flatten(), directory)
}

/// The §VI-A leaf record of one candidate: the claim-scan and fee outcome,
/// cached by the streaming analyzer alongside the candidate. `None` means
/// the candidate's dominant marketplace distributes no reward tokens (the
/// activity is out of scope for Table III); unclaimed activities are kept
/// (`outcome.claimed == false`) so the reduce can count them.
///
/// Facts are a pure function of the candidate and the chain histories of its
/// colluding accounts *up to the claim*; the stream recomputes them whenever
/// the NFT is dirtied, which re-reads those histories at the new watermark.
pub fn reward_facts(
    candidate: &DenseCandidate,
    chain: &Chain,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    interner: &Interner,
) -> Option<RewardOutcome> {
    let market = candidate.dominant_marketplace(interner)?;
    let info = directory.by_contract(interner.market(market))?;
    let reward = info.reward.as_ref()?;

    // Reward tokens claimed: the first claim transaction of each colluding
    // account after the activity started.
    let mut rewards_usd = 0.0;
    let mut fees_usd = 0.0;
    let mut claimed = false;
    for &id in &candidate.accounts {
        let account = interner.address(id);
        let claim_tx = chain
            .transactions_of(account)
            .into_iter()
            .filter(|tx| {
                tx.from == account
                    && tx.to == Some(reward.distributor)
                    && tx.timestamp >= candidate.first_trade
            })
            .min_by_key(|tx| tx.timestamp);
        if let Some(tx) = claim_tx {
            let tokens_received: u128 = tx
                .logs
                .iter()
                .filter_map(|log| log.decode_erc20_transfer())
                .filter(|t| t.contract == reward.token_contract && t.to == account)
                .map(|t| t.amount)
                .sum();
            if tokens_received > 0 {
                claimed = true;
                rewards_usd += oracle
                    .token_to_usd(
                        &reward.token_symbol,
                        tokens_received,
                        reward.token_decimals,
                        tx.timestamp,
                    )
                    .unwrap_or(0.0);
            }
            fees_usd += oracle.wei_to_usd(tx.fee(), tx.timestamp).unwrap_or(0.0);
        }
    }

    // Costs of the wash trades: gas plus the marketplace fee (ETH routed
    // to the treasury inside each sale transaction).
    let mut seen = HashSet::new();
    for (_, _, edge) in &candidate.internal_edges {
        if !seen.insert(edge.tx_hash) {
            continue;
        }
        let Some(tx) = chain.transaction(edge.tx_hash) else {
            continue;
        };
        fees_usd += oracle.wei_to_usd(tx.fee(), tx.timestamp).unwrap_or(0.0);
        let treasury_fee: Wei =
            tx.internal_transfers.iter().filter(|t| t.to == info.treasury).map(|t| t.value).sum();
        fees_usd += oracle.wei_to_usd(treasury_fee, tx.timestamp).unwrap_or(0.0);
    }

    Some(RewardOutcome {
        nft: interner.nft(candidate.nft),
        marketplace: info.name.clone(),
        volume_eth: candidate.volume.to_eth(),
        rewards_usd,
        fees_usd,
        balance_usd: rewards_usd - fees_usd,
        claimed,
    })
}

/// The serial reduce of §VI-A: fold per-candidate [`reward_facts`] in
/// activity order into the Table III report — cached or freshly computed
/// facts produce the same bits, because the fold is the same.
pub fn reduce_rewards<'a>(
    facts: impl IntoIterator<Item = &'a RewardOutcome>,
    directory: &MarketplaceDirectory,
) -> RewardReport {
    let mut outcomes = Vec::new();
    let mut per_market: HashMap<String, Vec<RewardOutcome>> = HashMap::new();
    let mut did_not_claim: HashMap<String, usize> = HashMap::new();
    for outcome in facts {
        if !outcome.claimed {
            *did_not_claim.entry(outcome.marketplace.clone()).or_insert(0) += 1;
            continue;
        }
        per_market.entry(outcome.marketplace.clone()).or_default().push(outcome.clone());
        outcomes.push(outcome.clone());
    }

    let mut markets = Vec::new();
    for info in directory.iter().filter(|info| info.reward.is_some()) {
        let market_outcomes = per_market.remove(&info.name).unwrap_or_default();
        let successful: Vec<&RewardOutcome> =
            market_outcomes.iter().filter(|o| o.balance_usd > 0.0).collect();
        let failed: Vec<&RewardOutcome> =
            market_outcomes.iter().filter(|o| o.balance_usd <= 0.0).collect();
        markets.push(RewardMarketReport {
            marketplace: info.name.clone(),
            successful: RewardSideSummary::of(&successful),
            failed: RewardSideSummary::of(&failed),
            did_not_claim: did_not_claim.get(&info.name).copied().unwrap_or(0),
        });
    }
    RewardReport { markets, outcomes }
}

// ---------------------------------------------------------------------------
// NFT resale (§VI-B)
// ---------------------------------------------------------------------------

/// Per-activity outcome of the resale analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResaleOutcome {
    /// The manipulated NFT.
    pub nft: NftId,
    /// Whether an external sale followed the manipulation.
    pub resold: bool,
    /// Price at which the wash traders acquired the NFT (0 when minted).
    pub buy_price_eth: f64,
    /// Price of the external sale, if any.
    pub resale_price_eth: Option<f64>,
    /// `resale − buy` in ETH, ignoring fees.
    pub gross_gain_eth: Option<f64>,
    /// `resale − (buy + fees)` in ETH (Eq. 3).
    pub net_gain_eth: Option<f64>,
    /// Same balance converted to USD at the time of each transaction.
    pub net_gain_usd: Option<f64>,
    /// Days between the last wash trade and the external sale.
    pub days_to_resale: Option<u64>,
}

/// Gain/loss split of a set of resale outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfitSplit {
    /// Number of activities that closed with a gain.
    pub gains: usize,
    /// Number of activities that closed with a loss (or broke even).
    pub losses: usize,
    /// Mean gain among gaining activities.
    pub mean_gain: f64,
    /// Mean (absolute) loss among losing activities.
    pub mean_loss: f64,
    /// Largest gain.
    pub max_gain: f64,
    /// Largest (absolute) loss.
    pub max_loss: f64,
}

impl ProfitSplit {
    fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut split = ProfitSplit::default();
        let mut gain_total = 0.0;
        let mut loss_total = 0.0;
        for value in values {
            if value > 0.0 {
                split.gains += 1;
                gain_total += value;
                split.max_gain = split.max_gain.max(value);
            } else {
                split.losses += 1;
                loss_total += -value;
                split.max_loss = split.max_loss.max(-value);
            }
        }
        if split.gains > 0 {
            split.mean_gain = gain_total / split.gains as f64;
        }
        if split.losses > 0 {
            split.mean_loss = loss_total / split.losses as f64;
        }
        split
    }

    /// Fraction of activities that closed with a gain.
    pub fn gain_fraction(&self) -> f64 {
        if self.gains + self.losses == 0 {
            0.0
        } else {
            self.gains as f64 / (self.gains + self.losses) as f64
        }
    }
}

/// The full §VI-B report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResaleReport {
    /// Per-activity outcomes.
    pub outcomes: Vec<ResaleOutcome>,
    /// Activities considered (on marketplaces without a reward system).
    pub total: usize,
    /// Activities followed by an external sale.
    pub resold: usize,
    /// Activities not followed by an external sale.
    pub not_resold: usize,
    /// Resold NFTs sold the same day the manipulation ended.
    pub sold_same_day: usize,
    /// Resold NFTs sold within one month.
    pub sold_within_month: usize,
    /// Gain/loss split ignoring fees (ETH).
    pub gross: ProfitSplit,
    /// Gain/loss split including gas and marketplace fees (ETH).
    pub net: ProfitSplit,
    /// Gain/loss split including fees, valued in USD at transaction time.
    pub net_usd: ProfitSplit,
}

/// Analyze resale profitability for every confirmed activity whose dominant
/// marketplace has no reward system (including off-market activity).
///
/// `graphs` is the `NftKey`-indexed graph table the pipeline built in the
/// graph stage; component membership checks are linear probes over the
/// (tiny) dense account lists. The per-candidate graph and fee scans
/// ([`resale_facts`], the expensive half) fan out over `executor`; the
/// serial [`reduce_resales`] then folds the facts in activity order, so the
/// report is bit-identical at any thread count.
pub fn analyze_resales(
    activities: &[DenseActivity],
    chain: &Chain,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    graphs: &[NftGraph],
    interner: &Interner,
    executor: &Executor,
) -> ResaleReport {
    let facts = executor.map(activities, |activity| {
        resale_facts(
            &activity.candidate,
            chain,
            directory,
            oracle,
            graphs.get(activity.candidate.nft.index()),
            interner,
        )
    });
    reduce_resales(facts.iter().flatten())
}

/// The §VI-B leaf record of one candidate: acquisition, resale and fees read
/// off the NFT's trade graph and the chain, cached by the streaming analyzer
/// alongside the candidate. `None` means out of scope — the dominant
/// marketplace runs a reward system (§VI-A covers it) or the NFT has no
/// graph.
///
/// Facts are a pure function of the candidate, its NFT's graph and the
/// carrying transactions; the stream recomputes them whenever the NFT is
/// dirtied (new transfers may add the resale edge).
pub fn resale_facts(
    candidate: &DenseCandidate,
    chain: &Chain,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    graph: Option<&NftGraph>,
    interner: &Interner,
) -> Option<ResaleOutcome> {
    // Skip reward marketplaces: §VI-B covers the others.
    if let Some(market) = candidate.dominant_marketplace(interner) {
        if directory
            .by_contract(interner.market(market))
            .map(|info| info.reward.is_some())
            .unwrap_or(false)
        {
            return None;
        }
    }
    let graph = graph?;
    let treasuries: HashSet<Address> = directory.iter().map(|info| info.treasury).collect();
    let accounts = &candidate.accounts;
    let touching = graph.edges_touching(accounts);

    // Acquisition: the last transfer into the component before (or at) the
    // first wash trade.
    let acquisition = touching
        .iter()
        .filter(|(seller, buyer, edge)| {
            accounts.contains(buyer)
                && !accounts.contains(seller)
                && edge.timestamp <= candidate.first_trade
        })
        .max_by_key(|(_, _, edge)| edge.timestamp);
    let buy_price = acquisition.map(|(_, _, edge)| edge.price).unwrap_or(Wei::ZERO);
    let buy_usd = acquisition
        .map(|(_, _, edge)| oracle.wei_to_usd(edge.price, edge.timestamp).unwrap_or(0.0))
        .unwrap_or(0.0);

    // Resale: the first paid transfer out of the component after (or at)
    // the last wash trade.
    let resale = touching
        .iter()
        .filter(|(seller, buyer, edge)| {
            accounts.contains(seller)
                && !accounts.contains(buyer)
                && edge.timestamp >= candidate.last_trade
                && !edge.price.is_zero()
        })
        .min_by_key(|(_, _, edge)| edge.timestamp);

    // Fees: gas of the wash-trade transactions plus marketplace fees
    // routed to any treasury in those transactions (and in the resale).
    let mut fee_eth = 0.0;
    let mut fee_usd = 0.0;
    let mut seen = HashSet::new();
    let mut fee_txs: Vec<ethsim::TxHash> =
        candidate.internal_edges.iter().map(|(_, _, edge)| edge.tx_hash).collect();
    if let Some((_, _, edge)) = resale {
        fee_txs.push(edge.tx_hash);
    }
    for tx_hash in fee_txs {
        if !seen.insert(tx_hash) {
            continue;
        }
        let Some(tx) = chain.transaction(tx_hash) else {
            continue;
        };
        let treasury_fee: Wei = tx
            .internal_transfers
            .iter()
            .filter(|t| treasuries.contains(&t.to))
            .map(|t| t.value)
            .sum();
        fee_eth += tx.fee().to_eth() + treasury_fee.to_eth();
        fee_usd += oracle.wei_to_usd(tx.fee(), tx.timestamp).unwrap_or(0.0)
            + oracle.wei_to_usd(treasury_fee, tx.timestamp).unwrap_or(0.0);
    }

    Some(match resale {
        Some((_, _, edge)) => {
            let resale_usd = oracle.wei_to_usd(edge.price, edge.timestamp).unwrap_or(0.0);
            let gross = edge.price.to_eth() - buy_price.to_eth();
            let net = gross - fee_eth;
            let net_usd = resale_usd - buy_usd - fee_usd;
            let days = edge.timestamp.days_since(candidate.last_trade);
            ResaleOutcome {
                nft: interner.nft(candidate.nft),
                resold: true,
                buy_price_eth: buy_price.to_eth(),
                resale_price_eth: Some(edge.price.to_eth()),
                gross_gain_eth: Some(gross),
                net_gain_eth: Some(net),
                net_gain_usd: Some(net_usd),
                days_to_resale: Some(days),
            }
        }
        None => ResaleOutcome {
            nft: interner.nft(candidate.nft),
            resold: false,
            buy_price_eth: buy_price.to_eth(),
            resale_price_eth: None,
            gross_gain_eth: None,
            net_gain_eth: None,
            net_gain_usd: None,
            days_to_resale: None,
        },
    })
}

/// The serial reduce of §VI-B: fold per-candidate [`resale_facts`] in
/// activity order into the resale report. Every statistic — counters, the
/// `sold_*` buckets and the three [`ProfitSplit`]s — derives from fields the
/// facts already carry, folded in the same order the one-level loop folded
/// them, so cached and freshly computed facts produce the same bits.
pub fn reduce_resales<'a>(facts: impl IntoIterator<Item = &'a ResaleOutcome>) -> ResaleReport {
    let mut report = ResaleReport::default();
    let mut gross_values = Vec::new();
    let mut net_values = Vec::new();
    let mut net_usd_values = Vec::new();

    for outcome in facts {
        report.total += 1;
        if outcome.resold {
            report.resold += 1;
            let days = outcome.days_to_resale.unwrap_or(0);
            if days == 0 {
                report.sold_same_day += 1;
            }
            if days <= 30 {
                report.sold_within_month += 1;
            }
            gross_values.push(outcome.gross_gain_eth.unwrap_or(0.0));
            net_values.push(outcome.net_gain_eth.unwrap_or(0.0));
            net_usd_values.push(outcome.net_gain_usd.unwrap_or(0.0));
        } else {
            report.not_resold += 1;
        }
        report.outcomes.push(outcome.clone());
    }

    report.gross = ProfitSplit::of(gross_values);
    report.net = ProfitSplit::of(net_values);
    report.net_usd = ProfitSplit::of(net_usd_values);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, NftTransfer};
    use crate::detect::{DenseActivity, MethodSet};
    use crate::refine::DenseCandidate;
    use crate::txgraph::tests::dataset_of;
    use crate::txgraph::NftGraph;
    use ethsim::{BlockNumber, Timestamp, TxHash};

    #[test]
    fn profit_split_partitions_gains_and_losses() {
        let split = ProfitSplit::of([2.0, -1.0, 4.0, -3.0, 0.0]);
        assert_eq!(split.gains, 2);
        assert_eq!(split.losses, 3);
        assert_eq!(split.mean_gain, 3.0);
        assert!((split.mean_loss - (4.0 / 3.0)).abs() < 1e-9);
        assert_eq!(split.max_gain, 4.0);
        assert_eq!(split.max_loss, 3.0);
        assert!((split.gain_fraction() - 0.4).abs() < 1e-9);
        assert_eq!(ProfitSplit::of([]).gain_fraction(), 0.0);
    }

    #[test]
    fn reward_side_summary_of_empty_is_zero() {
        let summary = RewardSideSummary::of(&[]);
        assert_eq!(summary.events, 0);
        assert_eq!(summary.total_balance_usd, 0.0);
    }

    fn mk(
        nft: tokens::NftId,
        from: Address,
        to: Address,
        price: f64,
        at: u64,
        tag: &str,
    ) -> NftTransfer {
        NftTransfer {
            nft,
            from,
            to,
            tx_hash: TxHash::hash_of(tag.as_bytes()),
            block: BlockNumber(at),
            timestamp: Timestamp::from_secs(at * 86_400),
            price: Wei::from_eth(price),
            marketplace: None,
        }
    }

    /// Build the dense fixture world: a dataset, the NftKey-indexed graphs
    /// and one activity over the colluding pair `(wa, wb)`.
    fn world(
        transfers: &[NftTransfer],
        first_day: u64,
        last_day: u64,
    ) -> (Dataset, Vec<NftGraph>, DenseActivity) {
        let dataset = dataset_of(transfers);
        let graphs = NftGraph::from_dataset(&dataset, &Executor::default());
        let a = transfers[1].from;
        let b = transfers[1].to;
        let mut pair = vec![a, b];
        pair.sort();
        pair.dedup();
        let accounts: Vec<_> =
            pair.into_iter().map(|address| dataset.interner.account_id(address).unwrap()).collect();
        let key = dataset.interner.nft_key(transfers[0].nft).unwrap();
        let internal_edges = graphs[key.index()].edges_among(&accounts);
        let candidate = DenseCandidate {
            nft: key,
            accounts,
            first_trade: Timestamp::from_secs(first_day * 86_400),
            last_trade: Timestamp::from_secs(last_day * 86_400),
            volume: internal_edges.iter().map(|(_, _, e)| e.price).sum(),
            internal_edges,
        };
        let activity = DenseActivity {
            candidate,
            methods: MethodSet { zero_risk: true, ..MethodSet::default() },
        };
        (dataset, graphs, activity)
    }

    /// Manually assembled resale scenario: bought at 1 ETH, washed between two
    /// accounts, resold to a victim at 10 ETH.
    #[test]
    fn resale_analysis_computes_gains_from_graph_and_chain() {
        let chain = Chain::new(Timestamp::from_secs(0));
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 100, 1);
        let a = Address::derived("wa");
        let b = Address::derived("wb");
        let nft = NftId::new(Address::derived("coll"), 5);
        let transfers = vec![
            mk(nft, Address::derived("outsider"), a, 1.0, 1, "buy"),
            mk(nft, a, b, 4.0, 2, "w1"),
            mk(nft, b, a, 4.0, 3, "w2"),
            mk(nft, a, Address::derived("victim"), 10.0, 4, "sell"),
        ];
        let (dataset, graphs, activity) = world(&transfers, 2, 3);
        let report = analyze_resales(
            &[activity],
            &chain,
            &directory,
            &oracle,
            &graphs,
            &dataset.interner,
            &Executor::new(1),
        );
        assert_eq!(report.total, 1);
        assert_eq!(report.resold, 1);
        assert_eq!(report.not_resold, 0);
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.nft, nft);
        assert_eq!(outcome.buy_price_eth, 1.0);
        assert_eq!(outcome.resale_price_eth, Some(10.0));
        assert_eq!(outcome.gross_gain_eth, Some(9.0));
        // No real transactions on the chain -> no fee information, so the net
        // equals the gross here.
        assert_eq!(outcome.net_gain_eth, Some(9.0));
        assert_eq!(outcome.days_to_resale, Some(1));
        assert_eq!(report.gross.gains, 1);
        assert_eq!(report.net_usd.gains, 1);
    }

    #[test]
    fn unsold_nft_counts_as_not_resold() {
        let chain = Chain::new(Timestamp::from_secs(0));
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 100, 1);
        let a = Address::derived("ua");
        let b = Address::derived("ub");
        let nft = NftId::new(Address::derived("coll2"), 6);
        let transfers = vec![
            mk(nft, Address::NULL, a, 0.0, 1, "m"),
            mk(nft, a, b, 2.0, 2, "x"),
            mk(nft, b, a, 2.0, 3, "y"),
        ];
        let (dataset, graphs, activity) = world(&transfers, 2, 3);
        let report = analyze_resales(
            &[activity],
            &chain,
            &directory,
            &oracle,
            &graphs,
            &dataset.interner,
            &Executor::new(1),
        );
        assert_eq!(report.total, 1);
        assert_eq!(report.not_resold, 1);
        assert_eq!(report.resold, 0);
        assert!(!report.outcomes[0].resold);
        assert_eq!(report.outcomes[0].buy_price_eth, 0.0);
    }
}
