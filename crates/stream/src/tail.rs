//! Incrementally maintained inputs of the streaming characterization tail.
//!
//! The Fig. 3 "volume without wash trading" baseline is the one
//! characterization input that depends on *both* halves of the state: every
//! ingested transfer row (its USD pricing) and the current confirmed set
//! (which rows are wash trades). The batch path rebuilds it each time with a
//! full column scan; [`LegitVolumeSet`] maintains the same sample multiset
//! across epochs, at the cost of what the epoch changed:
//!
//! - appends price only the new rows, once each;
//! - transactions are keyed by their dense index (the chain position every
//!   transfer row carries from ingest), so the per-transaction row ranges
//!   and wash reference counts are plain `Vec`s, with no hashing;
//! - the confirmed-set transition runs only over the NFT groups that one
//!   diff walk ([`confirmed_changes`]) found changed. An unchanged group
//!   would subtract and re-add the same reference counts, so skipping it
//!   leaves every count, and with it every flip, as it was.
//!
//! Bit-identity argument: `Cdf::new` sorts its samples by `total_cmp`, a
//! total order under which equal elements are identical bit patterns, so the
//! sorted sequence is unique for a given multiset. The maintained sorted
//! multiset therefore yields — via [`Cdf::from_sorted`] — exactly the bits a
//! batch scan-and-sort over the same rows yields, and no float is ever
//! subtracted: samples enter and leave the multiset whole.

use std::collections::HashMap;
use std::ops::Range;

use ids::{BitSet, Interner};
use marketplace::MarketplaceDirectory;
use tokens::NftId;
use washtrade::dataset::{Dataset, NftMarketLeaves};
use washtrade::detect::DenseActivity;
use washtrade::stats::Cdf;

use oracle::PriceOracle;

/// The maintained "volume w/o wash trading" sample multiset (Fig. 3
/// baseline): USD values of every priced transfer row whose transaction is
/// not currently part of a confirmed wash activity.
#[derive(Debug, Clone, Default)]
pub struct LegitVolumeSet {
    /// First column row not yet priced.
    next_row: usize,
    /// Per-row USD value (immutable once priced — rows are append-only).
    row_usd: Vec<f64>,
    /// Whether the row is a CDF sample at all: non-zero price and a
    /// non-NaN USD value (`Cdf::new` drops NaNs, so the maintained set
    /// excludes them the same way).
    row_eligible: Vec<bool>,
    /// The rows carried by each transaction, indexed by its dense index, as
    /// a `first..end` row range: rows append in execution order, so one
    /// transaction's rows are contiguous. Empty for transactions with no
    /// transfer row.
    tx_rows: Vec<Range<u32>>,
    /// How many confirmed internal edges currently reference each
    /// transaction, indexed by its dense index; a transaction is wash iff
    /// its count is non-zero.
    wash_refcount: Vec<u32>,
    /// The sample multiset, sorted by `total_cmp`.
    sorted: Vec<f64>,
    /// Samples entering the multiset this epoch (merged on commit).
    pending_add: Vec<f64>,
    /// Samples leaving the multiset this epoch (merged on commit).
    pending_remove: Vec<f64>,
}

impl LegitVolumeSet {
    /// An empty set, no rows priced.
    pub fn new() -> Self {
        LegitVolumeSet::default()
    }

    /// Price and index the column rows appended since the last call. New
    /// rows whose transaction is already wash are indexed but not sampled —
    /// the flip machinery owns them from the start.
    pub fn append_rows(&mut self, dataset: &Dataset, oracle: &PriceOracle) {
        let columns = &dataset.columns;
        for row in self.next_row..columns.len() {
            let usd = oracle.wei_to_usd(columns.price[row], columns.timestamp[row]).unwrap_or(0.0);
            let eligible = !columns.price[row].is_zero() && !usd.is_nan();
            self.row_usd.push(usd);
            self.row_eligible.push(eligible);
            let tx = columns.tx[row] as usize;
            if self.tx_rows.len() <= tx {
                self.tx_rows.resize(tx + 1, 0..0);
            }
            let rows = &mut self.tx_rows[tx];
            if rows.start == rows.end {
                *rows = row as u32..row as u32 + 1;
            } else {
                debug_assert_eq!(rows.end as usize, row, "a transaction's rows are contiguous");
                rows.end += 1;
            }
            if eligible && !self.is_wash(tx) {
                self.pending_add.push(usd);
            }
        }
        self.next_row = columns.len();
    }

    fn is_wash(&self, tx: usize) -> bool {
        self.wash_refcount.get(tx).is_some_and(|&count| count > 0)
    }

    /// Apply one epoch's confirmed-set transition over the NFT groups in
    /// `changes` (see [`confirmed_changes`]): reference counts drop for
    /// every internal edge of a changed group's previous activities and
    /// rise for its current ones, and the rows of each transaction whose
    /// wash status flipped move out of or into the sample multiset.
    ///
    /// Groups left out of `changes` must be equal on both sides. Their
    /// edges would cancel, and the counts are order-free, so the result
    /// equals the transition over every group.
    pub fn apply_confirmed_delta(
        &mut self,
        previous: &[DenseActivity],
        current: &[DenseActivity],
        changes: &[GroupChange],
    ) {
        fn edge_txs(activities: &[DenseActivity]) -> impl Iterator<Item = usize> + '_ {
            activities
                .iter()
                .flat_map(|activity| activity.candidate.internal_edges.iter())
                .map(|(_, _, edge)| edge.tx as usize)
        }
        let mut dropped = Vec::new();
        let mut raised = Vec::new();
        for change in changes {
            dropped.extend(edge_txs(&previous[change.previous.clone()]));
            raised.extend(edge_txs(&current[change.current.clone()]));
        }
        // Status before the transition, recorded once per touched tx.
        let mut touched: Vec<usize> = dropped.iter().chain(&raised).copied().collect();
        touched.sort_unstable();
        touched.dedup();
        let was_wash: Vec<bool> = touched.iter().map(|&tx| self.is_wash(tx)).collect();
        if let Some(&max) = touched.last() {
            if self.wash_refcount.len() <= max {
                self.wash_refcount.resize(max + 1, 0);
            }
        }
        for &tx in &dropped {
            debug_assert!(self.wash_refcount[tx] > 0, "wash refcount underflow");
            self.wash_refcount[tx] -= 1;
        }
        for &tx in &raised {
            self.wash_refcount[tx] += 1;
        }
        for (tx, was) in touched.into_iter().zip(was_wash) {
            let is = self.is_wash(tx);
            if was == is {
                continue;
            }
            let Some(rows) = self.tx_rows.get(tx) else {
                continue;
            };
            for row in rows.clone() {
                if !self.row_eligible[row as usize] {
                    continue;
                }
                let usd = self.row_usd[row as usize];
                if is {
                    self.pending_remove.push(usd);
                } else {
                    self.pending_add.push(usd);
                }
            }
        }
    }

    /// The current baseline CDF — commits pending moves, then snapshots the
    /// sorted multiset.
    pub fn cdf(&mut self) -> Cdf {
        self.commit();
        Cdf::from_sorted(self.sorted.clone())
    }

    /// Merge this epoch's pending adds/removes into the sorted multiset:
    /// one sort of the (small) pending sets plus one linear merge. Equal
    /// samples are interchangeable (identical bits under `total_cmp`), so
    /// add/remove pairs cancel and removals may take any matching instance.
    fn commit(&mut self) {
        if self.pending_add.is_empty() && self.pending_remove.is_empty() {
            return;
        }
        self.pending_add.sort_by(|a, b| a.total_cmp(b));
        self.pending_remove.sort_by(|a, b| a.total_cmp(b));

        // Cancel same-epoch add/remove pairs (e.g. a row appended and
        // immediately washed): both lists are sorted, so one linear pass.
        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < self.pending_add.len() && j < self.pending_remove.len() {
            match self.pending_add[i].total_cmp(&self.pending_remove[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    adds.push(self.pending_add[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    removes.push(self.pending_remove[j]);
                    j += 1;
                }
            }
        }
        adds.extend_from_slice(&self.pending_add[i..]);
        removes.extend_from_slice(&self.pending_remove[j..]);
        self.pending_add.clear();
        self.pending_remove.clear();

        let mut merged = Vec::with_capacity(self.sorted.len() + adds.len());
        let mut add = adds.iter().copied().peekable();
        let mut remove_at = 0usize;
        for &value in &self.sorted {
            while add.peek().is_some_and(|a| a.total_cmp(&value).is_lt()) {
                merged.push(add.next().unwrap());
            }
            if remove_at < removes.len() && removes[remove_at].to_bits() == value.to_bits() {
                remove_at += 1;
                continue;
            }
            merged.push(value);
        }
        merged.extend(add);
        debug_assert_eq!(remove_at, removes.len(), "removed sample missing from multiset");
        self.sorted = merged;
    }
}

/// One NFT whose group of confirmed activities differs between two
/// consecutive confirmed lists: the group's range in each list, empty on the
/// side where the NFT is not confirmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupChange {
    /// The NFT.
    pub nft: NftId,
    /// Its activities in the previous list.
    pub previous: Range<usize>,
    /// Its activities in the current list.
    pub current: Range<usize>,
}

impl GroupChange {
    /// Whether the NFT is newly confirmed.
    pub fn is_new(&self) -> bool {
        self.previous.is_empty()
    }

    /// Whether the NFT lost its confirmation.
    pub fn is_lost(&self) -> bool {
        self.current.is_empty()
    }
}

/// One diff walk over two consecutive confirmed lists: the NFT groups whose
/// activities changed, in ascending NFT order. Both lists are in confirmed
/// order (sorted by `(resolved NFT, first account)`), so this is a linear
/// merge over per-NFT groups; a group present on only one side (a new or
/// lost suspect) is changed, and a group present on both sides is changed
/// iff its dense activities differ. Dense keys are stable (the interner is
/// append-only), so equal dense groups resolve to identical records.
pub fn confirmed_changes(
    previous: &[DenseActivity],
    current: &[DenseActivity],
    interner: &Interner,
) -> Vec<GroupChange> {
    fn group_end(activities: &[DenseActivity], start: usize) -> usize {
        let key = activities[start].candidate.nft;
        let mut end = start + 1;
        while end < activities.len() && activities[end].candidate.nft == key {
            end += 1;
        }
        end
    }
    let mut changes = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < previous.len() || j < current.len() {
        let prev_nft = (i < previous.len()).then(|| interner.nft(previous[i].candidate.nft));
        let cur_nft = (j < current.len()).then(|| interner.nft(current[j].candidate.nft));
        let take_prev = prev_nft.is_some() && (cur_nft.is_none() || prev_nft <= cur_nft);
        let take_cur = cur_nft.is_some() && (prev_nft.is_none() || cur_nft <= prev_nft);
        let prev_end = if take_prev { group_end(previous, i) } else { i };
        let cur_end = if take_cur { group_end(current, j) } else { j };
        if previous[i..prev_end] != current[j..cur_end] {
            let nft = if take_prev { prev_nft } else { cur_nft };
            changes.push(GroupChange {
                nft: nft.expect("a side was taken"),
                previous: i..prev_end,
                current: j..cur_end,
            });
        }
        i = prev_end;
        j = cur_end;
    }
    changes
}

/// The streamed Table I reduce: the USD totals of
/// [`washtrade::dataset::MarketVolumeFold`] and nothing else — the same
/// leaves fed in the same identity-sorted NFT order, first leaf per (market,
/// transaction) winning — so every dedup verdict (and with it every f64 add,
/// in the same order) matches the batch fold bit for bit. The replay runs
/// over every cached leaf each epoch, so it skips the per-NFT and ETH
/// accumulators the characterization baseline never reads.
pub struct MarketTotalsFold {
    per_market: Vec<Option<MarketTotal>>,
}

struct MarketTotal {
    transactions: BitSet,
    volume_usd: f64,
}

impl MarketTotalsFold {
    /// An empty fold over `market_count` dense marketplace ids.
    pub fn new(market_count: usize) -> Self {
        let mut per_market = Vec::new();
        per_market.resize_with(market_count, || None);
        MarketTotalsFold { per_market }
    }

    /// Fold one NFT's cached leaves. Callers must add NFTs in identity-sorted
    /// order — same contract as the batch fold.
    pub fn add(&mut self, leaves: &NftMarketLeaves) {
        for leaf in &leaves.leaves {
            let total = self.per_market[leaf.market.index()].get_or_insert_with(|| MarketTotal {
                transactions: BitSet::new(),
                volume_usd: 0.0,
            });
            if total.transactions.insert(leaf.tx as usize) {
                total.volume_usd += leaf.usd;
            }
        }
    }

    /// Resolve the fold into the marketplace-name → total-USD-volume map the
    /// characterization baseline consumes (the same values
    /// `MarketVolumeFold::rows` carries in its rows).
    pub fn totals(
        self,
        directory: &MarketplaceDirectory,
        interner: &Interner,
    ) -> HashMap<String, f64> {
        directory
            .iter()
            .map(|info| {
                let volume = interner
                    .market_id(info.contract)
                    .and_then(|id| self.per_market[id.index()].as_ref())
                    .map(|total| total.volume_usd)
                    .unwrap_or(0.0);
                (info.name.clone(), volume)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Address, Timestamp, TxHash, Wei};
    use ids::{AccountId, NftKey};
    use washtrade::detect::MethodSet;
    use washtrade::refine::DenseCandidate;
    use washtrade::txgraph::DenseTradeEdge;

    /// xorshift64: a fixed, dependency-free stream for the randomized test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// A confirmed activity on `nft` whose internal edges ride the given
    /// transactions.
    fn activity(nft: NftKey, first_account: u32, txs: &[u32]) -> DenseActivity {
        let internal_edges = txs
            .iter()
            .map(|&tx| {
                let edge = DenseTradeEdge {
                    timestamp: Timestamp::from_secs(u64::from(tx)),
                    tx_hash: TxHash::hash_of(&tx.to_be_bytes()),
                    tx,
                    marketplace: None,
                    price: Wei::from_eth(1.0),
                };
                (AccountId(first_account), AccountId(first_account + 1), edge)
            })
            .collect();
        DenseActivity {
            candidate: DenseCandidate {
                nft,
                accounts: vec![AccountId(first_account), AccountId(first_account + 1)],
                internal_edges,
                first_trade: Timestamp::from_secs(0),
                last_trade: Timestamp::from_secs(0),
                volume: Wei::ZERO,
            },
            methods: MethodSet { self_trade: true, ..MethodSet::default() },
        }
    }

    /// A random group of one or two activities over transactions `0..pool`.
    fn group(rng: &mut Rng, nft: NftKey, pool: u64) -> Vec<DenseActivity> {
        (0..1 + rng.below(2))
            .map(|i| {
                let txs: Vec<u32> = (0..1 + rng.below(3)).map(|_| rng.below(pool) as u32).collect();
                activity(nft, 2 * i as u32, &txs)
            })
            .collect()
    }

    /// The changed-only transition (over the groups [`confirmed_changes`]
    /// reports) must leave the same reference counts and sample multiset
    /// as the transition over every group — and as a from-scratch filter of
    /// the rows — on random confirmed lists, including transactions shared
    /// between a changed and an unchanged NFT.
    #[test]
    fn changed_only_transition_equals_the_full_set_transition() {
        const NFTS: u32 = 8;
        const POOL: u64 = 12;
        let mut interner = Interner::new();
        let mut keys: Vec<NftKey> = (0..NFTS)
            .map(|i| interner.intern_nft(NftId::new(Address::derived("collection"), u64::from(i))))
            .collect();
        keys.sort_by_key(|&key| interner.nft(key));
        // Rows: transaction `t` carries `1 + t % 2` rows; every third row is
        // not a sample (zero price).
        let mut base = LegitVolumeSet::new();
        for tx in 0..POOL as u32 {
            let first = base.row_usd.len() as u32;
            for _ in 0..1 + tx % 2 {
                let row = base.row_usd.len();
                base.row_usd.push(10.0 + row as f64);
                base.row_eligible.push(row % 3 != 2);
                if row % 3 != 2 {
                    base.pending_add.push(10.0 + row as f64);
                }
            }
            base.tx_rows.push(first..base.row_usd.len() as u32);
        }
        base.commit();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut shared_seen = false;
        for case in 0..200 {
            let (mut previous, mut current) = (Vec::new(), Vec::new());
            for &nft in &keys {
                let before = (rng.below(5) < 3).then(|| group(&mut rng, nft, POOL));
                let after = match rng.below(4) {
                    0 | 1 => before.clone(),
                    2 => Some(group(&mut rng, nft, POOL)),
                    _ => None,
                };
                previous.extend(before.into_iter().flatten());
                current.extend(after.into_iter().flatten());
            }
            let mut set = base.clone();
            let everything = |previous: &[DenseActivity], current: &[DenseActivity]| {
                vec![GroupChange {
                    nft: NftId::new(Address::NULL, 0),
                    previous: 0..previous.len(),
                    current: 0..current.len(),
                }]
            };
            set.apply_confirmed_delta(&[], &previous, &everything(&[], &previous));
            set.commit();

            let changes = confirmed_changes(&previous, &current, &interner);
            let mut changed_only = set.clone();
            changed_only.apply_confirmed_delta(&previous, &current, &changes);
            changed_only.commit();
            let mut full = set;
            full.apply_confirmed_delta(&previous, &current, &everything(&previous, &current));
            full.commit();

            let wash: BitSet = current
                .iter()
                .flat_map(|activity| activity.candidate.internal_edges.iter())
                .map(|(_, _, edge)| edge.tx as usize)
                .collect();
            let mut expected: Vec<f64> = (0..POOL as usize)
                .filter(|&tx| !wash.contains(tx))
                .flat_map(|tx| base.tx_rows[tx].clone())
                .filter(|&row| base.row_eligible[row as usize])
                .map(|row| base.row_usd[row as usize])
                .collect();
            expected.sort_by(|a, b| a.total_cmp(b));
            assert_eq!(changed_only.sorted, expected, "case {case}: changed-only multiset");
            assert_eq!(full.sorted, expected, "case {case}: full-set multiset");
            for tx in 0..POOL as usize {
                assert_eq!(
                    changed_only.wash_refcount.get(tx).copied().unwrap_or(0),
                    full.wash_refcount.get(tx).copied().unwrap_or(0),
                    "case {case}: refcount of transaction {tx}",
                );
            }

            // Was a transaction shared by a changed and an unchanged group?
            let txs_of = |activities: &[DenseActivity]| -> Vec<u32> {
                activities
                    .iter()
                    .flat_map(|activity| activity.candidate.internal_edges.iter())
                    .map(|(_, _, edge)| edge.tx)
                    .collect()
            };
            let changed_nfts: Vec<NftId> = changes.iter().map(|change| change.nft).collect();
            let changed_txs: Vec<u32> = changes
                .iter()
                .flat_map(|change| {
                    let mut txs = txs_of(&previous[change.previous.clone()]);
                    txs.extend(txs_of(&current[change.current.clone()]));
                    txs
                })
                .collect();
            let unchanged: Vec<DenseActivity> = current
                .iter()
                .filter(|activity| !changed_nfts.contains(&interner.nft(activity.candidate.nft)))
                .cloned()
                .collect();
            shared_seen |= txs_of(&unchanged).iter().any(|tx| changed_txs.contains(tx));
        }
        assert!(shared_seen, "no case shared a transaction between changed and unchanged NFTs");
    }

    #[test]
    fn diff_walk_reports_new_lost_and_changed_groups_in_nft_order() {
        let mut interner = Interner::new();
        let mut keys: Vec<NftKey> = (0..4)
            .map(|i| interner.intern_nft(NftId::new(Address::derived("collection"), i)))
            .collect();
        keys.sort_by_key(|&key| interner.nft(key));
        let [a, b, c, d] = keys[..] else { unreachable!() };
        let previous = vec![activity(a, 0, &[1]), activity(b, 0, &[2]), activity(c, 0, &[3])];
        let current = vec![activity(a, 0, &[1]), activity(c, 0, &[3, 4]), activity(d, 0, &[5])];
        let changes = confirmed_changes(&previous, &current, &interner);
        let summary: Vec<(NftId, bool, bool)> =
            changes.iter().map(|change| (change.nft, change.is_new(), change.is_lost())).collect();
        assert_eq!(
            summary,
            vec![
                (interner.nft(b), false, true),
                (interner.nft(c), false, false),
                (interner.nft(d), true, false),
            ]
        );
        assert_eq!((changes[1].previous.clone(), changes[1].current.clone()), (2..3, 1..2));
        assert!(confirmed_changes(&current, &current, &interner).is_empty());
    }

    #[test]
    fn commit_merges_adds_and_removes() {
        let mut set = LegitVolumeSet::new();
        set.pending_add.extend([3.0, 1.0, 2.0]);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.0, 3.0]);
        set.pending_add.push(2.5);
        set.pending_remove.push(2.0);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.5, 3.0]);
        // Same-epoch add+remove of an equal sample cancels.
        set.pending_add.push(9.0);
        set.pending_remove.push(9.0);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.5, 3.0]);
    }

    #[test]
    fn duplicate_samples_remove_one_instance() {
        let mut set = LegitVolumeSet::new();
        set.pending_add.extend([5.0, 5.0, 5.0]);
        set.commit();
        set.pending_remove.push(5.0);
        set.commit();
        assert_eq!(set.sorted, vec![5.0, 5.0]);
    }
}
