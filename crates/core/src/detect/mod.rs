//! Wash-trading confirmation (§IV-C) and method comparison (§IV-D).
//!
//! The refinement stage produces *candidates* — strongly connected components
//! with real traded value. This module confirms them as wash trading when at
//! least one of five independent signals is present:
//!
//! 1. **Zero-risk position** — the component's net ETH position over the
//!    NFT's trades is zero ([`zero_risk`]).
//! 2. **Common funder** — a common account funds the colluders before the
//!    first trade ([`flows::common_funder`]).
//! 3. **Common exit** — the proceeds flow to a common account after the last
//!    trade ([`flows::common_exit`]).
//! 4. **Self-trade** — an account sells the NFT to itself (verified de facto).
//! 5. **Leveraging confirmed events** — the same set of accounts was already
//!    confirmed on another NFT.
//!
//! Detection runs on dense candidates ([`DenseDetectionOutcome`]); the
//! address-keyed [`DetectionOutcome`] is produced exactly once, by
//! [`DenseDetectionOutcome::resolve`], at report assembly.

pub mod flows;
pub mod zero_risk;

use std::collections::HashSet;

use ethsim::{Address, Chain};
use ids::{AccountId, Interner, NftKey};
use labels::LabelRegistry;
use serde::{Deserialize, Serialize};
use tokens::NftId;

use crate::parallel::Executor;
use crate::refine::{Candidate, DenseCandidate};
use crate::txgraph::NftGraph;

pub use flows::{FlowEvidence, FlowKind};

/// Which detection methods confirmed an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MethodSet {
    /// Zero-risk position (§IV-C i).
    pub zero_risk: bool,
    /// Common funder evidence (§IV-C ii).
    pub common_funder: Option<FlowEvidence>,
    /// Common exit evidence (§IV-C iii).
    pub common_exit: Option<FlowEvidence>,
    /// Self-trade (§IV-C iv).
    pub self_trade: bool,
    /// Confirmed by sharing its account set with an already-confirmed
    /// activity (§IV-C v).
    pub leveraged: bool,
}

impl MethodSet {
    /// Whether any method confirmed the activity.
    pub fn confirmed(&self) -> bool {
        self.zero_risk
            || self.common_funder.is_some()
            || self.common_exit.is_some()
            || self.self_trade
            || self.leveraged
    }

    /// How many of the three transaction-analysis methods fired (used for the
    /// §IV-D overlap statistics).
    pub fn flow_method_count(&self) -> usize {
        usize::from(self.zero_risk)
            + usize::from(self.common_funder.is_some())
            + usize::from(self.common_exit.is_some())
    }
}

/// A confirmed wash-trading activity in resolved (address-keyed) form: the
/// report-boundary twin of [`DenseActivity`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfirmedActivity {
    /// The underlying candidate component.
    pub candidate: Candidate,
    /// The methods that confirmed it.
    pub methods: MethodSet,
}

impl ConfirmedActivity {
    /// The colluding accounts.
    pub fn accounts(&self) -> &[Address] {
        &self.candidate.accounts
    }

    /// The manipulated NFT.
    pub fn nft(&self) -> NftId {
        self.candidate.nft
    }
}

/// A confirmed wash-trading activity in dense-id form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseActivity {
    /// The underlying candidate component.
    pub candidate: DenseCandidate,
    /// The methods that confirmed it.
    pub methods: MethodSet,
}

impl DenseActivity {
    /// The colluding accounts (sorted by resolved address).
    pub fn accounts(&self) -> &[AccountId] {
        &self.candidate.accounts
    }

    /// The manipulated NFT.
    pub fn nft(&self) -> NftKey {
        self.candidate.nft
    }

    /// Resolve to the report-boundary [`ConfirmedActivity`].
    pub fn resolve(&self, interner: &Interner) -> ConfirmedActivity {
        ConfirmedActivity { candidate: self.candidate.resolve(interner), methods: self.methods }
    }
}

/// Counts for the Fig. 2 Venn diagram over the three transaction-analysis
/// methods (activities confirmed by at least one of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VennCounts {
    /// Zero-risk only.
    pub zero_risk_only: usize,
    /// Common funder only.
    pub funder_only: usize,
    /// Common exit only.
    pub exit_only: usize,
    /// Zero-risk ∩ common funder.
    pub zero_and_funder: usize,
    /// Zero-risk ∩ common exit.
    pub zero_and_exit: usize,
    /// Common funder ∩ common exit.
    pub funder_and_exit: usize,
    /// All three.
    pub all_three: usize,
}

impl VennCounts {
    /// Total activities confirmed by at least one flow method.
    pub fn total(&self) -> usize {
        self.zero_risk_only
            + self.funder_only
            + self.exit_only
            + self.zero_and_funder
            + self.zero_and_exit
            + self.funder_and_exit
            + self.all_three
    }

    /// Activities confirmed by at least two of the three methods.
    pub fn at_least_two(&self) -> usize {
        self.zero_and_funder + self.zero_and_exit + self.funder_and_exit + self.all_three
    }

    fn record(&mut self, methods: &MethodSet) {
        let z = methods.zero_risk;
        let f = methods.common_funder.is_some();
        let e = methods.common_exit.is_some();
        match (z, f, e) {
            (true, false, false) => self.zero_risk_only += 1,
            (false, true, false) => self.funder_only += 1,
            (false, false, true) => self.exit_only += 1,
            (true, true, false) => self.zero_and_funder += 1,
            (true, false, true) => self.zero_and_exit += 1,
            (false, true, true) => self.funder_and_exit += 1,
            (true, true, true) => self.all_three += 1,
            (false, false, false) => {}
        }
    }
}

/// The outcome of running all detectors over the candidates, resolved for
/// the report. Produced once per report assembly by
/// [`DenseDetectionOutcome::resolve`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Confirmed wash-trading activities.
    pub confirmed: Vec<ConfirmedActivity>,
    /// Candidates that no method confirmed.
    pub rejected: usize,
    /// Overlap of the three transaction-analysis methods (Fig. 2).
    pub venn: VennCounts,
    /// How many activities were confirmed only by the leverage rule (§IV-C v).
    pub leveraged_only: usize,
    /// How many confirmed activities contain a self-trade edge.
    pub self_trades: usize,
}

/// The outcome of running all detectors over the candidates, in dense form.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DenseDetectionOutcome {
    /// Confirmed wash-trading activities.
    pub confirmed: Vec<DenseActivity>,
    /// Candidates that no method confirmed.
    pub rejected: usize,
    /// Overlap of the three transaction-analysis methods (Fig. 2).
    pub venn: VennCounts,
    /// How many activities were confirmed only by the leverage rule (§IV-C v).
    pub leveraged_only: usize,
    /// How many confirmed activities contain a self-trade edge.
    pub self_trades: usize,
}

impl DenseDetectionOutcome {
    /// Resolve every confirmed activity back to addresses — the single point
    /// where detection ids become report addresses.
    pub fn resolve(&self, interner: &Interner) -> DetectionOutcome {
        DetectionOutcome {
            confirmed: self.confirmed.iter().map(|activity| activity.resolve(interner)).collect(),
            rejected: self.rejected,
            venn: self.venn,
            leveraged_only: self.leveraged_only,
            self_trades: self.self_trades,
        }
    }
}

/// Runs the five confirmation methods over refined candidates.
pub struct Detector<'a> {
    chain: &'a Chain,
    labels: &'a LabelRegistry,
    interner: &'a Interner,
}

impl<'a> Detector<'a> {
    /// Create a detector reading transactions and labels from the chain,
    /// resolving dense ids through `interner`.
    pub fn new(chain: &'a Chain, labels: &'a LabelRegistry, interner: &'a Interner) -> Self {
        Detector { chain, labels, interner }
    }

    /// Evaluate every candidate and return the confirmed activities together
    /// with the method-comparison statistics.
    ///
    /// `graphs` is the [`NftKey`]-indexed graph table ([`NftGraph::
    /// from_dataset`] output): the zero-risk computation needs the trades
    /// that cross the component boundary. Per-candidate evidence is
    /// independent, so it is gathered over the executor's thread budget;
    /// evidence comes back in candidate order, making the outcome identical
    /// at any thread count.
    pub fn detect(
        &self,
        candidates: &[DenseCandidate],
        graphs: &[NftGraph],
        executor: &Executor,
    ) -> DenseDetectionOutcome {
        let evidence = executor.map(candidates, |candidate| {
            self.evaluate(candidate, graphs.get(candidate.nft.index()))
        });
        let pairs: Vec<(&DenseCandidate, MethodSet)> = candidates.iter().zip(evidence).collect();
        Detector::assemble(&pairs).0
    }

    /// Run the leverage pass (§IV-C v) over `(candidate, base evidence)`
    /// pairs and assemble the final [`DenseDetectionOutcome`] (Venn counts,
    /// self-trade and rejection tallies), together with the input indices
    /// of the confirmed activities (in confirmed order).
    ///
    /// Each pair's evidence must be the [`Detector::evaluate`] result for
    /// its candidate with `leveraged` still `false`. This is a pure function
    /// of its inputs: the streaming subsystem caches base evidence per NFT,
    /// walks its caches into a pair list each epoch without cloning every
    /// candidate, and re-assembles the global outcome through this same code
    /// path — which is what makes the live and batch outcomes bit-identical.
    /// The indices line the confirmed set up with the cached
    /// characterize/profit facts that live alongside each candidate.
    pub fn assemble(pairs: &[(&DenseCandidate, MethodSet)]) -> (DenseDetectionOutcome, Vec<u32>) {
        // Leverage pass: any unconfirmed candidate whose account set matches a
        // confirmed activity's account set is confirmed too. Account lists
        // are consistently address-sorted id lists, so slice equality is
        // exactly set equality of the underlying addresses.
        let confirmed_sets: HashSet<&[AccountId]> = pairs
            .iter()
            .filter(|(_, methods)| methods.confirmed())
            .map(|(candidate, _)| candidate.accounts.as_slice())
            .collect();
        let mut leveraged_only = 0usize;
        let mut outcome = DenseDetectionOutcome::default();
        let mut confirmed_indices = Vec::new();
        for (index, (candidate, methods)) in pairs.iter().enumerate() {
            let mut methods = *methods;
            if !methods.confirmed() && confirmed_sets.contains(candidate.accounts.as_slice()) {
                methods.leveraged = true;
                leveraged_only += 1;
            }
            if !methods.confirmed() {
                outcome.rejected += 1;
                continue;
            }
            if methods.flow_method_count() > 0 {
                outcome.venn.record(&methods);
            }
            if methods.self_trade {
                outcome.self_trades += 1;
            }
            confirmed_indices.push(index as u32);
            outcome.confirmed.push(DenseActivity { candidate: (*candidate).clone(), methods });
        }
        outcome.leveraged_only = leveraged_only;
        (outcome, confirmed_indices)
    }

    /// Gather the base evidence (zero-risk, common funder, common exit,
    /// self-trade) for one candidate. Pure per candidate — it reads only the
    /// candidate, its NFT's graph and the immutable chain/labels — so results
    /// can be cached and recomputed only when the NFT's graph changes. The
    /// `leveraged` flag is always `false` here; it is a global property
    /// assigned by [`Detector::assemble`].
    ///
    /// The candidate's accounts resolve to addresses exactly once here, for
    /// the chain-history flow scans (funders and exits are arbitrary chain
    /// accounts outside the dense id space).
    pub fn evaluate(&self, candidate: &DenseCandidate, graph: Option<&NftGraph>) -> MethodSet {
        let zero_risk =
            graph.map(|graph| zero_risk::is_zero_risk(graph, &candidate.accounts)).unwrap_or(false);
        let addresses: Vec<Address> =
            candidate.accounts.iter().map(|&id| self.interner.address(id)).collect();
        let common_funder =
            flows::common_funder(self.chain, self.labels, &addresses, candidate.first_trade);
        let common_exit =
            flows::common_exit(self.chain, self.labels, &addresses, candidate.last_trade);
        MethodSet {
            zero_risk,
            common_funder,
            common_exit,
            self_trade: candidate.has_self_trade(),
            leveraged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, NftTransfer};
    use crate::refine::Refiner;
    use crate::txgraph::tests::dataset_of;
    use ethsim::{BlockNumber, Timestamp, TxHash, TxRequest, Wei};

    fn mk(nft: NftId, from: Address, to: Address, price: f64, at: u64, tag: &str) -> NftTransfer {
        NftTransfer {
            nft,
            from,
            to,
            tx_hash: TxHash::hash_of(tag.as_bytes()),
            block: BlockNumber(at),
            timestamp: Timestamp::from_secs(at * 1_000),
            price: Wei::from_eth(price),
            marketplace: None,
        }
    }

    /// Refine a dataset's graphs into dense candidates.
    fn refined(
        dataset: &Dataset,
        chain: &Chain,
        labels: &LabelRegistry,
    ) -> (Vec<DenseCandidate>, Vec<NftGraph>) {
        let graphs = NftGraph::from_dataset(dataset, &Executor::default());
        let (candidates, _) =
            Refiner::new(chain, labels, &dataset.interner).refine(&graphs, &Executor::default());
        (candidates, graphs)
    }

    /// Build a minimal chain + graph where two accounts round-trip an NFT,
    /// funded by account `a` and swept back to `a`.
    fn wash_world() -> (Chain, LabelRegistry, Dataset, Vec<DenseCandidate>, Vec<NftGraph>) {
        let mut chain = Chain::new(Timestamp::from_secs(1_000));
        let a = chain.create_eoa("washer-a").unwrap();
        let b = chain.create_eoa("washer-b").unwrap();
        chain.fund(a, Wei::from_eth(20.0));
        let gas = Wei::from_gwei(20);

        // Funding: a → b before the trades.
        chain.submit(TxRequest::ether_transfer(a, b, Wei::from_eth(5.0), gas)).unwrap();
        chain.seal_block(Timestamp::from_secs(10_000)).unwrap();

        // The wash trades themselves (recorded in the NFT graph below; the
        // ETH legs are not needed for funder/exit evidence).
        chain.seal_block(Timestamp::from_secs(20_000)).unwrap();

        // Exit: b → a after the trades.
        chain.submit(TxRequest::ether_transfer(b, a, Wei::from_eth(4.0), gas)).unwrap();

        let nft = NftId::new(Address::derived("collection"), 1);
        let dataset = dataset_of(&[
            mk(nft, Address::NULL, a, 0.0, 9, "mint"),
            mk(nft, a, b, 2.0, 11, "t1"),
            mk(nft, b, a, 2.0, 12, "t2"),
        ]);
        let labels = LabelRegistry::new();
        let (candidates, graphs) = refined(&dataset, &chain, &labels);
        (chain, labels, dataset, candidates, graphs)
    }

    #[test]
    fn full_evidence_confirms_with_all_three_methods() {
        let (chain, labels, dataset, candidates, graphs) = wash_world();
        assert_eq!(candidates.len(), 1);
        let detector = Detector::new(&chain, &labels, &dataset.interner);
        let outcome = detector.detect(&candidates, &graphs, &Executor::default());
        assert_eq!(outcome.confirmed.len(), 1);
        assert_eq!(outcome.rejected, 0);
        let methods = outcome.confirmed[0].methods;
        assert!(methods.zero_risk);
        assert_eq!(methods.common_funder.unwrap().kind, FlowKind::Internal);
        assert_eq!(methods.common_exit.unwrap().kind, FlowKind::Internal);
        assert!(!methods.self_trade);
        assert_eq!(outcome.venn.all_three, 1);
        assert_eq!(outcome.venn.total(), 1);
        assert_eq!(methods.flow_method_count(), 3);
        // Resolution reproduces the same evidence on the address-keyed view.
        let resolved = outcome.resolve(&dataset.interner);
        assert_eq!(resolved.confirmed[0].methods, methods);
        assert_eq!(resolved.confirmed[0].nft(), NftId::new(Address::derived("collection"), 1));
        assert_eq!(resolved.venn, outcome.venn);
    }

    #[test]
    fn candidate_without_evidence_is_rejected() {
        // Two accounts round-trip an NFT they bought from an outsider, with no
        // funding or exit flows: every method stays silent.
        let mut chain = Chain::new(Timestamp::from_secs(1_000));
        let a = chain.create_eoa("lone-a").unwrap();
        let b = chain.create_eoa("lone-b").unwrap();
        chain.fund(a, Wei::from_eth(10.0));
        chain.fund(b, Wei::from_eth(10.0));
        let nft = NftId::new(Address::derived("collection"), 2);
        let seller = Address::derived("outside-seller");
        let dataset = dataset_of(&[
            mk(nft, seller, a, 1.0, 5, "buy"),
            mk(nft, a, b, 2.0, 6, "x1"),
            mk(nft, b, a, 2.0, 7, "x2"),
        ]);
        let labels = LabelRegistry::new();
        let (candidates, graphs) = refined(&dataset, &chain, &labels);
        assert_eq!(candidates.len(), 1);
        let outcome = Detector::new(&chain, &labels, &dataset.interner).detect(
            &candidates,
            &graphs,
            &Executor::default(),
        );
        assert!(outcome.confirmed.is_empty());
        assert_eq!(outcome.rejected, 1);
        assert_eq!(outcome.venn.total(), 0);
    }

    #[test]
    fn leverage_confirms_matching_account_sets() {
        // A chain with no ETH flows at all: the first NFT is confirmed purely
        // by its zero-risk position (minted to a colluder, never sold on);
        // the second NFT, traded by the same pair but bought from an outsider
        // for value, has no evidence of its own and is confirmed only by the
        // leverage rule.
        let mut chain = Chain::new(Timestamp::from_secs(1_000));
        let a = chain.create_eoa("lev-a").unwrap();
        let b = chain.create_eoa("lev-b").unwrap();
        chain.fund(a, Wei::from_eth(10.0));
        chain.fund(b, Wei::from_eth(10.0));
        let labels = LabelRegistry::new();

        let nft1 = NftId::new(Address::derived("collection"), 1);
        let nft2 = NftId::new(Address::derived("collection"), 99);
        let dataset = dataset_of(&[
            mk(nft1, Address::NULL, a, 0.0, 1, "mint1"),
            mk(nft1, a, b, 2.0, 2, "t1"),
            mk(nft1, b, a, 2.0, 3, "t2"),
            mk(nft2, Address::derived("someone-else"), a, 1.0, 10, "buy2"),
            mk(nft2, a, b, 3.0, 11, "y1"),
            mk(nft2, b, a, 3.0, 12, "y2"),
        ]);
        let (candidates, graphs) = refined(&dataset, &chain, &labels);
        assert_eq!(candidates.len(), 2);

        let outcome = Detector::new(&chain, &labels, &dataset.interner).detect(
            &candidates,
            &graphs,
            &Executor::default(),
        );
        assert_eq!(outcome.confirmed.len(), 2);
        assert_eq!(outcome.leveraged_only, 1);
        let key2 = dataset.interner.nft_key(nft2).unwrap();
        let leveraged = outcome.confirmed.iter().find(|activity| activity.nft() == key2).unwrap();
        assert!(leveraged.methods.leveraged);
        assert_eq!(leveraged.methods.flow_method_count(), 0);
        let key1 = dataset.interner.nft_key(nft1).unwrap();
        let original = outcome.confirmed.iter().find(|activity| activity.nft() == key1).unwrap();
        assert!(original.methods.zero_risk);
        assert!(!original.methods.leveraged);
    }

    #[test]
    fn self_trade_is_verified_de_facto() {
        let mut chain = Chain::new(Timestamp::from_secs(1_000));
        let a = chain.create_eoa("selfish").unwrap();
        chain.fund(a, Wei::from_eth(5.0));
        let nft = NftId::new(Address::derived("collection"), 7);
        let dataset = dataset_of(&[
            mk(nft, Address::derived("outside-seller"), a, 1.0, 2, "acq"),
            mk(nft, a, a, 2.0, 3, "self"),
        ]);
        let labels = LabelRegistry::new();
        let (candidates, graphs) = refined(&dataset, &chain, &labels);
        let outcome = Detector::new(&chain, &labels, &dataset.interner).detect(
            &candidates,
            &graphs,
            &Executor::default(),
        );
        assert_eq!(outcome.confirmed.len(), 1);
        assert!(outcome.confirmed[0].methods.self_trade);
        assert_eq!(outcome.self_trades, 1);
    }

    #[test]
    fn method_set_confirmed_iff_any_signal_fires() {
        assert!(!MethodSet::default().confirmed());
        let evidence =
            FlowEvidence { account: Address::derived("x"), kind: FlowKind::Internal, degree: 2 };
        let singles = [
            MethodSet { zero_risk: true, ..MethodSet::default() },
            MethodSet { common_funder: Some(evidence), ..MethodSet::default() },
            MethodSet { common_exit: Some(evidence), ..MethodSet::default() },
            MethodSet { self_trade: true, ..MethodSet::default() },
            MethodSet { leveraged: true, ..MethodSet::default() },
        ];
        for (index, methods) in singles.iter().enumerate() {
            assert!(methods.confirmed(), "signal #{index} alone must confirm");
        }
        // flow_method_count covers exactly the three transaction-analysis
        // signals, never self-trades or leveraging.
        assert_eq!(singles[0].flow_method_count(), 1);
        assert_eq!(singles[1].flow_method_count(), 1);
        assert_eq!(singles[2].flow_method_count(), 1);
        assert_eq!(singles[3].flow_method_count(), 0);
        assert_eq!(singles[4].flow_method_count(), 0);
    }

    #[test]
    fn venn_total_is_the_sum_of_all_buckets() {
        let venn = VennCounts {
            zero_risk_only: 1,
            funder_only: 2,
            exit_only: 3,
            zero_and_funder: 4,
            zero_and_exit: 5,
            funder_and_exit: 6,
            all_three: 7,
        };
        assert_eq!(venn.total(), 28);
        assert_eq!(venn.at_least_two(), 22);
        assert!(venn.at_least_two() <= venn.total());
    }

    #[test]
    fn venn_record_covers_every_combination_once() {
        let evidence =
            FlowEvidence { account: Address::derived("x"), kind: FlowKind::Internal, degree: 2 };
        let mut venn = VennCounts::default();
        for mask in 0u8..8 {
            let methods = MethodSet {
                zero_risk: mask & 1 != 0,
                common_funder: (mask & 2 != 0).then_some(evidence),
                common_exit: (mask & 4 != 0).then_some(evidence),
                ..MethodSet::default()
            };
            venn.record(&methods);
        }
        // Seven of the eight masks have at least one flow method; the all-off
        // mask must not be counted anywhere.
        assert_eq!(venn.total(), 7);
        assert_eq!(
            (venn.zero_risk_only, venn.funder_only, venn.exit_only),
            (1, 1, 1),
            "each single-method bucket exactly once"
        );
        assert_eq!(venn.at_least_two(), 4);
    }
}
