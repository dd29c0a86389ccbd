//! Per-NFT transaction graphs (§IV-A).
//!
//! For each NFT the paper builds a directed multigraph whose nodes are the
//! accounts that ever held or received it and whose edges are individual
//! sales annotated with `(timestamp, transaction hash, interacted contract,
//! amount paid)`. Strongly connected components of this graph are the
//! wash-trading candidates.
//!
//! Nodes are dense [`AccountId`]s and marketplace annotations are dense
//! [`MarketId`]s: the graph layer never touches a 20-byte address. The
//! resolved [`TradeEdge`] (with a marketplace *address*) exists only as the
//! report-boundary twin of [`DenseTradeEdge`].

use ethsim::{Address, Timestamp, TxHash, Wei};
use graphlib::{suspicious_components, DiMultiGraph, NodeIndex};
use ids::{AccountId, Interner, MarketId, NftKey};
use serde::{Deserialize, Serialize};

use crate::columns::TransferColumns;
use crate::dataset::Dataset;
use crate::parallel::Executor;

/// Annotation of one trade edge in resolved form, exactly the tuple the
/// paper uses. Appears in the report's candidate edges; the analysis layers
/// carry [`DenseTradeEdge`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TradeEdge {
    /// Timestamp of the sale.
    pub timestamp: Timestamp,
    /// Transaction hash of the sale.
    pub tx_hash: TxHash,
    /// The marketplace contract interacted with, if any.
    pub marketplace: Option<Address>,
    /// Amount paid for the NFT.
    pub price: Wei,
}

/// Annotation of one trade edge in dense form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseTradeEdge {
    /// Timestamp of the sale.
    pub timestamp: Timestamp,
    /// Transaction hash of the sale (what the resolved edge reports).
    pub tx_hash: TxHash,
    /// Dense index of the sale's transaction (its chain position) — the key
    /// every per-transaction dedup and wash-set probe uses.
    pub tx: u32,
    /// The marketplace interacted with, if any.
    pub marketplace: Option<MarketId>,
    /// Amount paid for the NFT.
    pub price: Wei,
}

impl DenseTradeEdge {
    /// The report-boundary view of this edge.
    pub fn resolve(&self, interner: &Interner) -> TradeEdge {
        TradeEdge {
            timestamp: self.timestamp,
            tx_hash: self.tx_hash,
            marketplace: self.marketplace.map(|id| interner.market(id)),
            price: self.price,
        }
    }
}

/// The transaction graph of one NFT, over dense account ids.
#[derive(Debug, Clone)]
pub struct NftGraph {
    /// The NFT this graph describes.
    pub nft: NftKey,
    /// The directed multigraph: account → account per sale.
    pub graph: DiMultiGraph<AccountId, DenseTradeEdge>,
}

impl NftGraph {
    /// An empty graph for an NFT, ready to receive transfers incrementally
    /// through [`NftGraph::apply_rows`].
    pub fn new(nft: NftKey) -> Self {
        NftGraph { nft, graph: DiMultiGraph::new() }
    }

    /// Append column-store rows to the graph in the given order. Feeding an
    /// NFT's history through any sequence of `apply_rows` calls produces a
    /// graph identical to a one-shot [`NftGraph::from_columns`] over the full
    /// history — the seam the streaming subsystem uses to grow graphs epoch
    /// by epoch instead of rebuilding them.
    pub fn apply_rows(&mut self, columns: &TransferColumns, rows: &[u32]) {
        for &row in rows {
            let i = row as usize;
            let edge = DenseTradeEdge {
                timestamp: columns.timestamp[i],
                tx_hash: columns.tx_hash[i],
                tx: columns.tx[i],
                marketplace: columns.marketplace[i],
                price: columns.price[i],
            };
            self.graph.add_edge_by_key(columns.from[i], columns.to[i], edge);
        }
    }

    /// Build the graph of one NFT from its chronological column slice. The
    /// row count is known up front, so the edge columns are sized exactly
    /// once (node capacity is left to grow: most NFT graphs have far fewer
    /// distinct accounts than transfers).
    pub fn from_columns(nft: NftKey, columns: &TransferColumns) -> Self {
        let rows = columns.rows_of(nft);
        let mut graph = NftGraph { nft, graph: DiMultiGraph::with_capacity(4, rows.len()) };
        graph.apply_rows(columns, rows);
        graph
    }

    /// Build graphs for every NFT in a dataset, spreading construction over
    /// the executor's thread budget. The result is indexed by [`NftKey`]:
    /// `graphs[key.index()]` is that NFT's graph, so no keyed map is needed
    /// downstream. Keys are a fixed enumeration, so the output is identical
    /// at any thread count.
    pub fn from_dataset(dataset: &Dataset, executor: &Executor) -> Vec<NftGraph> {
        let keys: Vec<NftKey> = (0..dataset.nft_count() as u32).map(NftKey).collect();
        executor.map(&keys, |key| NftGraph::from_columns(*key, &dataset.columns))
    }

    /// The paper's candidate components: SCCs with at least two nodes, plus
    /// single nodes with a self-loop. Accounts within each component are
    /// sorted by their **resolved address** — the order every candidate
    /// list, shape position and report account list is built on, which is
    /// what keeps dense outputs bit-identical to the address-keyed pipeline.
    pub fn suspicious_account_sets(&self, interner: &Interner) -> Vec<Vec<AccountId>> {
        suspicious_components(&self.graph)
            .into_iter()
            .map(|component| self.accounts_of(&component, interner))
            .collect()
    }

    /// Resolve node indices into account ids, sorted by resolved address.
    pub fn accounts_of(&self, component: &[NodeIndex], interner: &Interner) -> Vec<AccountId> {
        let mut accounts: Vec<AccountId> =
            component.iter().map(|&index| *self.graph.node(index)).collect();
        accounts.sort_unstable_by_key(|&id| interner.address(id));
        accounts
    }

    /// Graph-local membership mask for a set of accounts: `mask[node]` is
    /// true iff that node's account is in `accounts`. Shared by the edge
    /// filters here and the zero-risk net-position scan.
    pub(crate) fn membership(&self, accounts: &[AccountId]) -> Vec<bool> {
        let mut mask = vec![false; self.graph.node_count()];
        for account in accounts {
            if let Some(index) = self.graph.node_id(account) {
                mask[index] = true;
            }
        }
        mask
    }

    /// All edges between accounts of `accounts` (self-loops included),
    /// in insertion (chronological) order.
    pub fn edges_among(
        &self,
        accounts: &[AccountId],
    ) -> Vec<(AccountId, AccountId, DenseTradeEdge)> {
        let mask = self.membership(accounts);
        self.graph
            .edges()
            .filter(|edge| mask[edge.source] && mask[edge.target])
            .map(|edge| {
                (*self.graph.node(edge.source), *self.graph.node(edge.target), *edge.weight)
            })
            .collect()
    }

    /// All edges incident to any account of `accounts` (either endpoint),
    /// in chronological order. Used by the zero-risk computation, which must
    /// see acquisitions from and disposals to outsiders.
    pub fn edges_touching(
        &self,
        accounts: &[AccountId],
    ) -> Vec<(AccountId, AccountId, DenseTradeEdge)> {
        let mask = self.membership(accounts);
        self.graph
            .edges()
            .filter(|edge| mask[edge.source] || mask[edge.target])
            .map(|edge| {
                (*self.graph.node(edge.source), *self.graph.node(edge.target), *edge.weight)
            })
            .collect()
    }

    /// The distinct directed shape of the subgraph induced by `accounts`,
    /// as local positions, suitable for pattern classification.
    pub fn shape_of(&self, accounts: &[AccountId]) -> Vec<(usize, usize)> {
        let indices: Vec<NodeIndex> =
            accounts.iter().filter_map(|account| self.graph.node_id(account)).collect();
        self.graph.simple_shape_within(&indices)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ethsim::BlockNumber;
    use tokens::NftId;

    use crate::dataset::NftTransfer;

    pub(crate) fn transfer(
        nft: NftId,
        from: &str,
        to: &str,
        price_eth: f64,
        at_secs: u64,
    ) -> NftTransfer {
        NftTransfer {
            nft,
            from: if from == "null" { Address::NULL } else { Address::derived(from) },
            to: Address::derived(to),
            tx_hash: TxHash::hash_of(format!("{from}->{to}@{at_secs}").as_bytes()),
            block: BlockNumber(at_secs / 13),
            timestamp: Timestamp::from_secs(at_secs),
            price: Wei::from_eth(price_eth),
            marketplace: None,
        }
    }

    /// Intern a transfer list into a dataset — the fixture seam the dense
    /// unit tests build their worlds through. Fixtures have no chain, so
    /// each distinct transaction hash gets the next dense transaction index
    /// on first sight, as chain positions would number them.
    pub(crate) fn dataset_of(transfers: &[NftTransfer]) -> Dataset {
        let mut dataset = Dataset::default();
        let mut txs: std::collections::HashMap<TxHash, u32> = std::collections::HashMap::new();
        for transfer in transfers {
            let next = txs.len() as u32;
            let tx = *txs.entry(transfer.tx_hash).or_insert(next);
            dataset.push_transfer(transfer, tx);
        }
        dataset
    }

    pub(crate) fn ids_of(dataset: &Dataset, seeds: &[&str]) -> Vec<AccountId> {
        seeds
            .iter()
            .map(|seed| dataset.interner.account_id(Address::derived(seed)).expect("interned"))
            .collect()
    }

    fn round_trip_world() -> (Dataset, NftGraph) {
        let nft = NftId::new(Address::derived("collection"), 1);
        let transfers = vec![
            transfer(nft, "minter", "washer-a", 0.0, 100),
            transfer(nft, "washer-a", "washer-b", 1.0, 200),
            transfer(nft, "washer-b", "washer-a", 1.0, 300),
            transfer(nft, "washer-a", "victim", 5.0, 400),
        ];
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let graph = NftGraph::from_columns(key, &dataset.columns);
        (dataset, graph)
    }

    #[test]
    fn graph_structure_and_suspicious_sets() {
        let (dataset, graph) = round_trip_world();
        assert_eq!(graph.graph.node_count(), 4);
        assert_eq!(graph.graph.edge_count(), 4);
        let suspicious = graph.suspicious_account_sets(&dataset.interner);
        assert_eq!(suspicious.len(), 1);
        let mut expected = ids_of(&dataset, &["washer-a", "washer-b"]);
        expected.sort_unstable_by_key(|&id| dataset.interner.address(id));
        assert_eq!(suspicious[0], expected);
    }

    #[test]
    fn edges_among_and_touching_differ() {
        let (dataset, graph) = round_trip_world();
        let component = ids_of(&dataset, &["washer-a", "washer-b"]);
        let among = graph.edges_among(&component);
        assert_eq!(among.len(), 2, "only the two internal round-trip trades");
        let touching = graph.edges_touching(&component);
        assert_eq!(touching.len(), 4, "plus the mint-in and the external sale");
        // Chronological order is preserved.
        assert!(touching.windows(2).all(|w| w[0].2.timestamp <= w[1].2.timestamp));
    }

    #[test]
    fn shape_classifies_as_round_trip() {
        let (dataset, graph) = round_trip_world();
        let mut component = ids_of(&dataset, &["washer-a", "washer-b"]);
        component.sort_unstable_by_key(|&id| dataset.interner.address(id));
        let shape = graph.shape_of(&component);
        let catalogue = graphlib::PatternCatalogue::paper();
        assert_eq!(catalogue.classify(2, &shape), Some(graphlib::PatternId(1)));
    }

    #[test]
    fn self_loop_is_suspicious() {
        let nft = NftId::new(Address::derived("c"), 7);
        let transfers = vec![
            transfer(nft, "minter", "selfish", 0.0, 100),
            transfer(nft, "selfish", "selfish", 2.0, 200),
        ];
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let graph = NftGraph::from_columns(key, &dataset.columns);
        let suspicious = graph.suspicious_account_sets(&dataset.interner);
        assert_eq!(suspicious, vec![ids_of(&dataset, &["selfish"])]);
        let shape = graph.shape_of(&suspicious[0]);
        assert_eq!(shape, vec![(0, 0)]);
    }

    #[test]
    fn incremental_application_matches_one_shot_build() {
        let nft = NftId::new(Address::derived("collection"), 1);
        let transfers = vec![
            transfer(nft, "minter", "washer-a", 0.0, 100),
            transfer(nft, "washer-a", "washer-b", 1.0, 200),
            transfer(nft, "washer-b", "washer-a", 1.0, 300),
            transfer(nft, "washer-a", "victim", 5.0, 400),
        ];
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let batch = NftGraph::from_columns(key, &dataset.columns);
        let rows = dataset.columns.rows_of(key);
        let mut incremental = NftGraph::new(key);
        incremental.apply_rows(&dataset.columns, &rows[..2]);
        incremental.apply_rows(&dataset.columns, &rows[2..]);
        assert_eq!(incremental.graph.node_count(), batch.graph.node_count());
        assert_eq!(incremental.graph.edge_count(), batch.graph.edge_count());
        assert_eq!(
            incremental.suspicious_account_sets(&dataset.interner),
            batch.suspicious_account_sets(&dataset.interner)
        );
        let component = ids_of(&dataset, &["washer-a", "washer-b"]);
        assert_eq!(incremental.edges_among(&component), batch.edges_among(&component));
    }

    #[test]
    fn clean_history_has_no_suspicious_sets() {
        let nft = NftId::new(Address::derived("c"), 9);
        let transfers = vec![
            transfer(nft, "minter", "a", 0.0, 100),
            transfer(nft, "a", "b", 1.0, 200),
            transfer(nft, "b", "c", 2.0, 300),
        ];
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let graph = NftGraph::from_columns(key, &dataset.columns);
        assert!(graph.suspicious_account_sets(&dataset.interner).is_empty());
    }
}
