//! Incremental dataset and graph maintenance: append-only layers over
//! `washtrade`'s [`Dataset`] and [`NftGraph`] that grow with each ingested
//! epoch instead of being rebuilt from scratch.
//!
//! Both layers are dense: dirty sets are sorted `Vec<NftKey>`s and the graph
//! table is a `Vec` indexed by [`NftKey`] — the stream never hashes an NFT
//! identity after ingest.

use ethsim::Chain;
use ids::NftKey;
use marketplace::MarketplaceDirectory;
use washtrade::dataset::Dataset;
use washtrade::parallel::Executor;
use washtrade::txgraph::NftGraph;

use crate::cursor::EpochSpan;

/// What one ingested epoch changed in the dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendDelta {
    /// NFTs that gained at least one transfer, in ascending key order.
    pub dirty: Vec<NftKey>,
    /// Raw ERC-721-shaped logs scanned in the epoch (before compliance).
    pub raw_events: usize,
    /// Compliant transfers appended.
    pub transfers: usize,
}

/// A [`Dataset`] grown epoch by epoch through the incremental
/// [`Dataset::apply_entries`] seam.
///
/// Feeding a chain's blocks through `apply_span` in any epoch partition
/// produces a dataset identical to a one-shot [`Dataset::build`] over the
/// same chain — columns, id assignment and compliance verdicts alike
/// (interning is append-only and first-seen order equals execution order).
#[derive(Debug, Clone, Default)]
pub struct IncrementalDataset {
    inner: Dataset,
}

impl IncrementalDataset {
    /// An empty dataset, no blocks ingested yet.
    pub fn new() -> Self {
        IncrementalDataset::default()
    }

    /// Scan the span's blocks for ERC-721 transfers and append them,
    /// returning what changed. Runs the same three-phase sharded ingest as
    /// the batch path ([`Dataset::ingest_blocks`]): the span's blocks are
    /// the shard boundaries, decoded in parallel over `executor`, reconciled
    /// in order and spliced — so an epoch's cost parallelizes exactly like a
    /// batch build's, and the resulting dataset stays bit-identical to it.
    pub fn apply_span(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        span: EpochSpan,
        executor: &Executor,
    ) -> AppendDelta {
        let raw_before = self.inner.raw_transfer_events;
        let (applied, _) =
            self.inner.ingest_blocks(chain, directory, span.first, span.last, executor);
        AppendDelta {
            dirty: applied.dirty,
            raw_events: self.inner.raw_transfer_events - raw_before,
            transfers: applied.appended,
        }
    }

    /// The dataset accumulated so far.
    pub fn dataset(&self) -> &Dataset {
        &self.inner
    }

    /// Consume the layer, yielding the accumulated dataset.
    pub fn into_dataset(self) -> Dataset {
        self.inner
    }
}

/// Per-NFT transaction graphs maintained in place, indexed by [`NftKey`]:
/// each sync appends only the column rows an NFT gained since its last sync,
/// via the incremental [`NftGraph::apply_rows`] seam.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGraphs {
    /// `graphs[key.index()]` is that NFT's graph. Keys are dense and
    /// assigned in first-transfer order, so the table grows at the tail.
    graphs: Vec<NftGraph>,
    /// How many of each NFT's column rows are already in its graph.
    applied: Vec<usize>,
}

impl IncrementalGraphs {
    /// No graphs yet.
    pub fn new() -> Self {
        IncrementalGraphs::default()
    }

    /// Bring the graphs of the `dirty` NFTs up to date with `dataset`,
    /// appending each NFT's unseen row suffix to its graph (creating the
    /// graph on first sight — dirty keys are dense, so the table extends by
    /// plain pushes).
    ///
    /// Sound because epoch ingestion only ever *appends* to a per-NFT row
    /// slice: the unseen suffix is exactly the new transfers, so the grown
    /// graph equals a from-scratch [`NftGraph::from_columns`] over the full
    /// history.
    pub fn sync(&mut self, dataset: &Dataset, dirty: &[NftKey]) {
        for &nft in dirty {
            while self.graphs.len() <= nft.index() {
                self.graphs.push(NftGraph::new(NftKey(self.graphs.len() as u32)));
                self.applied.push(0);
            }
            let rows = dataset.columns.rows_of(nft);
            let seen = &mut self.applied[nft.index()];
            if *seen >= rows.len() {
                continue;
            }
            self.graphs[nft.index()].apply_rows(&dataset.columns, &rows[*seen..]);
            *seen = rows.len();
        }
    }

    /// The graph of one NFT, if it has any transfers yet.
    pub fn get(&self, nft: NftKey) -> Option<&NftGraph> {
        self.graphs.get(nft.index())
    }

    /// The full [`NftKey`]-indexed graph table — the same shape batch
    /// [`NftGraph::from_dataset`] builds, for callers running batch-path
    /// code (e.g. the full-rescan reference report) over maintained graphs.
    pub fn table(&self) -> &[NftGraph] {
        &self.graphs
    }

    /// Number of NFTs with a graph.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether no NFT has a graph yet.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Address, BlockNumber, Timestamp, TxHash, Wei};
    use tokens::NftId;
    use washtrade::dataset::NftTransfer;

    fn transfer(nft: NftId, from: &str, to: &str, block: u64) -> NftTransfer {
        NftTransfer {
            nft,
            from: Address::derived(from),
            to: Address::derived(to),
            tx_hash: TxHash::hash_of(format!("{from}->{to}@{block}").as_bytes()),
            block: BlockNumber(block),
            timestamp: Timestamp::from_secs(block * 13),
            price: Wei::from_eth(1.0),
            marketplace: None,
        }
    }

    #[test]
    fn sync_appends_only_the_unseen_suffix() {
        let nft = NftId::new(Address::derived("c"), 1);
        let mut dataset = Dataset::default();
        let key = dataset.push_transfer(&transfer(nft, "a", "b", 1), 0);
        dataset.push_transfer(&transfer(nft, "b", "a", 2), 1);

        let mut graphs = IncrementalGraphs::new();
        graphs.sync(&dataset, &[key]);
        assert_eq!(graphs.get(key).unwrap().graph.edge_count(), 2);

        // Re-syncing without new transfers is a no-op.
        graphs.sync(&dataset, &[key]);
        assert_eq!(graphs.get(key).unwrap().graph.edge_count(), 2);

        // A new transfer arrives: only it is appended.
        dataset.push_transfer(&transfer(nft, "a", "c", 3), 2);
        graphs.sync(&dataset, &[key]);
        let grown = graphs.get(key).unwrap();
        assert_eq!(grown.graph.edge_count(), 3);

        // And the grown graph equals a from-scratch build.
        let batch = NftGraph::from_columns(key, &dataset.columns);
        assert_eq!(
            grown.suspicious_account_sets(&dataset.interner),
            batch.suspicious_account_sets(&dataset.interner)
        );
        assert_eq!(grown.graph.node_count(), batch.graph.node_count());
        assert_eq!(graphs.len(), 1);
        assert!(!graphs.is_empty());
    }
}
