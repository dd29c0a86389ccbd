//! Columnar transfer storage: the canonical, struct-of-arrays home of every
//! compliant ERC-721 transfer.
//!
//! The address-keyed pipeline stored one `Vec<NftTransfer>` per NFT inside a
//! `HashMap<NftId, _>`, which meant a 28-byte hash per history touch and a
//! scattered allocation per NFT. [`TransferColumns`] replaces that with one
//! global append-only column per field — `from`/`to` as dense
//! [`AccountId`]s, `marketplace` as dense [`MarketId`]s — plus a CSR-style
//! per-NFT row index ([`TransferColumns::rows_of`]) that yields each NFT's
//! chronological history as a slice of row numbers.
//!
//! Rows are appended in chain execution order (the same order the streaming
//! block cursor produces), so per-NFT row lists are automatically sorted by
//! `(block, timestamp)` and the store needs no re-sorting as epochs arrive.
//! A physically contiguous per-NFT layout would require exactly that
//! re-sort on every epoch; the row index gives dense, branch-free history
//! iteration without it.
//!
//! Dense ids resolve back to addresses only at the report boundary, through
//! [`TransferColumns::resolve`], which materializes the compatibility view
//! type [`NftTransfer`](crate::dataset::NftTransfer).

use ethsim::{BlockNumber, Timestamp, TxHash, Wei};
use ids::{AccountId, Interner, MarketId, NftKey};
use serde::{Deserialize, Serialize};

use crate::dataset::NftTransfer;

/// One transfer in dense form: every entity field is an interned id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRow {
    /// The NFT being moved.
    pub nft: NftKey,
    /// Previous owner (the interned null address for mints).
    pub from: AccountId,
    /// New owner.
    pub to: AccountId,
    /// The transaction carrying the transfer log.
    pub tx_hash: TxHash,
    /// The same transaction as a dense index: its position in the chain's
    /// execution order. Every per-transaction dedup keys on this, not on the
    /// hash.
    pub tx: u32,
    /// Block of the transaction.
    pub block: BlockNumber,
    /// Timestamp of the transaction.
    pub timestamp: Timestamp,
    /// Amount paid for the NFT in this transaction.
    pub price: Wei,
    /// The marketplace the transaction interacted with, if any.
    pub marketplace: Option<MarketId>,
}

/// The struct-of-arrays transfer store. See the module docs for the layout.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferColumns {
    /// NFT of each row.
    pub nft: Vec<NftKey>,
    /// Seller (previous owner) of each row.
    pub from: Vec<AccountId>,
    /// Buyer (new owner) of each row.
    pub to: Vec<AccountId>,
    /// Transaction hash of each row.
    pub tx_hash: Vec<TxHash>,
    /// Dense transaction index (chain position) of each row. Rows append in
    /// execution order, so this column is non-decreasing and the rows of one
    /// transaction are contiguous.
    pub tx: Vec<u32>,
    /// Block number of each row.
    pub block: Vec<BlockNumber>,
    /// Timestamp of each row.
    pub timestamp: Vec<Timestamp>,
    /// Price paid in each row.
    pub price: Vec<Wei>,
    /// Marketplace attribution of each row.
    pub marketplace: Vec<Option<MarketId>>,
    /// CSR-style index: `rows_by_nft[key]` lists the store rows of that
    /// NFT's history, ascending (appends are chronological per NFT).
    rows_by_nft: Vec<Vec<u32>>,
}

impl TransferColumns {
    /// An empty store.
    pub fn new() -> Self {
        TransferColumns::default()
    }

    /// Number of transfers stored.
    pub fn len(&self) -> usize {
        self.nft.len()
    }

    /// Whether the store has no transfers.
    pub fn is_empty(&self) -> bool {
        self.nft.is_empty()
    }

    /// Reserve room for `additional` more transfers across every column —
    /// the commit phase calls this once per ingested batch, since the decode
    /// phase already knows exactly how many rows are coming.
    pub fn reserve(&mut self, additional: usize) {
        self.nft.reserve(additional);
        self.from.reserve(additional);
        self.to.reserve(additional);
        self.tx_hash.reserve(additional);
        self.tx.reserve(additional);
        self.block.reserve(additional);
        self.timestamp.reserve(additional);
        self.price.reserve(additional);
        self.marketplace.reserve(additional);
    }

    /// Append a transfer; returns its row number.
    pub fn push(&mut self, row: TransferRow) -> u32 {
        let index = u32::try_from(self.nft.len()).expect("row space fits u32");
        self.nft.push(row.nft);
        self.from.push(row.from);
        self.to.push(row.to);
        self.tx_hash.push(row.tx_hash);
        self.tx.push(row.tx);
        self.block.push(row.block);
        self.timestamp.push(row.timestamp);
        self.price.push(row.price);
        self.marketplace.push(row.marketplace);
        if self.rows_by_nft.len() <= row.nft.index() {
            self.rows_by_nft.resize_with(row.nft.index() + 1, Vec::new);
        }
        self.rows_by_nft[row.nft.index()].push(index);
        index
    }

    /// The chronological rows of one NFT's history (empty for keys beyond
    /// the store).
    pub fn rows_of(&self, key: NftKey) -> &[u32] {
        self.rows_by_nft.get(key.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of transfers of one NFT.
    pub fn transfer_count_of(&self, key: NftKey) -> usize {
        self.rows_of(key).len()
    }

    /// Gather one row back into a [`TransferRow`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: u32) -> TransferRow {
        let i = row as usize;
        TransferRow {
            nft: self.nft[i],
            from: self.from[i],
            to: self.to[i],
            tx_hash: self.tx_hash[i],
            tx: self.tx[i],
            block: self.block[i],
            timestamp: self.timestamp[i],
            price: self.price[i],
            marketplace: self.marketplace[i],
        }
    }

    /// Resolve one row into the address-keyed [`NftTransfer`] view — the
    /// report-boundary compatibility type.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or an id is foreign to `interner`.
    pub fn resolve(&self, row: u32, interner: &Interner) -> NftTransfer {
        let i = row as usize;
        NftTransfer {
            nft: interner.nft(self.nft[i]),
            from: interner.address(self.from[i]),
            to: interner.address(self.to[i]),
            tx_hash: self.tx_hash[i],
            block: self.block[i],
            timestamp: self.timestamp[i],
            price: self.price[i],
            marketplace: self.marketplace[i].map(|id| interner.market(id)),
        }
    }

    /// Concatenate a shard's column segment onto the tail of the store —
    /// exactly equivalent to pushing each of the segment's rows through
    /// [`TransferColumns::push`] in order, including the per-NFT row-index
    /// maintenance, but with one bulk `append` per column instead of a
    /// per-row fan-out. The segment is drained.
    pub fn splice(&mut self, segment: &mut ColumnSegment) {
        let base = self.nft.len();
        u32::try_from(base + segment.nft.len()).expect("row space fits u32");
        self.nft.append(&mut segment.nft);
        self.from.append(&mut segment.from);
        self.to.append(&mut segment.to);
        self.tx_hash.append(&mut segment.tx_hash);
        self.tx.append(&mut segment.tx);
        self.block.append(&mut segment.block);
        self.timestamp.append(&mut segment.timestamp);
        self.price.append(&mut segment.price);
        self.marketplace.append(&mut segment.marketplace);
        for (offset, &nft) in self.nft[base..].iter().enumerate() {
            if self.rows_by_nft.len() <= nft.index() {
                self.rows_by_nft.resize_with(nft.index() + 1, Vec::new);
            }
            self.rows_by_nft[nft.index()].push((base + offset) as u32);
        }
    }

    /// Approximate resident bytes of the columns and the row index (for the
    /// bytes-per-transfer accounting in the perf trajectory).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nft.capacity() * size_of::<NftKey>()
            + self.from.capacity() * size_of::<AccountId>()
            + self.to.capacity() * size_of::<AccountId>()
            + self.tx_hash.capacity() * size_of::<TxHash>()
            + self.tx.capacity() * size_of::<u32>()
            + self.block.capacity() * size_of::<BlockNumber>()
            + self.timestamp.capacity() * size_of::<Timestamp>()
            + self.price.capacity() * size_of::<Wei>()
            + self.marketplace.capacity() * size_of::<Option<MarketId>>()
            + self.rows_by_nft.iter().map(|rows| rows.capacity() * size_of::<u32>()).sum::<usize>()
            + self.rows_by_nft.capacity() * size_of::<Vec<u32>>()
    }
}

/// One shard's rewritten rows, in the same struct-of-arrays shape as
/// [`TransferColumns`] but with no row index: segments are built in parallel
/// (one per shard, ids already settled) and concatenated in shard order
/// through [`TransferColumns::splice`].
#[derive(Debug, Clone, Default)]
pub struct ColumnSegment {
    nft: Vec<NftKey>,
    from: Vec<AccountId>,
    to: Vec<AccountId>,
    tx_hash: Vec<TxHash>,
    tx: Vec<u32>,
    block: Vec<BlockNumber>,
    timestamp: Vec<Timestamp>,
    price: Vec<Wei>,
    marketplace: Vec<Option<MarketId>>,
}

impl ColumnSegment {
    /// An empty segment sized for `rows` transfers.
    pub fn with_capacity(rows: usize) -> Self {
        ColumnSegment {
            nft: Vec::with_capacity(rows),
            from: Vec::with_capacity(rows),
            to: Vec::with_capacity(rows),
            tx_hash: Vec::with_capacity(rows),
            tx: Vec::with_capacity(rows),
            block: Vec::with_capacity(rows),
            timestamp: Vec::with_capacity(rows),
            price: Vec::with_capacity(rows),
            marketplace: Vec::with_capacity(rows),
        }
    }

    /// Append one settled row.
    pub fn push(&mut self, row: TransferRow) {
        self.nft.push(row.nft);
        self.from.push(row.from);
        self.to.push(row.to);
        self.tx_hash.push(row.tx_hash);
        self.tx.push(row.tx);
        self.block.push(row.block);
        self.timestamp.push(row.timestamp);
        self.price.push(row.price);
        self.marketplace.push(row.marketplace);
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.nft.len()
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nft.is_empty()
    }

    /// The NFT keys of the segment's rows, in row order — the commit phase
    /// reads these to accumulate the dirty set before the segment is spliced.
    pub fn nft_keys(&self) -> &[NftKey] {
        &self.nft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::Address;
    use tokens::NftId;

    fn row(nft: u32, from: u32, to: u32, at: u64) -> TransferRow {
        TransferRow {
            nft: NftKey(nft),
            from: AccountId(from),
            to: AccountId(to),
            tx_hash: TxHash::hash_of(format!("{nft}-{from}-{to}-{at}").as_bytes()),
            tx: at as u32,
            block: BlockNumber(at),
            timestamp: Timestamp::from_secs(at * 13),
            price: Wei::from_eth(1.0),
            marketplace: if at.is_multiple_of(2) { Some(MarketId(0)) } else { None },
        }
    }

    #[test]
    fn pushes_index_rows_per_nft_in_order() {
        let mut columns = TransferColumns::new();
        columns.push(row(0, 0, 1, 1));
        columns.push(row(1, 1, 2, 2));
        columns.push(row(0, 1, 0, 3));
        assert_eq!(columns.len(), 3);
        assert_eq!(columns.rows_of(NftKey(0)), &[0, 2]);
        assert_eq!(columns.rows_of(NftKey(1)), &[1]);
        assert_eq!(columns.rows_of(NftKey(9)), &[] as &[u32]);
        assert_eq!(columns.transfer_count_of(NftKey(0)), 2);
        let back = columns.row(2);
        assert_eq!((back.nft, back.from, back.to), (NftKey(0), AccountId(1), AccountId(0)));
        assert!(columns.resident_bytes() > 0);
    }

    #[test]
    fn splice_matches_per_row_pushes() {
        let rows: Vec<TransferRow> =
            (0u32..9).map(|i| row(i % 3, i, i + 1, u64::from(i) + 1)).collect();
        let mut pushed = TransferColumns::new();
        for transfer in &rows {
            pushed.push(*transfer);
        }
        let mut spliced = TransferColumns::new();
        let mut first = ColumnSegment::with_capacity(4);
        for transfer in &rows[..4] {
            first.push(*transfer);
        }
        let mut second = ColumnSegment::with_capacity(5);
        for transfer in &rows[4..] {
            second.push(*transfer);
        }
        assert_eq!(first.len(), 4);
        assert!(!first.is_empty());
        assert_eq!(first.nft_keys().len(), 4);
        spliced.splice(&mut first);
        spliced.splice(&mut second);
        assert!(second.is_empty(), "splice drains the segment");
        assert_eq!(spliced, pushed, "splice reproduces push semantics bit for bit");
        assert_eq!(spliced.rows_of(NftKey(0)), pushed.rows_of(NftKey(0)));
    }

    #[test]
    fn resolve_round_trips_through_the_interner() {
        let mut interner = Interner::new();
        let nft = NftId::new(Address::derived("collection"), 4);
        let key = interner.intern_nft(nft);
        let from = interner.intern_account(Address::derived("a"));
        let to = interner.intern_account(Address::derived("b"));
        let market = interner.intern_market(Address::derived("opensea"));
        let mut columns = TransferColumns::new();
        let index = columns.push(TransferRow {
            nft: key,
            from,
            to,
            tx_hash: TxHash::hash_of(b"t"),
            tx: 0,
            block: BlockNumber(7),
            timestamp: Timestamp::from_secs(91),
            price: Wei::from_eth(2.0),
            marketplace: Some(market),
        });
        let view = columns.resolve(index, &interner);
        assert_eq!(view.nft, nft);
        assert_eq!(view.from, Address::derived("a"));
        assert_eq!(view.to, Address::derived("b"));
        assert_eq!(view.marketplace, Some(Address::derived("opensea")));
        assert_eq!(view.price, Wei::from_eth(2.0));
    }
}
