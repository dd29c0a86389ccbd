//! The in-memory chain: account state, blocks, transaction execution and
//! indexing.
//!
//! [`Chain`] plays the role of the local Geth full node in the paper's
//! methodology: higher layers submit [`TxRequest`]s, the chain performs ETH
//! accounting, assigns hashes/blocks/timestamps, and maintains the indexes
//! that the `node` query API (the Web3 substitute) exposes.

use serde::{Deserialize, Serialize};

use crate::account::{Account, AccountKind};
use crate::block::Block;
use crate::fxhash::FxHashMap;
use crate::log::Log;
use crate::transaction::{Transaction, TxRequest};
use crate::types::{Address, BlockNumber, Timestamp, TxHash, Wei, B256};

/// Errors produced when mutating the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The sender (or an internal-transfer source) does not exist.
    UnknownAccount(Address),
    /// An account attempted to spend more ETH than it holds.
    InsufficientBalance {
        /// The overdrawn account.
        account: Address,
        /// What the transfer needed.
        needed: Wei,
        /// What the account held.
        available: Wei,
    },
    /// An account with this address already exists.
    AccountExists(Address),
    /// Attempted to seal a block with a timestamp earlier than the current one.
    NonMonotonicTimestamp {
        /// Timestamp of the currently open block.
        current: Timestamp,
        /// The (earlier) timestamp that was requested.
        requested: Timestamp,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            ChainError::InsufficientBalance { account, needed, available } => write!(
                f,
                "insufficient balance for {account}: needed {needed}, available {available}"
            ),
            ChainError::AccountExists(a) => write!(f, "account {a} already exists"),
            ChainError::NonMonotonicTimestamp { current, requested } => write!(
                f,
                "block timestamp must not decrease (current {current}, requested {requested})"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// A log together with its provenance (transaction, block, position).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Hash of the transaction that emitted the log.
    pub tx_hash: TxHash,
    /// Block of that transaction.
    pub block: BlockNumber,
    /// Timestamp of that block.
    pub timestamp: Timestamp,
    /// Index of the log within the transaction.
    pub log_index: usize,
    /// The log itself.
    pub log: crate::log::Log,
}

/// A filter over event logs, mirroring `eth_getLogs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogFilter {
    /// Only logs whose first topic equals this value.
    pub topic0: Option<B256>,
    /// Only logs emitted by this contract.
    pub address: Option<Address>,
    /// Only logs with exactly this many topics (the paper distinguishes
    /// ERC-721 from ERC-20 by topic count).
    pub topic_count: Option<usize>,
    /// Inclusive lower block bound.
    pub from_block: Option<BlockNumber>,
    /// Inclusive upper block bound.
    pub to_block: Option<BlockNumber>,
}

impl LogFilter {
    /// A filter matching every log.
    pub fn all() -> Self {
        LogFilter::default()
    }

    /// Restrict to a topic0 value (builder style).
    pub fn with_topic0(mut self, topic0: B256) -> Self {
        self.topic0 = Some(topic0);
        self
    }

    /// Restrict to an emitting contract (builder style).
    pub fn with_address(mut self, address: Address) -> Self {
        self.address = Some(address);
        self
    }

    /// Restrict to a topic count (builder style).
    pub fn with_topic_count(mut self, count: usize) -> Self {
        self.topic_count = Some(count);
        self
    }

    /// Restrict to a block range (builder style, inclusive bounds).
    pub fn with_block_range(mut self, from: BlockNumber, to: BlockNumber) -> Self {
        self.from_block = Some(from);
        self.to_block = Some(to);
        self
    }

    /// Whether a log emitted at `block` matches — the borrow-only form the
    /// visitor scan uses, so matching never requires a materialized
    /// [`LogEntry`].
    #[inline]
    fn matches_log(&self, block: BlockNumber, log: &Log) -> bool {
        // Cheapest discriminator first: the topic count is one integer
        // compare and rejects the bulk of non-matching logs (ERC-20
        // transfers share ERC-721's topic0 but not its topic count).
        if let Some(count) = self.topic_count {
            if log.topics.len() != count {
                return false;
            }
        }
        if let Some(topic0) = self.topic0 {
            if log.topics.first() != Some(&topic0) {
                return false;
            }
        }
        if let Some(address) = self.address {
            if log.address != address {
                return false;
            }
        }
        if let Some(from) = self.from_block {
            if block < from {
                return false;
            }
        }
        if let Some(to) = self.to_block {
            if block > to {
                return false;
            }
        }
        true
    }
}

/// A contiguous, inclusive range of blocks — what [`Chain::shard_blocks`]
/// hands to each parallel decode shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSpan {
    /// First block of the span.
    pub first: BlockNumber,
    /// Last block of the span (inclusive).
    pub last: BlockNumber,
}

/// Aggregate statistics about a chain, used in reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainStats {
    /// Number of accounts (EOA + contract).
    pub accounts: usize,
    /// Number of contract accounts.
    pub contracts: usize,
    /// Number of sealed blocks (excluding the open block).
    pub blocks: usize,
    /// Number of executed transactions.
    pub transactions: usize,
    /// Number of emitted logs.
    pub logs: usize,
    /// Total gas fees burned.
    pub gas_burned: Wei,
}

/// The in-memory blockchain.
///
/// Transactions are stored in one `Vec` in execution order — the layout the
/// log scans iterate directly — with a hash → position index on the side for
/// point lookups. Block numbers are non-decreasing along that `Vec`, so any
/// block range maps to a contiguous transaction slice found by binary search.
pub struct Chain {
    accounts: FxHashMap<Address, Account>,
    blocks: Vec<Block>,
    open_block: Block,
    /// All executed transactions, in execution order.
    transactions: Vec<Transaction>,
    /// Hash → position in `transactions`.
    tx_index: FxHashMap<TxHash, u32>,
    /// Positions (into `transactions`) of every transaction an address
    /// participates in — positions, not hashes, so the per-account scan
    /// never re-hashes.
    txs_by_account: FxHashMap<Address, Vec<u32>>,
    log_count: usize,
    gas_burned: Wei,
    hash_salt: u64,
}

impl Chain {
    /// Create a chain whose first (open) block has the given timestamp.
    pub fn new(genesis_timestamp: Timestamp) -> Self {
        Chain {
            accounts: FxHashMap::default(),
            blocks: Vec::new(),
            open_block: Block::new(BlockNumber::GENESIS, genesis_timestamp),
            transactions: Vec::new(),
            tx_index: FxHashMap::default(),
            txs_by_account: FxHashMap::default(),
            log_count: 0,
            gas_burned: Wei::ZERO,
            hash_salt: 0,
        }
    }

    // ------------------------------------------------------------------
    // Account management
    // ------------------------------------------------------------------

    /// Create a fresh EOA derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::AccountExists`] if the derived address collides
    /// with an existing account.
    pub fn create_eoa(&mut self, seed: &str) -> Result<Address, ChainError> {
        let address = Address::derived(seed);
        self.register_eoa(address)?;
        Ok(address)
    }

    /// Register an EOA at a specific address.
    pub fn register_eoa(&mut self, address: Address) -> Result<Address, ChainError> {
        if self.accounts.contains_key(&address) {
            return Err(ChainError::AccountExists(address));
        }
        self.accounts.insert(address, Account::new_eoa(address));
        Ok(address)
    }

    /// Deploy a contract account derived from `seed` holding `code`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::AccountExists`] on address collision.
    pub fn deploy_contract(&mut self, seed: &str, code: Vec<u8>) -> Result<Address, ChainError> {
        let address = Address::derived(&format!("contract:{seed}"));
        if self.accounts.contains_key(&address) {
            return Err(ChainError::AccountExists(address));
        }
        self.accounts.insert(address, Account::new_contract(address, code));
        Ok(address)
    }

    /// Credit `amount` to an account outside of any transaction (genesis
    /// allocation / faucet). Creates the account as an EOA if needed.
    pub fn fund(&mut self, address: Address, amount: Wei) {
        let account = self.accounts.entry(address).or_insert_with(|| Account::new_eoa(address));
        account.balance += amount;
    }

    /// Look up an account.
    pub fn account(&self, address: Address) -> Option<&Account> {
        self.accounts.get(&address)
    }

    /// Whether an account exists.
    pub fn has_account(&self, address: Address) -> bool {
        self.accounts.contains_key(&address)
    }

    /// Current ETH balance of an account (zero if unknown).
    pub fn balance(&self, address: Address) -> Wei {
        self.accounts.get(&address).map(|a| a.balance).unwrap_or(Wei::ZERO)
    }

    /// The deployed bytecode at an address, if any. Mirrors `eth_getCode`.
    pub fn code_at(&self, address: Address) -> Option<&[u8]> {
        self.accounts.get(&address).and_then(|a| a.code())
    }

    /// Whether the address holds bytecode (the refinement step's contract test).
    pub fn is_contract(&self, address: Address) -> bool {
        self.code_at(address).is_some()
    }

    /// Iterate over all accounts.
    pub fn accounts(&self) -> impl Iterator<Item = &Account> {
        self.accounts.values()
    }

    // ------------------------------------------------------------------
    // Block production
    // ------------------------------------------------------------------

    /// The timestamp of the currently open block.
    pub fn current_timestamp(&self) -> Timestamp {
        self.open_block.timestamp
    }

    /// The number of the currently open block.
    pub fn current_block_number(&self) -> BlockNumber {
        self.open_block.number
    }

    /// Seal the open block and start a new one at `timestamp`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::NonMonotonicTimestamp`] if `timestamp` is earlier
    /// than the open block's timestamp.
    pub fn seal_block(&mut self, timestamp: Timestamp) -> Result<BlockNumber, ChainError> {
        if timestamp < self.open_block.timestamp {
            return Err(ChainError::NonMonotonicTimestamp {
                current: self.open_block.timestamp,
                requested: timestamp,
            });
        }
        let next_number = self.open_block.number.next();
        let sealed = std::mem::replace(&mut self.open_block, Block::new(next_number, timestamp));
        let sealed_number = sealed.number;
        self.blocks.push(sealed);
        Ok(sealed_number)
    }

    /// Seal blocks until the open block's timestamp is at least `timestamp`.
    /// Convenience for workload generators that think in wall-clock time.
    pub fn advance_to(&mut self, timestamp: Timestamp) -> Result<(), ChainError> {
        if timestamp < self.open_block.timestamp {
            return Err(ChainError::NonMonotonicTimestamp {
                current: self.open_block.timestamp,
                requested: timestamp,
            });
        }
        if timestamp > self.open_block.timestamp {
            self.seal_block(timestamp)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transaction execution
    // ------------------------------------------------------------------

    /// Execute a transaction request in the currently open block.
    ///
    /// The sender pays `value + gas fee`; internal transfers are applied in
    /// order. Recipient accounts that do not exist yet are created as EOAs
    /// (as on the real chain, where sending ETH to a fresh address
    /// instantiates it).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownAccount`] if the sender does not exist and
    /// [`ChainError::InsufficientBalance`] if any debit exceeds the payer's
    /// balance. On error the chain state is unchanged.
    pub fn submit(&mut self, request: TxRequest) -> Result<TxHash, ChainError> {
        // Validate without mutating: simulate the balance changes first.
        let sender =
            self.accounts.get(&request.from).ok_or(ChainError::UnknownAccount(request.from))?;
        let fee = request.fee();
        let mut deltas: FxHashMap<Address, i128> = FxHashMap::default();
        *deltas.entry(request.from).or_insert(0) -= (request.value.raw() + fee.raw()) as i128;
        if let Some(to) = request.to {
            *deltas.entry(to).or_insert(0) += request.value.raw() as i128;
        }
        // Check the sender first for a precise error.
        let sender_needed = request.value + fee;
        if sender.balance < sender_needed {
            return Err(ChainError::InsufficientBalance {
                account: request.from,
                needed: sender_needed,
                available: sender.balance,
            });
        }
        // Apply internal transfers sequentially on top of the projection.
        for transfer in &request.internal_transfers {
            if !self.accounts.contains_key(&transfer.from) {
                return Err(ChainError::UnknownAccount(transfer.from));
            }
            let projected = self.balance(transfer.from).raw() as i128
                + deltas.get(&transfer.from).copied().unwrap_or(0);
            if projected < transfer.value.raw() as i128 {
                return Err(ChainError::InsufficientBalance {
                    account: transfer.from,
                    needed: transfer.value,
                    available: Wei(projected.max(0) as u128),
                });
            }
            *deltas.entry(transfer.from).or_insert(0) -= transfer.value.raw() as i128;
            *deltas.entry(transfer.to).or_insert(0) += transfer.value.raw() as i128;
        }

        // Commit: apply deltas, bump nonce, record the transaction.
        for (address, delta) in &deltas {
            let account =
                self.accounts.entry(*address).or_insert_with(|| Account::new_eoa(*address));
            let new_balance = account.balance.raw() as i128 + delta;
            debug_assert!(new_balance >= 0, "balance projection must be non-negative");
            account.balance = Wei(new_balance.max(0) as u128);
        }
        self.gas_burned += fee;
        let nonce = {
            let sender = self.accounts.get_mut(&request.from).expect("sender exists");
            let nonce = sender.nonce;
            sender.nonce += 1;
            nonce
        };

        self.hash_salt += 1;
        let mut hash_input = Vec::with_capacity(64);
        hash_input.extend_from_slice(request.from.as_bytes());
        hash_input.extend_from_slice(&nonce.to_be_bytes());
        hash_input.extend_from_slice(&self.hash_salt.to_be_bytes());
        let hash = TxHash::hash_of(&hash_input);

        let tx = Transaction {
            hash,
            block: self.open_block.number,
            timestamp: self.open_block.timestamp,
            from: request.from,
            to: request.to,
            value: request.value,
            gas_used: request.gas_used,
            gas_price: request.gas_price,
            input: request.input,
            logs: request.logs,
            internal_transfers: request.internal_transfers,
        };
        self.log_count += tx.logs.len();
        let position = u32::try_from(self.transactions.len()).expect("tx space fits u32");
        self.index_transaction(&tx, position);
        self.open_block.transactions.push(hash);
        self.tx_index.insert(hash, position);
        self.transactions.push(tx);
        Ok(hash)
    }

    fn index_transaction(&mut self, tx: &Transaction, position: u32) {
        let mut participants = vec![tx.from];
        if let Some(to) = tx.to {
            participants.push(to);
        }
        for transfer in &tx.internal_transfers {
            participants.push(transfer.from);
            participants.push(transfer.to);
        }
        for log in &tx.logs {
            if let Some(t) = log.decode_erc721_transfer() {
                participants.push(t.from);
                participants.push(t.to);
            } else if let Some(t) = log.decode_erc20_transfer() {
                participants.push(t.from);
                participants.push(t.to);
            }
        }
        participants.sort();
        participants.dedup();
        for address in participants {
            self.txs_by_account.entry(address).or_default().push(position);
        }
    }

    // ------------------------------------------------------------------
    // Queries (the node / Web3 substitute)
    // ------------------------------------------------------------------

    /// Fetch a transaction by hash.
    pub fn transaction(&self, hash: TxHash) -> Option<&Transaction> {
        self.tx_index.get(&hash).map(|&position| &self.transactions[position as usize])
    }

    /// The position of a transaction in execution order — a dense,
    /// append-only transaction index (the one [`Chain::for_each_log_in_blocks`]
    /// hands its visitor).
    pub fn transaction_position(&self, hash: TxHash) -> Option<u32> {
        self.tx_index.get(&hash).copied()
    }

    /// All transactions in execution order.
    pub fn transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.transactions.iter()
    }

    /// All transactions in which `address` participates (sender, recipient,
    /// internal-transfer party, or ERC-20/ERC-721 transfer party), in
    /// execution order.
    pub fn transactions_of(&self, address: Address) -> Vec<&Transaction> {
        self.txs_by_account
            .get(&address)
            .map(|positions| {
                positions.iter().map(|&position| &self.transactions[position as usize]).collect()
            })
            .unwrap_or_default()
    }

    /// A sealed block by number.
    pub fn block(&self, number: BlockNumber) -> Option<&Block> {
        self.blocks.get(number.0 as usize)
    }

    /// All sealed blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Scan logs matching `filter`, in execution order. Mirrors `eth_getLogs`.
    pub fn logs(&self, filter: &LogFilter) -> Vec<LogEntry> {
        let mut out = Vec::new();
        for tx in &self.transactions {
            collect_tx_logs(tx, filter, &mut out);
        }
        out
    }

    /// The contiguous slice of `transactions` whose blocks fall in
    /// `[from, to]`. Block numbers are non-decreasing in execution order, so
    /// the range is found by binary search — O(log txs), independent of the
    /// range size.
    fn txs_in_blocks(&self, from: BlockNumber, to: BlockNumber) -> &[Transaction] {
        &self.transactions[self.tx_range_in_blocks(from, to)]
    }

    /// The positions of [`Chain::txs_in_blocks`]'s slice.
    fn tx_range_in_blocks(&self, from: BlockNumber, to: BlockNumber) -> std::ops::Range<usize> {
        if from > to {
            return 0..0;
        }
        let start = self.transactions.partition_point(|tx| tx.block < from);
        let end = self.transactions.partition_point(|tx| tx.block <= to);
        start..end
    }

    /// Number of transactions executed in blocks `[from, to]` — the size
    /// hint a decode shard pre-allocates from.
    pub fn transaction_count_in_blocks(&self, from: BlockNumber, to: BlockNumber) -> usize {
        self.txs_in_blocks(from, to).len()
    }

    /// Scan logs of the blocks in `[from, to]` (inclusive; the open block
    /// included when it falls in range), in execution order.
    ///
    /// Equivalent to [`Chain::logs`] with a block-range filter, but touches
    /// only the requested blocks instead of the whole transaction history —
    /// the access path a block cursor tailing the chain epoch by epoch needs
    /// to keep per-epoch cost proportional to the epoch, not the chain.
    pub fn logs_in_blocks(
        &self,
        from: BlockNumber,
        to: BlockNumber,
        filter: &LogFilter,
    ) -> Vec<LogEntry> {
        let mut out = Vec::new();
        for tx in self.txs_in_blocks(from, to) {
            collect_tx_logs(tx, filter, &mut out);
        }
        out
    }

    /// Visit every log of the blocks in `[from, to]` that matches `filter`,
    /// in execution order, without materializing anything: the visitor gets
    /// the owning transaction's position in execution order (its dense
    /// index, see [`Chain::transaction_position`]), borrows the transaction
    /// itself (so per-transaction context — value, payment logs, recipient —
    /// is in hand with no hash lookup), the log's index within it, and the
    /// log.
    ///
    /// This is the non-allocating sibling of [`Chain::logs_in_blocks`] the
    /// ingest decode shards run on: a shard scans its blocks borrowing every
    /// log instead of cloning a `Vec<LogEntry>` of them.
    pub fn for_each_log_in_blocks<F>(
        &self,
        from: BlockNumber,
        to: BlockNumber,
        filter: &LogFilter,
        mut visit: F,
    ) where
        F: FnMut(u32, &Transaction, usize, &Log),
    {
        let range = self.tx_range_in_blocks(from, to);
        let first = range.start;
        for (offset, tx) in self.transactions[range].iter().enumerate() {
            let position = u32::try_from(first + offset).expect("tx space fits u32");
            for (log_index, log) in tx.logs.iter().enumerate() {
                if filter.matches_log(tx.block, log) {
                    visit(position, tx, log_index, log);
                }
            }
        }
    }

    /// Split the blocks of `[from, to]` into at most `parts` contiguous,
    /// non-overlapping spans that together cover the range exactly, balanced
    /// by transaction count (block boundaries are respected, so a busy block
    /// is never split). Returns a single span when the range holds too few
    /// transactions to split further.
    ///
    /// This is the shard planner for parallel ingest: each span is scanned
    /// independently via [`Chain::for_each_log_in_blocks`], and concatenating
    /// the spans' results in order reproduces the serial scan exactly.
    pub fn shard_blocks(&self, from: BlockNumber, to: BlockNumber, parts: usize) -> Vec<BlockSpan> {
        if from > to {
            return Vec::new();
        }
        let txs = self.txs_in_blocks(from, to);
        let parts = parts.max(1);
        if parts == 1 || txs.len() < 2 {
            return vec![BlockSpan { first: from, last: to }];
        }
        let mut spans = Vec::with_capacity(parts);
        let mut span_first = from;
        let mut consumed = 0usize;
        for part in 1..=parts {
            // Ideal cut: an even split of the transaction range…
            let target = (txs.len() * part).div_ceil(parts);
            if target <= consumed {
                continue;
            }
            // …snapped forward to the end of the block holding the cut, so
            // spans stay block-aligned.
            let boundary = txs[target - 1].block;
            let mut end = target;
            while end < txs.len() && txs[end].block == boundary {
                end += 1;
            }
            // Trailing transaction-free blocks belong to the final span.
            let span_last = if end == txs.len() { to } else { boundary };
            spans.push(BlockSpan { first: span_first, last: span_last });
            span_first = BlockNumber(span_last.0 + 1);
            consumed = end;
            if end == txs.len() {
                break;
            }
        }
        spans
    }

    /// Aggregate statistics for reporting.
    pub fn stats(&self) -> ChainStats {
        ChainStats {
            accounts: self.accounts.len(),
            contracts: self
                .accounts
                .values()
                .filter(|a| matches!(a.kind, AccountKind::Contract { .. }))
                .count(),
            blocks: self.blocks.len(),
            transactions: self.transactions.len(),
            logs: self.log_count,
            gas_burned: self.gas_burned,
        }
    }

    /// Sum of all account balances; with the gas burned, conserved against
    /// total funding (used by tests and debug assertions).
    pub fn total_balance(&self) -> Wei {
        self.accounts.values().map(|a| a.balance).sum()
    }
}

/// Materialize the matching logs of one transaction into `out` — the
/// allocating path behind [`Chain::logs`] / [`Chain::logs_in_blocks`].
fn collect_tx_logs(tx: &Transaction, filter: &LogFilter, out: &mut Vec<LogEntry>) {
    for (log_index, log) in tx.logs.iter().enumerate() {
        if filter.matches_log(tx.block, log) {
            out.push(LogEntry {
                tx_hash: tx.hash,
                block: tx.block,
                timestamp: tx.timestamp,
                log_index,
                log: log.clone(),
            });
        }
    }
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Chain")
            .field("accounts", &stats.accounts)
            .field("blocks", &stats.blocks)
            .field("transactions", &stats.transactions)
            .field("logs", &stats.logs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Log;

    fn setup() -> (Chain, Address, Address) {
        let mut chain = Chain::new(Timestamp::from_secs(1_600_000_000));
        let alice = chain.create_eoa("alice").unwrap();
        let bob = chain.create_eoa("bob").unwrap();
        chain.fund(alice, Wei::from_eth(10.0));
        (chain, alice, bob)
    }

    #[test]
    fn ether_transfer_updates_balances_and_burns_gas() {
        let (mut chain, alice, bob) = setup();
        let request = TxRequest::ether_transfer(alice, bob, Wei::from_eth(1.0), Wei::from_gwei(10));
        let fee = request.fee();
        chain.submit(request).unwrap();
        assert_eq!(chain.balance(bob), Wei::from_eth(1.0));
        assert_eq!(chain.balance(alice), Wei::from_eth(9.0) - fee);
        assert_eq!(chain.stats().gas_burned, fee);
        assert_eq!(
            chain.total_balance() + fee,
            Wei::from_eth(10.0),
            "value is conserved up to burned gas"
        );
    }

    #[test]
    fn insufficient_balance_is_rejected_without_state_change() {
        let (mut chain, alice, bob) = setup();
        let before = chain.balance(alice);
        let result = chain.submit(TxRequest::ether_transfer(
            alice,
            bob,
            Wei::from_eth(100.0),
            Wei::from_gwei(10),
        ));
        assert!(matches!(result, Err(ChainError::InsufficientBalance { .. })));
        assert_eq!(chain.balance(alice), before);
        assert_eq!(chain.balance(bob), Wei::ZERO);
        assert_eq!(chain.stats().transactions, 0);
    }

    #[test]
    fn unknown_sender_is_rejected() {
        let (mut chain, _, bob) = setup();
        let ghost = Address::derived("ghost");
        let result = chain.submit(TxRequest::ether_transfer(
            ghost,
            bob,
            Wei::from_eth(1.0),
            Wei::from_gwei(1),
        ));
        assert_eq!(result, Err(ChainError::UnknownAccount(ghost)));
    }

    #[test]
    fn internal_transfers_are_applied_and_validated() {
        let (mut chain, alice, bob) = setup();
        let marketplace = chain.deploy_contract("marketplace", vec![0x01]).unwrap();
        let treasury = chain.create_eoa("treasury").unwrap();
        // Alice sends 1 ETH to the marketplace, which forwards 0.975 to Bob
        // and 0.025 to the treasury.
        let request = TxRequest {
            from: alice,
            to: Some(marketplace),
            value: Wei::from_eth(1.0),
            gas_used: 150_000,
            gas_price: Wei::from_gwei(20),
            input: vec![],
            logs: vec![],
            internal_transfers: vec![
                crate::transaction::InternalTransfer {
                    from: marketplace,
                    to: bob,
                    value: Wei::from_eth(0.975),
                },
                crate::transaction::InternalTransfer {
                    from: marketplace,
                    to: treasury,
                    value: Wei::from_eth(0.025),
                },
            ],
        };
        chain.submit(request).unwrap();
        assert_eq!(chain.balance(bob), Wei::from_eth(0.975));
        assert_eq!(chain.balance(treasury), Wei::from_eth(0.025));
        assert_eq!(chain.balance(marketplace), Wei::ZERO);
    }

    #[test]
    fn overdrawn_internal_transfer_is_rejected_atomically() {
        let (mut chain, alice, bob) = setup();
        let marketplace = chain.deploy_contract("marketplace", vec![0x01]).unwrap();
        let request = TxRequest {
            from: alice,
            to: Some(marketplace),
            value: Wei::from_eth(1.0),
            gas_used: 150_000,
            gas_price: Wei::from_gwei(20),
            input: vec![],
            logs: vec![],
            // Forwards more than it received.
            internal_transfers: vec![crate::transaction::InternalTransfer {
                from: marketplace,
                to: bob,
                value: Wei::from_eth(2.0),
            }],
        };
        let before = chain.balance(alice);
        assert!(matches!(chain.submit(request), Err(ChainError::InsufficientBalance { .. })));
        assert_eq!(chain.balance(alice), before);
        assert_eq!(chain.stats().transactions, 0);
    }

    #[test]
    fn blocks_are_monotonic_and_transactions_carry_block_metadata() {
        let (mut chain, alice, bob) = setup();
        let t0 = chain.current_timestamp();
        chain
            .submit(TxRequest::ether_transfer(alice, bob, Wei::from_eth(0.1), Wei::from_gwei(1)))
            .unwrap();
        chain.seal_block(t0.plus_days(1)).unwrap();
        let hash = chain
            .submit(TxRequest::ether_transfer(alice, bob, Wei::from_eth(0.1), Wei::from_gwei(1)))
            .unwrap();
        let tx = chain.transaction(hash).unwrap();
        assert_eq!(tx.block, BlockNumber(1));
        assert_eq!(tx.timestamp, t0.plus_days(1));
        assert!(matches!(
            chain.seal_block(Timestamp::from_secs(0)),
            Err(ChainError::NonMonotonicTimestamp { .. })
        ));
        assert_eq!(chain.blocks().len(), 1);
        assert_eq!(chain.block(BlockNumber(0)).unwrap().len(), 1);
    }

    #[test]
    fn advance_to_is_idempotent_at_same_timestamp() {
        let (mut chain, _, _) = setup();
        let t = chain.current_timestamp();
        chain.advance_to(t).unwrap();
        assert_eq!(chain.blocks().len(), 0, "no block sealed for equal timestamp");
        chain.advance_to(t.plus_secs(60)).unwrap();
        assert_eq!(chain.blocks().len(), 1);
    }

    #[test]
    fn log_filter_by_topic_and_count() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        let weth = chain.deploy_contract("weth", vec![0xfe]).unwrap();
        let request = TxRequest {
            from: alice,
            to: Some(nft),
            value: Wei::ZERO,
            gas_used: 90_000,
            gas_price: Wei::from_gwei(10),
            input: vec![],
            logs: vec![
                Log::erc721_transfer(nft, alice, bob, 7),
                Log::erc20_transfer(weth, bob, alice, 1_000),
            ],
            internal_transfers: vec![],
        };
        chain.submit(request).unwrap();

        let all = chain.logs(&LogFilter::all());
        assert_eq!(all.len(), 2);

        let erc721 = chain
            .logs(&LogFilter::all().with_topic0(crate::log::transfer_topic()).with_topic_count(4));
        assert_eq!(erc721.len(), 1);
        assert_eq!(erc721[0].log.address, nft);

        let erc20 = chain
            .logs(&LogFilter::all().with_topic0(crate::log::transfer_topic()).with_topic_count(3));
        assert_eq!(erc20.len(), 1);
        assert_eq!(erc20[0].log.address, weth);

        let by_address = chain.logs(&LogFilter::all().with_address(weth));
        assert_eq!(by_address.len(), 1);
    }

    #[test]
    fn log_filter_by_block_range() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        for i in 0..3u64 {
            let request = TxRequest {
                from: alice,
                to: Some(nft),
                value: Wei::ZERO,
                gas_used: 90_000,
                gas_price: Wei::from_gwei(10),
                input: vec![],
                logs: vec![Log::erc721_transfer(nft, alice, bob, i)],
                internal_transfers: vec![],
            };
            chain.submit(request).unwrap();
            chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
        }
        let middle = chain.logs(&LogFilter::all().with_block_range(BlockNumber(1), BlockNumber(1)));
        assert_eq!(middle.len(), 1);
        assert_eq!(middle[0].log.decode_erc721_transfer().unwrap().token_id, 1);
    }

    #[test]
    fn logs_in_blocks_matches_filtered_full_scan() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        for i in 0..5u64 {
            let request = TxRequest {
                from: alice,
                to: Some(nft),
                value: Wei::ZERO,
                gas_used: 90_000,
                gas_price: Wei::from_gwei(10),
                input: vec![],
                logs: vec![Log::erc721_transfer(nft, alice, bob, i)],
                internal_transfers: vec![],
            };
            chain.submit(request).unwrap();
            // Leave the last transaction in the open block.
            if i < 4 {
                chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
            }
        }
        let filter = LogFilter::all();
        for (from, to) in [(0, 2), (1, 3), (0, 4), (4, 4), (3, 9)] {
            let fast = chain.logs_in_blocks(BlockNumber(from), BlockNumber(to), &filter);
            let slow =
                chain.logs(&filter.clone().with_block_range(BlockNumber(from), BlockNumber(to)));
            assert_eq!(fast, slow, "range {from}..={to}");
        }
        // The open block (number 4) is covered.
        assert_eq!(chain.logs_in_blocks(BlockNumber(4), BlockNumber(4), &filter).len(), 1);
        // An empty / inverted range yields nothing.
        assert!(chain.logs_in_blocks(BlockNumber(3), BlockNumber(2), &filter).is_empty());
        assert!(chain.logs_in_blocks(BlockNumber(9), BlockNumber(12), &filter).is_empty());
    }

    #[test]
    fn visitor_scan_matches_materializing_scan() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        let weth = chain.deploy_contract("weth", vec![0xfe]).unwrap();
        for i in 0..6u64 {
            let request = TxRequest {
                from: alice,
                to: Some(nft),
                value: Wei::ZERO,
                gas_used: 90_000,
                gas_price: Wei::from_gwei(10),
                input: vec![],
                logs: vec![
                    Log::erc721_transfer(nft, alice, bob, i),
                    Log::erc20_transfer(weth, bob, alice, 100 + i as u128),
                ],
                internal_transfers: vec![],
            };
            chain.submit(request).unwrap();
            if i % 2 == 0 {
                chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
            }
        }
        let filter = LogFilter::all().with_topic_count(4);
        for (from, to) in [(0, 0), (0, 3), (1, 2), (2, 9)] {
            let materialized = chain.logs_in_blocks(BlockNumber(from), BlockNumber(to), &filter);
            let mut visited = Vec::new();
            chain.for_each_log_in_blocks(
                BlockNumber(from),
                BlockNumber(to),
                &filter,
                |position, tx, log_index, log| {
                    assert_eq!(chain.transaction_position(tx.hash), Some(position));
                    visited.push(LogEntry {
                        tx_hash: tx.hash,
                        block: tx.block,
                        timestamp: tx.timestamp,
                        log_index,
                        log: log.clone(),
                    });
                },
            );
            assert_eq!(visited, materialized, "range {from}..={to}");
        }
    }

    #[test]
    fn shard_blocks_partition_the_range_and_reproduce_the_serial_scan() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        // Uneven blocks: block i holds i+1 transactions; the last two blocks
        // are empty.
        for block in 0..5u64 {
            for tx in 0..=block {
                let request = TxRequest {
                    from: alice,
                    to: Some(nft),
                    value: Wei::ZERO,
                    gas_used: 90_000,
                    gas_price: Wei::from_gwei(10),
                    input: vec![],
                    logs: vec![Log::erc721_transfer(nft, alice, bob, block * 10 + tx)],
                    internal_transfers: vec![],
                };
                chain.submit(request).unwrap();
            }
            chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
        }
        chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
        let tip = chain.current_block_number();
        let filter = LogFilter::all();
        let serial = chain.logs_in_blocks(BlockNumber(0), tip, &filter);
        for parts in [1, 2, 3, 4, 16] {
            let spans = chain.shard_blocks(BlockNumber(0), tip, parts);
            assert!(!spans.is_empty() && spans.len() <= parts);
            // Contiguous cover of [0, tip], in order.
            assert_eq!(spans.first().unwrap().first, BlockNumber(0));
            assert_eq!(spans.last().unwrap().last, tip);
            for window in spans.windows(2) {
                assert_eq!(window[1].first.0, window[0].last.0 + 1, "parts {parts}");
            }
            // Concatenating per-span scans reproduces the serial scan.
            let sharded: Vec<LogEntry> = spans
                .iter()
                .flat_map(|span| chain.logs_in_blocks(span.first, span.last, &filter))
                .collect();
            assert_eq!(sharded, serial, "parts {parts}");
        }
        assert!(chain.shard_blocks(BlockNumber(3), BlockNumber(2), 4).is_empty());
        // A transaction-free range still yields a covering span.
        assert_eq!(
            chain.shard_blocks(BlockNumber(5), tip, 4),
            vec![BlockSpan { first: BlockNumber(5), last: tip }]
        );
    }

    proptest::proptest! {
        #[test]
        fn shard_blocks_exactly_partition_and_balance_the_range(
            tx_counts in proptest::collection::vec(0usize..6, 1..9),
            parts in 1usize..10
        ) {
            let (mut chain, alice, bob) = setup();
            let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
            let mut token = 0u64;
            for &count in &tx_counts {
                for _ in 0..count {
                    let request = TxRequest {
                        from: alice,
                        to: Some(nft),
                        value: Wei::ZERO,
                        gas_used: 90_000,
                        gas_price: Wei::from_gwei(10),
                        input: vec![],
                        logs: vec![Log::erc721_transfer(nft, alice, bob, token)],
                        internal_transfers: vec![],
                    };
                    chain.submit(request).unwrap();
                    token += 1;
                }
                chain.seal_block(chain.current_timestamp().plus_secs(13)).unwrap();
            }
            let tip = chain.current_block_number();
            let spans = chain.shard_blocks(BlockNumber(0), tip, parts);

            // Exact partition: ordered, contiguous, no gap or overlap, and
            // the union covers [0, tip] precisely.
            proptest::prop_assert!(!spans.is_empty());
            proptest::prop_assert!(spans.len() <= parts);
            proptest::prop_assert_eq!(spans.first().unwrap().first, BlockNumber(0));
            proptest::prop_assert_eq!(spans.last().unwrap().last, tip);
            for window in spans.windows(2) {
                proptest::prop_assert!(window[0].last < window[1].first);
                proptest::prop_assert_eq!(window[0].last.0 + 1, window[1].first.0);
            }

            // Balance: once a split actually happens, every span's
            // transaction count stays within a factor 2 of the ideal even
            // chunk — where "ideal" accounts for the busiest block, since
            // blocks are never split across spans.
            if spans.len() > 1 {
                let total = chain.transaction_count_in_blocks(BlockNumber(0), tip);
                let busiest = tx_counts.iter().copied().max().unwrap_or(0);
                let ideal = total.div_ceil(parts).max(busiest).max(1);
                for span in &spans {
                    let span_txs = chain.transaction_count_in_blocks(span.first, span.last);
                    proptest::prop_assert!(
                        span_txs <= 2 * ideal,
                        "span {:?} holds {} txs, ideal {} (total {}, parts {})",
                        span, span_txs, ideal, total, parts
                    );
                }
            }
        }
    }

    #[test]
    fn transactions_of_indexes_all_participants() {
        let (mut chain, alice, bob) = setup();
        let nft = chain.deploy_contract("nft", vec![0xfe]).unwrap();
        let carol = chain.create_eoa("carol").unwrap();
        let request = TxRequest {
            from: alice,
            to: Some(nft),
            value: Wei::ZERO,
            gas_used: 90_000,
            gas_price: Wei::from_gwei(10),
            input: vec![],
            logs: vec![Log::erc721_transfer(nft, carol, bob, 7)],
            internal_transfers: vec![],
        };
        let hash = chain.submit(request).unwrap();
        for address in [alice, bob, carol, nft] {
            let txs = chain.transactions_of(address);
            assert_eq!(txs.len(), 1, "{address} should be indexed");
            assert_eq!(txs[0].hash, hash);
        }
        assert!(chain.transactions_of(Address::derived("stranger")).is_empty());
    }

    #[test]
    fn duplicate_account_creation_fails() {
        let (mut chain, _, _) = setup();
        assert!(matches!(chain.create_eoa("alice"), Err(ChainError::AccountExists(_))));
        assert!(matches!(
            chain.deploy_contract("nft", vec![1]).and(chain.deploy_contract("nft", vec![1])),
            Err(ChainError::AccountExists(_))
        ));
    }

    #[test]
    fn stats_reflect_activity() {
        let (mut chain, alice, bob) = setup();
        chain
            .submit(TxRequest::ether_transfer(alice, bob, Wei::from_eth(0.5), Wei::from_gwei(5)))
            .unwrap();
        let stats = chain.stats();
        assert_eq!(stats.transactions, 1);
        assert_eq!(stats.accounts, 2);
        assert_eq!(stats.contracts, 0);
        assert!(stats.gas_burned > Wei::ZERO);
    }
}
