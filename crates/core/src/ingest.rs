//! Three-phase parallel ingestion: the §III-A dataset build split into a
//! block-sharded **decode** phase, a serial **reconcile** phase, and a
//! parallel **splice** phase.
//!
//! Earlier revisions decoded shards in parallel but funnelled every transfer
//! through a serial probe-and-commit loop — interning and column appends were
//! the pipeline's last serial stage. This module parallelizes the commit too:
//!
//! ```text
//!   blocks [from, to]
//!   ───────────────► shard_blocks ───┬───────┬─────────┐
//!                                    ▼       ▼         ▼
//!   ┌── phase 1: decode (parallel, read-only) ──────────────────────────┐
//!   │ per shard: borrow logs via for_each_log_in_blocks, probe ERC-721  │
//!   │ compliance (pure code inspection; shared verdicts read-only, new  │
//!   │ verdicts collected per shard), resolve the payment once per tx,   │
//!   │ and intern speculatively against an Interner snapshot: known      │
//!   │ entities keep their ids, new ones get provisional slots           │
//!   │ `base + i` and a contender list → SpecRow batches                 │
//!   └───────────────────────────┬───────────────────────────────────────┘
//!                               ▼  (shards in block order)
//!   ┌── phase 2: reconcile (serial, cheap) ─────────────────────────────┐
//!   │ merge probe verdicts into the shared sets; intern each shard's    │
//!   │ contenders in shard × first-encounter order — idempotent, so the  │
//!   │ dense ids land exactly as a serial first-occurrence scan would —  │
//!   │ yielding one slot→id remap table per shard                        │
//!   └───────────────────────────┬───────────────────────────────────────┘
//!                               ▼
//!   ┌── phase 3: splice (parallel rewrite, ordered concat) ─────────────┐
//!   │ per shard: rewrite provisional slots through the remap into a     │
//!   │ ColumnSegment; then concatenate the segments into TransferColumns │
//!   │ in shard order — equivalent to push_transfer row by row           │
//!   └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Phase 2 is the only serial work left and it is proportional to the number
//! of *new* entities and contracts, not to the transfer count. Because the
//! shards partition the block range contiguously, compliance probes are pure
//! functions of contract code, and reconciliation walks shards in block
//! order, the verdict sets, interner tables and columns are bit-identical to
//! the serial scan at any thread count and epoch slicing (pinned by
//! `tests/parallel_ingest.rs` and the golden report). When the executor is
//! single-threaded or the range yields one shard, the legacy two-phase
//! serial commit runs instead — same result, none of the speculation
//! overhead — and that fallback is itself pinned against the parallel path.

use ethsim::fxhash::{FxHashMap, FxHashSet};
use ethsim::{Address, BlockNumber, BlockSpan, Chain, Timestamp, Transaction, TxHash, Wei};
use ids::{AccountId, InternerSnapshot, MarketId, NewEntities, NftKey, SpeculativeInterner};
use marketplace::MarketplaceDirectory;
use tokens::NftId;

use crate::columns::{ColumnSegment, TransferRow};
use crate::dataset::{AppliedEntries, Dataset, NftTransfer};
use crate::parallel::Executor;

/// The payment context of one transaction, resolved once and shared by every
/// ERC-721 log the transaction carries: the attached ETH value, the
/// marketplace attribution of the call target, and — only when no ETH was
/// attached — the decoded ERC-20 transfer list the per-buyer price sums
/// over.
pub(crate) struct TxPayment {
    /// The transaction this context belongs to.
    pub tx_hash: TxHash,
    /// The marketplace the transaction interacted with, if any.
    pub marketplace: Option<Address>,
    /// ETH attached to the transaction (the price when nonzero).
    value: Wei,
    /// `(payer, amount)` of each ERC-20 transfer log, decoded once; empty
    /// when `value` is nonzero (never consulted then).
    erc20: Vec<(Address, u128)>,
}

impl TxPayment {
    /// Resolve the payment context of `tx`.
    pub fn resolve(tx: &Transaction, directory: &MarketplaceDirectory) -> TxPayment {
        let erc20 = if tx.value.is_zero() {
            tx.logs
                .iter()
                .filter_map(|log| log.decode_erc20_transfer())
                .map(|transfer| (transfer.from, transfer.amount))
                .collect()
        } else {
            Vec::new()
        };
        TxPayment {
            tx_hash: tx.hash,
            marketplace: tx.to.filter(|to| directory.by_contract(*to).is_some()),
            value: tx.value,
            erc20,
        }
    }

    /// Amount paid by `buyer`: the ETH attached to the transaction, or —
    /// when the payment went through an ERC-20 token (e.g. WETH bids) — the
    /// sum the buyer sent in that token's transfer logs.
    pub fn price_paid_by(&self, buyer: Address) -> Wei {
        if !self.value.is_zero() {
            return self.value;
        }
        Wei::new(
            self.erc20.iter().filter(|(payer, _)| *payer == buyer).map(|(_, amount)| *amount).sum(),
        )
    }
}

/// What one decode shard produced, in execution order: the matching-log
/// count, every decoded transfer (compliance still undecided — verdicts are
/// a commit-phase concern), and the emitting contracts as first-seen runs.
/// This is the legacy (serial-commit) batch shape, kept for the
/// single-thread fallback.
struct ShardBatch {
    raw_events: usize,
    /// `(transaction index, transfer)` pairs.
    transfers: Vec<(u32, NftTransfer)>,
    /// Contracts of the shard's matching logs, memoized per consecutive run
    /// (so the list is short, but every contract that emitted a matching log
    /// appears at least once — decode failures included, which the verdict
    /// sets must cover just as the serial path's did).
    contracts: Vec<Address>,
}

/// One compliant transfer in speculative form: entity fields are slots from
/// a [`SpeculativeInterner`] — settled ids below the snapshot base,
/// provisional contender slots at or above it.
struct SpecRow {
    nft: u32,
    from: u32,
    to: u32,
    tx_hash: TxHash,
    tx: u32,
    block: BlockNumber,
    timestamp: Timestamp,
    price: Wei,
    marketplace: Option<u32>,
}

/// What one speculative decode shard produced: compliant rows with
/// provisional slots, the shard's new-entity contender lists, and the
/// compliance verdicts it probed for contracts undecided before this call.
struct SpecBatch {
    raw_events: usize,
    rows: Vec<SpecRow>,
    contenders: NewEntities,
    /// `(contract, compliant)` in first-seen order; probes are pure code
    /// inspection, so two shards probing the same contract agree.
    probed: Vec<(Address, bool)>,
}

/// One shard's slot→id tables from reconciliation: contender slot `base + i`
/// settles to entry `i`; slots below the base already are settled ids.
struct ShardRemap {
    account_base: u32,
    accounts: Vec<AccountId>,
    nft_base: u32,
    nfts: Vec<NftKey>,
    market_base: u32,
    markets: Vec<MarketId>,
}

impl ShardRemap {
    #[inline]
    fn settle_account(&self, slot: u32) -> AccountId {
        if slot < self.account_base {
            AccountId(slot)
        } else {
            self.accounts[(slot - self.account_base) as usize]
        }
    }

    #[inline]
    fn settle_nft(&self, slot: u32) -> NftKey {
        if slot < self.nft_base {
            NftKey(slot)
        } else {
            self.nfts[(slot - self.nft_base) as usize]
        }
    }

    #[inline]
    fn settle_market(&self, slot: u32) -> MarketId {
        if slot < self.market_base {
            MarketId(slot)
        } else {
            self.markets[(slot - self.market_base) as usize]
        }
    }
}

/// Per-phase instrumentation of one [`Dataset::ingest_blocks`]
/// call — the breakdown the ingest-throughput bench records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Wall time of the parallel decode fan-out, nanoseconds.
    pub decode_ns: u64,
    /// Wall time of the whole commit (reconcile + splice on the parallel
    /// path; the serial probe-and-commit on the fallback), nanoseconds.
    pub commit_ns: u64,
    /// Wall time of the commit's serial fraction, nanoseconds: the
    /// reconciliation pass on the parallel path, the entire commit on the
    /// single-shard fallback (where all of it is serial).
    pub reconcile_ns: u64,
    /// Decode shards the block range was split into.
    pub shards: usize,
    /// Threads the decode fan-out actually used.
    pub threads: usize,
    /// ERC-721-shaped logs scanned (before the compliance filter).
    pub raw_events: usize,
    /// Compliant transfers committed.
    pub appended: usize,
}

impl IngestMetrics {
    /// Total wall time across all phases, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.commit_ns
    }
}

impl Dataset {
    /// Ingest the ERC-721 transfers of blocks `[from, to]` through the
    /// three-phase pipeline: parallel block-sharded decode with speculative
    /// interning, serial reconcile, parallel splice (see the module docs for
    /// the shape). Returns what changed together with the per-phase timing
    /// the pipeline's stage metrics and the ingest-throughput bench read.
    ///
    /// Successive calls must cover disjoint, non-decreasing block ranges (as
    /// a block cursor produces them) — the same contract as
    /// [`Dataset::apply_entries`], to which this is bit-identical over the
    /// same blocks, at any thread count.
    pub fn ingest_blocks(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        from: BlockNumber,
        to: BlockNumber,
        executor: &Executor,
    ) -> (AppliedEntries, IngestMetrics) {
        let mut metrics = IngestMetrics::default();
        let spans = chain.shard_blocks(from, to, executor.threads());
        metrics.shards = spans.len();
        metrics.threads = executor.threads_for(spans.len());
        let entities_before = (
            self.interner.account_count(),
            self.interner.nft_count(),
            self.interner.market_count(),
        );
        let result = if metrics.threads <= 1 {
            self.ingest_serial_commit(chain, directory, &spans, executor, &mut metrics)
        } else {
            self.ingest_parallel_commit(chain, directory, &spans, executor, &mut metrics)
        };
        self.record_ingest_metrics(&result.1, entities_before);
        result
    }

    /// Publish one ingest call's phase timings and entity deltas into the
    /// process-wide metrics registry (`ingest.*` — see the README's metric
    /// catalog). Purely observational: nothing here feeds back into results.
    fn record_ingest_metrics(
        &self,
        metrics: &IngestMetrics,
        entities_before: (usize, usize, usize),
    ) {
        if !obs::recording() {
            return;
        }
        obs::counter!("ingest.calls");
        obs::counter!("ingest.raw_events", metrics.raw_events as u64);
        obs::counter!("ingest.transfers", metrics.appended as u64);
        obs::counter!("ingest.shards", metrics.shards as u64);
        obs::histogram!("ingest.decode_ns", metrics.decode_ns);
        obs::histogram!("ingest.reconcile_ns", metrics.reconcile_ns);
        obs::histogram!("ingest.splice_ns", metrics.commit_ns - metrics.reconcile_ns);
        let (accounts, nfts, markets) = entities_before;
        obs::counter!("ingest.new_accounts", (self.interner.account_count() - accounts) as u64);
        obs::counter!("ingest.new_nfts", (self.interner.nft_count() - nfts) as u64);
        obs::counter!("ingest.new_markets", (self.interner.market_count() - markets) as u64);
    }

    /// The legacy two-phase path: parallel decode into [`NftTransfer`]
    /// batches, then one serial probe-and-commit loop. Runs when the
    /// executor is single-threaded or the range yields a single shard —
    /// the speculative machinery would only add overhead there.
    fn ingest_serial_commit(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        spans: &[BlockSpan],
        executor: &Executor,
        metrics: &mut IngestMetrics,
    ) -> (AppliedEntries, IngestMetrics) {
        let started = std::time::Instant::now();
        let mut decode_trace = obs::trace::span("ingest.decode");
        decode_trace.attr("shards", spans.len() as u64);
        let non_compliant = &self.non_compliant_contracts;
        let batches =
            executor.map(spans, |span| decode_span(chain, directory, non_compliant, *span));
        decode_trace.finish();
        metrics.decode_ns = elapsed_ns(started);

        // Ordered probe-and-commit: shards are contiguous block ranges in
        // ascending order, so probing each shard's contracts and appending
        // its transfers in shard order reproduces the serial probe-and-push
        // sequence — and with it the verdict sets and the id assignment —
        // exactly.
        let started = std::time::Instant::now();
        // The serial path folds reconcile and splice into one commit loop;
        // trace it as the splice it replaces, flagged `serial`.
        let mut splice_trace = obs::trace::span("ingest.splice");
        splice_trace.attr("serial", 1);
        let mut applied = AppliedEntries::default();
        let total: usize = batches.iter().map(|batch| batch.transfers.len()).sum();
        self.columns.reserve(total);
        applied.dirty.reserve(total);
        // NFT logs cluster by contract, so one memoized verdict covers whole
        // runs of transfers without touching the sets.
        let mut verdict: Option<(Address, bool)> = None;
        for batch in &batches {
            self.raw_transfer_events += batch.raw_events;
            metrics.raw_events += batch.raw_events;
            // Shard balance: how evenly decode distributed the rows.
            obs::histogram!("ingest.shard_transfers", batch.transfers.len() as u64);
            // Compliance probe (§III-A) for contracts this shard saw first,
            // through the same single probe rule `apply_entries` uses.
            for &contract in &batch.contracts {
                self.probe_contract(chain, contract);
            }
            for (tx, transfer) in &batch.transfers {
                let contract = transfer.nft.contract;
                let compliant = match verdict {
                    Some((memoized, ok)) if memoized == contract => ok,
                    _ => {
                        let ok = self.compliant_contracts.contains(&contract);
                        verdict = Some((contract, ok));
                        ok
                    }
                };
                if !compliant {
                    continue;
                }
                applied.dirty.push(self.push_transfer(transfer, *tx));
                applied.appended += 1;
            }
        }
        applied.dirty.sort_unstable();
        applied.dirty.dedup();
        metrics.appended = applied.appended;
        splice_trace.attr("appended", applied.appended as u64);
        splice_trace.finish();
        metrics.commit_ns = elapsed_ns(started);
        metrics.reconcile_ns = metrics.commit_ns; // all of it is serial here
        (applied, *metrics)
    }

    /// The three-phase path: speculative decode, serial reconcile, parallel
    /// rewrite + ordered splice.
    fn ingest_parallel_commit(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        spans: &[BlockSpan],
        executor: &Executor,
        metrics: &mut IngestMetrics,
    ) -> (AppliedEntries, IngestMetrics) {
        // Phase 1 — speculative decode: wholly read-only against the
        // dataset. Shards see the verdicts and interned ids of every
        // previous ingest call; entities first seen in this range get
        // provisional slots above the snapshot base.
        let started = std::time::Instant::now();
        let mut decode_trace = obs::trace::span("ingest.decode");
        decode_trace.attr("shards", spans.len() as u64);
        let snapshot = self.interner.snapshot();
        let account_base = snapshot.account_base();
        let nft_base = snapshot.nft_base();
        let market_base = snapshot.market_base();
        let compliant = &self.compliant_contracts;
        let non_compliant = &self.non_compliant_contracts;
        let batches = executor.map(spans, |span| {
            decode_speculate(chain, directory, compliant, non_compliant, snapshot, *span)
        });
        decode_trace.finish();
        metrics.decode_ns = elapsed_ns(started);

        // Phase 2 — serial reconcile, proportional to *new* entities only.
        // Walking shards in block order and each shard's contenders in
        // first-encounter order reproduces the serial first-occurrence id
        // assignment: interning is idempotent, so a contender two shards
        // both discovered settles on the id the earlier shard claims.
        let started = std::time::Instant::now();
        let mut reconcile_trace = obs::trace::span("ingest.reconcile");
        reconcile_trace.attr("shards", batches.len() as u64);
        let mut remaps: Vec<ShardRemap> = Vec::with_capacity(batches.len());
        for batch in &batches {
            self.raw_transfer_events += batch.raw_events;
            metrics.raw_events += batch.raw_events;
            // Shard balance: how evenly decode distributed the rows.
            obs::histogram!("ingest.shard_transfers", batch.rows.len() as u64);
            // Probes are pure code inspection, so shard-local verdicts merge
            // by plain insert; re-inserting a contract another shard also
            // probed is a no-op, and the insertion order matches the serial
            // scan's first-occurrence order.
            for &(contract, ok) in &batch.probed {
                if ok {
                    self.compliant_contracts.insert(contract);
                } else {
                    self.non_compliant_contracts.insert(contract);
                }
            }
            remaps.push(ShardRemap {
                account_base,
                accounts: self.interner.reconcile_accounts(&batch.contenders.accounts),
                nft_base,
                nfts: self.interner.reconcile_nfts(&batch.contenders.nfts),
                market_base,
                markets: self.interner.reconcile_markets(&batch.contenders.markets),
            });
        }
        reconcile_trace.finish();
        metrics.reconcile_ns = elapsed_ns(started);

        // Phase 3 — parallel rewrite of provisional slots into settled ids
        // (one column segment per shard), then an ordered concat into the
        // store. Segment order is shard order, so the row sequence equals
        // the serial push sequence.
        let started = std::time::Instant::now();
        let mut splice_trace = obs::trace::span("ingest.splice");
        let work: Vec<(SpecBatch, ShardRemap)> = batches.into_iter().zip(remaps).collect();
        let mut segments = executor.map(&work, |(batch, remap)| {
            let mut segment = ColumnSegment::with_capacity(batch.rows.len());
            for row in &batch.rows {
                segment.push(TransferRow {
                    nft: remap.settle_nft(row.nft),
                    from: remap.settle_account(row.from),
                    to: remap.settle_account(row.to),
                    tx_hash: row.tx_hash,
                    tx: row.tx,
                    block: row.block,
                    timestamp: row.timestamp,
                    price: row.price,
                    marketplace: row.marketplace.map(|slot| remap.settle_market(slot)),
                });
            }
            segment
        });
        let mut applied = AppliedEntries::default();
        let total: usize = segments.iter().map(ColumnSegment::len).sum();
        self.columns.reserve(total);
        applied.dirty.reserve(total);
        for segment in &mut segments {
            applied.dirty.extend_from_slice(segment.nft_keys());
            applied.appended += segment.len();
            self.columns.splice(segment);
        }
        applied.dirty.sort_unstable();
        applied.dirty.dedup();
        metrics.appended = applied.appended;
        splice_trace.attr("appended", applied.appended as u64);
        splice_trace.finish();
        metrics.commit_ns = metrics.reconcile_ns + elapsed_ns(started);
        (applied, *metrics)
    }
}

/// Decode one shard for the serial-commit fallback: scan the span's matching
/// logs (borrowed, not cloned), resolve the payment once per transaction,
/// and emit every decoded transfer plus the contract run-list, all in
/// execution order. Purely read-only: `non_compliant` is the verdict cache
/// as of previous ingest calls, used to drop known-bad contracts before any
/// payment work; verdicts for contracts first seen here are decided at
/// commit.
fn decode_span(
    chain: &Chain,
    directory: &MarketplaceDirectory,
    non_compliant: &FxHashSet<Address>,
    span: BlockSpan,
) -> ShardBatch {
    let filter = Dataset::transfer_filter();
    let mut batch = ShardBatch {
        raw_events: 0,
        // Most matching logs decode into exactly one transfer and most
        // transactions carry at most one, so the span's transaction count is
        // a good upper-bound first allocation.
        transfers: Vec::with_capacity(chain.transaction_count_in_blocks(span.first, span.last)),
        contracts: Vec::new(),
    };
    // One memoized verdict covers whole runs of same-contract logs.
    let mut known_bad: Option<(Address, bool)> = None;
    let mut payment: Option<TxPayment> = None;
    chain.for_each_log_in_blocks(span.first, span.last, &filter, |position, tx, _index, log| {
        batch.raw_events += 1;
        if batch.contracts.last() != Some(&log.address) {
            batch.contracts.push(log.address);
        }
        let bad = match known_bad {
            Some((memoized, bad)) if memoized == log.address => bad,
            _ => {
                let bad = non_compliant.contains(&log.address);
                known_bad = Some((log.address, bad));
                bad
            }
        };
        if bad {
            return;
        }
        let Some(decoded) = log.decode_erc721_transfer() else {
            return;
        };
        // The visitor hands over the owning transaction, so the payment
        // context costs no hash lookup — just a once-per-transaction resolve.
        if payment.as_ref().map(|cached| cached.tx_hash) != Some(tx.hash) {
            payment = Some(TxPayment::resolve(tx, directory));
        }
        let payment = payment.as_ref().expect("payment context resolved above");
        batch.transfers.push((
            position,
            NftTransfer {
                nft: NftId::new(decoded.contract, decoded.token_id),
                from: decoded.from,
                to: decoded.to,
                tx_hash: tx.hash,
                block: tx.block,
                timestamp: tx.timestamp,
                price: payment.price_paid_by(decoded.to),
                marketplace: payment.marketplace,
            },
        ));
    });
    batch
}

/// Decode one shard speculatively: scan the span's matching logs, decide
/// compliance per contract (shared verdict sets read-only, fresh probes
/// collected — probes only inspect contract code, so they are safe to run
/// concurrently and always agree across shards), resolve the payment once
/// per transaction, and intern each compliant transfer's entities against
/// the snapshot in the exact field order `push_transfer` uses (nft, from,
/// to, marketplace) — which makes each shard's contender lists a faithful
/// prefix-free record of its first encounters.
fn decode_speculate(
    chain: &Chain,
    directory: &MarketplaceDirectory,
    compliant: &FxHashSet<Address>,
    non_compliant: &FxHashSet<Address>,
    snapshot: InternerSnapshot<'_>,
    span: BlockSpan,
) -> SpecBatch {
    let filter = Dataset::transfer_filter();
    let mut interner = SpeculativeInterner::new(snapshot);
    let mut rows: Vec<SpecRow> =
        Vec::with_capacity(chain.transaction_count_in_blocks(span.first, span.last));
    let mut raw_events = 0usize;
    let mut probed: Vec<(Address, bool)> = Vec::new();
    // Shard-local verdicts for contracts this shard probed (a contract can
    // recur across runs); the shared sets stay untouched until reconcile.
    let mut probed_cache: FxHashMap<Address, bool> = FxHashMap::default();
    // One memoized verdict covers whole runs of same-contract logs.
    let mut verdict: Option<(Address, bool)> = None;
    let mut payment: Option<TxPayment> = None;
    chain.for_each_log_in_blocks(span.first, span.last, &filter, |position, tx, _index, log| {
        raw_events += 1;
        let ok = match verdict {
            Some((memoized, ok)) if memoized == log.address => ok,
            _ => {
                let ok = if compliant.contains(&log.address) {
                    true
                } else if non_compliant.contains(&log.address) {
                    false
                } else if let Some(&cached) = probed_cache.get(&log.address) {
                    cached
                } else {
                    let supports = chain
                        .code_at(log.address)
                        .map(tokens::compliance::supports_erc721_interface)
                        .unwrap_or(false);
                    probed_cache.insert(log.address, supports);
                    probed.push((log.address, supports));
                    supports
                };
                verdict = Some((log.address, ok));
                ok
            }
        };
        if !ok {
            return;
        }
        let Some(decoded) = log.decode_erc721_transfer() else {
            return;
        };
        if payment.as_ref().map(|cached| cached.tx_hash) != Some(tx.hash) {
            payment = Some(TxPayment::resolve(tx, directory));
        }
        let payment = payment.as_ref().expect("payment context resolved above");
        // Field order mirrors `push_transfer`'s intern order (struct literal
        // fields evaluate in source order): nft, from, to, marketplace.
        rows.push(SpecRow {
            nft: interner.intern_nft(NftId::new(decoded.contract, decoded.token_id)),
            from: interner.intern_account(decoded.from),
            to: interner.intern_account(decoded.to),
            tx_hash: tx.hash,
            tx: position,
            block: tx.block,
            timestamp: tx.timestamp,
            price: payment.price_paid_by(decoded.to),
            marketplace: payment.marketplace.map(|market| interner.intern_market(market)),
        });
    });
    SpecBatch { raw_events, rows, contenders: interner.into_contenders(), probed }
}

fn elapsed_ns(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos().max(1)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{WorkloadConfig, World};

    #[test]
    fn sharded_ingest_matches_serial_build_at_every_thread_count() {
        let world = World::generate(WorkloadConfig::small(17)).expect("world");
        let serial = Dataset::build(&world.chain, &world.directory, &Executor::new(1));
        assert!(serial.transfer_count() > 0);
        assert!(!serial.non_compliant_contracts.is_empty(), "world plants rogue contracts");
        for threads in [2, 4, 8] {
            let parallel = Dataset::build(&world.chain, &world.directory, &Executor::new(threads));
            assert_eq!(parallel, serial, "threads = {threads}");
            assert_eq!(parallel.interner.accounts(), serial.interner.accounts());
        }
    }

    #[test]
    fn sharded_ingest_matches_apply_entries_over_the_same_blocks() {
        let world = World::generate(WorkloadConfig::small(23)).expect("world");
        let tip = world.chain.current_block_number();
        let executor = Executor::new(4);

        let mut sharded = Dataset::default();
        let mid = BlockNumber(tip.0 / 2);
        let (first, _) =
            sharded.ingest_blocks(&world.chain, &world.directory, BlockNumber(0), mid, &executor);
        let (second, _) = sharded.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(mid.0 + 1),
            tip,
            &executor,
        );

        let mut reference = Dataset::default();
        let entries_first =
            world.chain.logs_in_blocks(BlockNumber(0), mid, &Dataset::transfer_filter());
        let entries_second =
            world.chain.logs_in_blocks(BlockNumber(mid.0 + 1), tip, &Dataset::transfer_filter());
        let ref_first = reference.apply_entries(&world.chain, &world.directory, &entries_first);
        let ref_second = reference.apply_entries(&world.chain, &world.directory, &entries_second);

        assert_eq!(sharded, reference);
        assert_eq!(first, ref_first, "first epoch delta diverged");
        assert_eq!(second, ref_second, "second epoch delta diverged");
    }

    #[test]
    fn single_thread_fallback_matches_parallel_commit_byte_for_byte() {
        // The fallback (legacy serial commit) and the three-phase parallel
        // commit must be indistinguishable: columns, interner tables,
        // verdict sets and deltas alike.
        let world = World::generate(WorkloadConfig::small(29)).expect("world");
        let tip = world.chain.current_block_number();

        let mut fallback = Dataset::default();
        let (fallback_delta, _) = fallback.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            tip,
            &Executor::new(1),
        );
        let mut parallel = Dataset::default();
        let (parallel_delta, _) = parallel.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            tip,
            &Executor::new(8),
        );
        assert_eq!(fallback, parallel);
        assert_eq!(fallback_delta, parallel_delta);
        assert_eq!(fallback.interner.accounts(), parallel.interner.accounts());
        assert_eq!(fallback.interner.nfts(), parallel.interner.nfts());
    }

    #[test]
    fn instrumented_ingest_reports_phases_and_counts() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        let mut dataset = Dataset::default();
        let (applied, metrics) = dataset.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            world.chain.current_block_number(),
            &Executor::new(4),
        );
        assert_eq!(metrics.appended, applied.appended);
        assert_eq!(metrics.appended, dataset.transfer_count());
        assert_eq!(metrics.raw_events, dataset.raw_transfer_events);
        assert!(metrics.shards >= 1 && metrics.threads >= 1);
        assert!(metrics.decode_ns > 0 && metrics.commit_ns > 0);
        assert!(metrics.reconcile_ns <= metrics.commit_ns);
        assert_eq!(metrics.total_ns(), metrics.decode_ns + metrics.commit_ns);
    }

    #[test]
    fn fallback_reports_a_fully_serial_commit() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        let mut dataset = Dataset::default();
        let (_, metrics) = dataset.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            world.chain.current_block_number(),
            &Executor::new(1),
        );
        assert_eq!(metrics.threads, 1);
        assert_eq!(
            metrics.reconcile_ns, metrics.commit_ns,
            "single-thread commit is serial end to end"
        );
    }

    #[test]
    fn payment_context_reproduces_per_log_resolution() {
        let world = World::generate(WorkloadConfig::small(11)).expect("world");
        for tx in world.chain.transactions() {
            let payment = TxPayment::resolve(tx, &world.directory);
            for log in &tx.logs {
                let Some(decoded) = log.decode_erc721_transfer() else {
                    continue;
                };
                let expected = if !tx.value.is_zero() {
                    tx.value
                } else {
                    Wei::new(
                        tx.logs
                            .iter()
                            .filter_map(|l| l.decode_erc20_transfer())
                            .filter(|t| t.from == decoded.to)
                            .map(|t| t.amount)
                            .sum(),
                    )
                };
                assert_eq!(payment.price_paid_by(decoded.to), expected);
                assert_eq!(
                    payment.marketplace,
                    tx.to.filter(|to| world.directory.by_contract(*to).is_some())
                );
            }
        }
    }
}
