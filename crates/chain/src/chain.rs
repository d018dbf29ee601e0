//! The blockchain node: block production, execution, validation and
//! event-log queries.
//!
//! [`Blockchain`] composes the [`TxPool`], the [`Clique`] engine and the
//! registered [`Contract`]s into the private chain the UnifyFL orchestrator
//! runs on. The simulation driver advances virtual time and calls
//! [`Blockchain::seal_next`] at each block period, exactly like a Geth
//! sealer thread would.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unifyfl_sim::SimTime;

use crate::clique::{Clique, CliqueConfig, SealError, PERIOD};
use crate::contract::{CallContext, Contract, ContractError};
use crate::hash::{sha256, H256};
use crate::merkle::merkle_root;
use crate::txpool::TxPool;
use crate::types::{Address, Block, BlockHeader, Log, Receipt, Transaction};

/// Error raised by block production or import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block period has not elapsed since the parent block.
    PeriodNotElapsed {
        /// Earliest timestamp at which the next block may be sealed.
        earliest: SimTime,
    },
    /// The seal violates a Clique rule.
    Seal(SealError),
    /// No authorized signer is currently allowed to seal (all recent).
    NoEligibleSigner,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::PeriodNotElapsed { earliest } => {
                write!(f, "block period not elapsed; earliest seal at {earliest}")
            }
            ChainError::Seal(e) => write!(f, "invalid seal: {e}"),
            ChainError::NoEligibleSigner => write!(f, "no eligible signer available"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<SealError> for ChainError {
    fn from(e: SealError) -> Self {
        ChainError::Seal(e)
    }
}

/// Seeded fault injector for the consensus/gossip layer: missed seal slots
/// (the due signer fails to produce, shifting the schedule one period) and
/// dropped transactions (lost in gossip before reaching the pool; the
/// sender must retransmit). Installed via [`Blockchain::install_faults`];
/// quiescent otherwise.
#[derive(Debug)]
pub struct ChainFaults {
    rng: StdRng,
    /// Probability a due seal slot is missed (private: the constructor's
    /// strictly-below-1 clamp must hold for the injector's lifetime).
    missed_seal_prob: f64,
    /// Probability an unreliable submission is dropped in gossip.
    dropped_tx_prob: f64,
    stats: ChainFaultStats,
}

/// Cumulative accounting of injected chain faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainFaultStats {
    /// Seal slots skipped by injection.
    pub missed_seals: u64,
    /// Transactions dropped before reaching the pool.
    pub dropped_txs: u64,
}

impl ChainFaults {
    /// Creates an injector drawing from `seed`. `missed_seal_prob` is
    /// clamped strictly below 1: a certain miss on every slot would halt
    /// block production outright (and hang drivers that seal until a slot
    /// succeeds), which is a dead chain, not a fault model.
    pub fn new(seed: u64, missed_seal_prob: f64, dropped_tx_prob: f64) -> Self {
        ChainFaults {
            rng: StdRng::seed_from_u64(seed),
            missed_seal_prob: missed_seal_prob.min(0.999),
            dropped_tx_prob,
            stats: ChainFaultStats::default(),
        }
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen::<f64>() < prob
    }
}

/// What one step of the seal-slot schedule did
/// ([`Blockchain::seal_due_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// The due slot sealed a block at its slot timestamp.
    Sealed(SimTime),
    /// The due slot was injected to be missed; production shifted one
    /// period later.
    Missed,
    /// No slot is due at the given instant — the drain is complete.
    NotDue,
}

/// A private Clique-PoA blockchain with native contract execution.
///
/// ```
/// use unifyfl_chain::chain::Blockchain;
/// use unifyfl_chain::clique::CliqueConfig;
/// use unifyfl_chain::types::Address;
/// use unifyfl_sim::SimTime;
///
/// let signers = vec![Address::from_label("org-a"), Address::from_label("org-b")];
/// let mut chain = Blockchain::new(CliqueConfig::default(), signers);
/// let block = chain.seal_next(SimTime::from_secs(5)).unwrap();
/// assert_eq!(block.number(), 1);
/// ```
pub struct Blockchain {
    clique: Clique,
    blocks: Vec<Block>,
    receipts: Vec<Vec<Receipt>>,
    /// In address order, as the state root reads them.
    nonces: BTreeMap<Address, u64>,
    /// In first-deploy order, as the state root reads them.
    contracts: Vec<(Address, Box<dyn Contract>)>,
    pool: TxPool,
    /// Optional fault injector (missed seals, dropped transactions).
    faults: Option<ChainFaults>,
    /// Seal slots missed since the last successful seal; each pushes
    /// [`Blockchain::next_seal_time`] one period later.
    missed_slots: u64,
}

impl Blockchain {
    /// Creates a chain with a genesis block sealed by convention at t=0,
    /// `signers` its fixed Clique signer set. `CliqueConfig` carries no
    /// parameter today.
    pub fn new(_config: CliqueConfig, signers: Vec<Address>) -> Self {
        let clique = Clique::new(signers);
        let genesis = Block {
            header: BlockHeader {
                parent_hash: H256::ZERO,
                number: 0,
                timestamp: SimTime::ZERO,
                tx_root: merkle_root(std::iter::empty::<&[u8]>()),
                state_root: H256::ZERO,
                signer: Address::ZERO,
                difficulty: 0,
                gas_used: 0,
            },
            transactions: Vec::new(),
        };
        Blockchain {
            clique,
            blocks: vec![genesis],
            receipts: vec![Vec::new()],
            nonces: BTreeMap::new(),
            contracts: Vec::new(),
            pool: TxPool::new(),
            faults: None,
            missed_slots: 0,
        }
    }

    /// Installs (or replaces) the chain's fault injector.
    pub fn install_faults(&mut self, faults: ChainFaults) {
        self.faults = Some(faults);
    }

    /// Snapshot of the injected-fault accounting (`None` when no injector
    /// is installed).
    pub fn fault_stats(&self) -> Option<ChainFaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Consults the fault injector for the currently due seal slot. When the
    /// slot is injected to be missed, the production schedule shifts one
    /// period later and `true` is returned: the driver must *not* seal this
    /// slot. Without an injector this is always `false`.
    pub fn slot_misses_seal(&mut self) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        let p = f.missed_seal_prob;
        if f.roll(p) {
            f.stats.missed_seals += 1;
            self.missed_slots += 1;
            true
        } else {
            false
        }
    }

    /// One step of the periodic seal-slot schedule, the primitive the
    /// orchestration kernel's chain-driving calls (and its end-of-run
    /// `SealSlot` drain) iterate: if the next slot is due at or before
    /// `now`, attempt it. An injected miss shifts the schedule one period
    /// and reports [`SlotOutcome::Missed`]; otherwise the block seals at
    /// the slot's own timestamp. [`SlotOutcome::NotDue`] ends the drain.
    ///
    /// # Errors
    ///
    /// As [`Blockchain::seal_next`] (a due slot with no eligible signer).
    pub fn seal_due_slot(&mut self, now: SimTime) -> Result<SlotOutcome, ChainError> {
        if self.next_seal_time() > now {
            return Ok(SlotOutcome::NotDue);
        }
        if self.slot_misses_seal() {
            return Ok(SlotOutcome::Missed);
        }
        let ts = self.next_seal_time();
        self.seal_next(ts)?;
        Ok(SlotOutcome::Sealed(ts))
    }

    /// Deploys a contract at `address`. Replaces any existing deployment
    /// (private-network operator semantics).
    pub fn deploy(&mut self, address: Address, contract: Box<dyn Contract>) {
        match self.contracts.iter_mut().find(|(a, _)| *a == address) {
            Some((_, slot)) => *slot = contract,
            None => self.contracts.push((address, contract)),
        }
    }

    /// Read-only (view) access to a deployed contract's concrete state.
    pub fn view<T: 'static>(&self, address: Address) -> Option<&T> {
        let (_, contract) = self.contracts.iter().find(|(a, _)| *a == address)?;
        contract.as_any().downcast_ref::<T>()
    }

    /// Submits a transaction to the pool (it executes at the next seal).
    pub fn submit(&mut self, tx: Transaction) {
        self.pool.add(tx);
    }

    /// Submits a transaction over the (faultable) gossip layer. Returns
    /// `false` if the injector dropped it — the tx never reached the pool
    /// and the sender must retransmit it (same nonce). Identical to
    /// [`Blockchain::submit`] when no injector is installed.
    pub fn submit_unreliable(&mut self, tx: Transaction) -> bool {
        if let Some(f) = self.faults.as_mut() {
            let p = f.dropped_tx_prob;
            if f.roll(p) {
                f.stats.dropped_txs += 1;
                return false;
            }
        }
        self.pool.add(tx);
        true
    }

    /// Next expected nonce for `account` (count of its executed txs).
    pub fn account_nonce(&self, account: Address) -> u64 {
        self.nonces.get(&account).copied().unwrap_or(0)
    }

    /// The latest sealed block.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Current chain height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.head().number()
    }

    /// Block at `number`, if sealed.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.get(number as usize)
    }

    /// Receipts for block `number`.
    pub fn receipts(&self, number: u64) -> Option<&[Receipt]> {
        self.receipts.get(number as usize).map(Vec::as_slice)
    }

    /// The consensus engine (signer set inspection).
    pub fn clique(&self) -> &Clique {
        &self.clique
    }

    /// Transactions waiting in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Earliest virtual instant at which the next block may be sealed
    /// (each injected missed slot pushes it one period later).
    pub fn next_seal_time(&self) -> SimTime {
        self.head().header.timestamp + PERIOD * (1 + self.missed_slots)
    }

    /// Seals the next block at `now` using the in-turn signer if eligible,
    /// otherwise the first eligible out-of-turn signer.
    ///
    /// # Errors
    ///
    /// [`ChainError::PeriodNotElapsed`] if called before the block period
    /// has passed, [`ChainError::NoEligibleSigner`] if every signer is
    /// locked out by the recently-signed rule.
    pub fn seal_next(&mut self, now: SimTime) -> Result<Block, ChainError> {
        let number = self.height() + 1;
        let in_turn = self.clique.in_turn_signer(number);
        let mut candidates = vec![in_turn];
        candidates.extend(
            self.clique
                .signers()
                .iter()
                .copied()
                .filter(|s| *s != in_turn),
        );
        let signer = candidates
            .into_iter()
            .find(|s| {
                self.clique
                    .verify_seal(number, *s, self.clique.difficulty_for(number, *s))
                    .is_ok()
            })
            .ok_or(ChainError::NoEligibleSigner)?;
        self.seal_block(signer, now)
    }

    /// Seals a block at `now` with an explicit `signer`, executing every
    /// currently executable pooled transaction.
    ///
    /// # Errors
    ///
    /// See [`Blockchain::seal_next`]; additionally [`ChainError::Seal`] if
    /// `signer` is not permitted to seal this block.
    pub fn seal_block(&mut self, signer: Address, now: SimTime) -> Result<Block, ChainError> {
        let earliest = self.next_seal_time();
        if now < earliest {
            return Err(ChainError::PeriodNotElapsed { earliest });
        }
        let number = self.height() + 1;
        let difficulty = self.clique.difficulty_for(number, signer);
        // Validate the seal before executing anything.
        self.clique.verify_seal(number, signer, difficulty)?;

        let parent_hash = self.head().hash();
        let nonces = &self.nonces;
        let txs = self
            .pool
            .take_executable(&|a| nonces.get(&a).copied().unwrap_or(0));
        // Each transaction is encoded once: the encoding's hash goes in the
        // receipt, the encoding itself is the Merkle leaf.
        let encoded: Vec<Vec<u8>> = txs.iter().map(Transaction::encode).collect();

        let mut receipts = Vec::with_capacity(txs.len());
        let mut gas_used_total = 0u64;

        for (index, tx) in txs.iter().enumerate() {
            let ctx = CallContext {
                sender: tx.from,
                block_number: number,
                timestamp: now,
                entropy: parent_hash.to_u64() ^ ((index as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            };
            let result = match self.contracts.iter_mut().find(|(a, _)| *a == tx.to) {
                Some((_, contract)) => contract.execute(&ctx, &tx.input),
                None => Err(ContractError::NoContract(tx.to)),
            };
            // Nonce advances whether or not the call reverted (Ethereum
            // semantics: a reverted tx still consumes the nonce).
            *self.nonces.entry(tx.from).or_insert(0) += 1;

            let (success, error, logs, exec_gas) = match result {
                Ok(outcome) => (true, None, outcome.logs, outcome.gas_used),
                Err(e) => (false, Some(e.to_string()), Vec::new(), 0),
            };
            let gas_used = tx.intrinsic_gas() + exec_gas;
            gas_used_total += gas_used;
            receipts.push(Receipt {
                tx_hash: sha256(&encoded[index]),
                block_number: number,
                tx_index: index as u32,
                success,
                gas_used,
                error,
                logs,
            });
        }

        let header = BlockHeader {
            parent_hash,
            number,
            timestamp: now,
            tx_root: merkle_root(encoded.iter().map(Vec::as_slice)),
            state_root: self.state_root(),
            signer,
            difficulty,
            gas_used: gas_used_total,
        };
        let block = Block {
            header,
            transactions: txs,
        };

        self.clique
            .apply_seal(number, signer, difficulty)
            .expect("seal verified above");
        self.receipts.push(receipts);
        self.blocks.push(block.clone());
        self.missed_slots = 0;
        Ok(block)
    }

    /// Digest over account nonces and contract states — committed in every
    /// header so divergent replicas are detectable.
    fn state_root(&self) -> H256 {
        let mut buf = Vec::new();
        for (addr, nonce) in &self.nonces {
            buf.extend_from_slice(&addr.0);
            buf.extend_from_slice(&nonce.to_be_bytes());
        }
        for (addr, c) in &self.contracts {
            buf.extend_from_slice(&addr.0);
            buf.extend_from_slice(c.state_digest().as_bytes());
        }
        sha256(&buf)
    }

    /// Logs emitted in blocks `from_block..=head`, optionally filtered to an
    /// event name (topic 0), in block, transaction, log order — read from
    /// the receipts, which hold the chain's one copy of every log.
    pub fn logs_since(&self, from_block: u64, event: Option<&str>) -> Vec<(u64, Log)> {
        let sig = event.map(crate::types::event_signature);
        let receipts = self.receipts.iter().skip(from_block as usize).flatten();
        receipts
            .flat_map(|r| r.logs.iter().map(move |log| (r.block_number, log)))
            .filter(|(_, log)| sig.is_none() || log.topics.first() == sig.as_ref())
            .map(|(n, log)| (n, log.clone()))
            .collect()
    }

    /// Verifies the full chain: linkage, seal validity replayed through a
    /// fresh engine, and tx roots. Returns the first offending height.
    pub fn verify(&self) -> Result<(), u64> {
        // The signer set is fixed at genesis, so the current one replays it.
        let mut engine = Clique::new(self.clique.signers().to_vec());
        for w in self.blocks.windows(2) {
            let (parent, child) = (&w[0], &w[1]);
            let n = child.number();
            if child.header.parent_hash != parent.hash()
                || n != parent.number() + 1
                || child.header.timestamp < parent.header.timestamp + PERIOD
            {
                return Err(n);
            }
            let encoded: Vec<Vec<u8>> =
                child.transactions.iter().map(Transaction::encode).collect();
            if child.header.tx_root != merkle_root(encoded.iter().map(Vec::as_slice)) {
                return Err(n);
            }
            if engine
                .apply_seal(n, child.header.signer, child.header.difficulty)
                .is_err()
            {
                return Err(n);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("signers", &self.clique.signers().len())
            .field("contracts", &self.contracts.len())
            .field("pool", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::CallOutcome;
    use std::any::Any;

    struct Echo {
        calls: u64,
    }

    impl Contract for Echo {
        fn execute(
            &mut self,
            ctx: &CallContext,
            input: &[u8],
        ) -> Result<CallOutcome, ContractError> {
            if input == b"fail" {
                return Err(ContractError::revert("requested failure"));
            }
            self.calls += 1;
            Ok(CallOutcome::new(
                vec![Log::event(
                    Address::from_label("echo"),
                    "Echoed",
                    vec![],
                    input.to_vec(),
                )],
                ctx.entropy % 1000,
            ))
        }

        fn state_digest(&self) -> H256 {
            sha256(&self.calls.to_be_bytes())
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn setup() -> (Blockchain, Address, Address) {
        let signers = vec![
            Address::from_label("org-a"),
            Address::from_label("org-b"),
            Address::from_label("org-c"),
        ];
        let mut chain = Blockchain::new(CliqueConfig::default(), signers);
        let contract_addr = Address::from_label("echo");
        chain.deploy(contract_addr, Box::new(Echo { calls: 0 }));
        let user = Address::from_label("user");
        (chain, contract_addr, user)
    }

    #[test]
    fn seals_advance_height_and_link() {
        let (mut chain, _, _) = setup();
        let b1 = chain.seal_next(SimTime::from_secs(5)).unwrap();
        let b2 = chain.seal_next(SimTime::from_secs(10)).unwrap();
        assert_eq!(b1.number(), 1);
        assert_eq!(b2.number(), 2);
        assert_eq!(b2.header.parent_hash, b1.hash());
        chain.verify().unwrap();
    }

    #[test]
    fn period_is_enforced() {
        let (mut chain, _, _) = setup();
        let err = chain.seal_next(SimTime::from_secs(1)).unwrap_err();
        assert!(matches!(err, ChainError::PeriodNotElapsed { .. }));
    }

    #[test]
    fn executes_pooled_transactions_in_order() {
        let (mut chain, contract, user) = setup();
        for nonce in 0..3 {
            chain.submit(Transaction::call(user, contract, nonce, vec![nonce as u8]));
        }
        let block = chain.seal_next(SimTime::from_secs(5)).unwrap();
        assert_eq!(block.transactions.len(), 3);
        assert_eq!(chain.account_nonce(user), 3);
        let echo: &Echo = chain.view(contract).unwrap();
        assert_eq!(echo.calls, 3);
        // One encoding serves both: each receipt names its transaction's
        // hash, the header commits to the same encodings.
        for (tx, receipt) in block.transactions.iter().zip(chain.receipts(1).unwrap()) {
            assert_eq!(receipt.tx_hash, tx.hash());
        }
        let leaves: Vec<Vec<u8>> = block.transactions.iter().map(Transaction::encode).collect();
        assert_eq!(
            block.header.tx_root,
            merkle_root(leaves.iter().map(Vec::as_slice))
        );
    }

    #[test]
    fn reverted_tx_consumes_nonce_and_records_error() {
        let (mut chain, contract, user) = setup();
        chain.submit(Transaction::call(user, contract, 0, b"fail".to_vec()));
        chain.submit(Transaction::call(user, contract, 1, b"ok".to_vec()));
        chain.seal_next(SimTime::from_secs(5)).unwrap();
        let receipts = chain.receipts(1).unwrap();
        assert_eq!(receipts.len(), 2);
        assert!(!receipts[0].success);
        assert!(receipts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("requested failure"));
        assert!(receipts[0].logs.is_empty());
        assert!(receipts[1].success);
        assert_eq!(chain.account_nonce(user), 2);
    }

    #[test]
    fn tx_to_missing_contract_reverts() {
        let (mut chain, _, user) = setup();
        chain.submit(Transaction::call(
            user,
            Address::from_label("nowhere"),
            0,
            vec![],
        ));
        chain.seal_next(SimTime::from_secs(5)).unwrap();
        let receipts = chain.receipts(1).unwrap();
        assert!(!receipts[0].success);
        assert!(receipts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no contract"));
    }

    #[test]
    fn logs_are_indexed_and_filterable() {
        let (mut chain, contract, user) = setup();
        chain.submit(Transaction::call(user, contract, 0, b"hello".to_vec()));
        chain.seal_next(SimTime::from_secs(5)).unwrap();
        // Block 2: two calls with a reverted one between them.
        chain.submit(Transaction::call(user, contract, 1, b"world".to_vec()));
        chain.submit(Transaction::call(user, contract, 2, b"fail".to_vec()));
        chain.submit(Transaction::call(user, contract, 3, b"again".to_vec()));
        chain.seal_next(SimTime::from_secs(10)).unwrap();

        assert_eq!(chain.logs_since(0, Some("Echoed")).len(), 3);
        assert_eq!(chain.logs_since(2, Some("Echoed")).len(), 2);
        assert!(chain.logs_since(0, Some("Nope")).is_empty());
        // Block, transaction, log order, and nothing from the reverted call.
        let logs: Vec<(u64, Vec<u8>)> = chain
            .logs_since(0, None)
            .into_iter()
            .map(|(n, log)| (n, log.data))
            .collect();
        let expected = [(1, &b"hello"[..]), (2, b"world"), (2, b"again")];
        assert_eq!(logs, expected.map(|(n, d)| (n, d.to_vec())));
        assert!(chain.logs_since(chain.height() + 1, None).is_empty());
    }

    #[test]
    fn signers_rotate_across_blocks() {
        let (mut chain, _, _) = setup();
        let mut sealers = Vec::new();
        for i in 1..=6 {
            let b = chain.seal_next(SimTime::from_secs(5 * i)).unwrap();
            sealers.push(b.header.signer);
        }
        // With 3 signers the in-turn rotation covers all of them.
        let unique: std::collections::HashSet<_> = sealers.iter().collect();
        assert_eq!(unique.len(), 3);
        chain.verify().unwrap();
    }

    #[test]
    fn state_root_changes_with_contract_state() {
        let (mut chain, contract, user) = setup();
        let b1 = chain.seal_next(SimTime::from_secs(5)).unwrap();
        chain.submit(Transaction::call(user, contract, 0, b"x".to_vec()));
        let b2 = chain.seal_next(SimTime::from_secs(10)).unwrap();
        assert_ne!(b1.header.state_root, b2.header.state_root);
    }

    #[test]
    fn missed_slots_shift_the_seal_schedule() {
        let (mut chain, _, _) = setup();
        chain.install_faults(ChainFaults::new(1, 1.0, 0.0));
        let t0 = chain.next_seal_time();
        // Certain miss: every consultation pushes the slot one period out.
        assert!(chain.slot_misses_seal());
        let t1 = chain.next_seal_time();
        assert!(t1 > t0);
        assert!(chain.slot_misses_seal());
        assert!(chain.next_seal_time() > t1);
        assert_eq!(chain.fault_stats().unwrap().missed_seals, 2);
        // Sealing at the shifted slot succeeds and resets the schedule.
        let ts = chain.next_seal_time();
        chain.seal_next(ts).unwrap();
        assert_eq!(chain.next_seal_time(), ts + PERIOD);
        chain.verify().unwrap();
    }

    #[test]
    fn seal_due_slot_drains_the_schedule_and_respects_misses() {
        let (mut chain, _, _) = setup();
        // Fault-free: every due slot seals at its own slot timestamp.
        let h0 = chain.height();
        let horizon = SimTime::ZERO + PERIOD * 3;
        let mut sealed = Vec::new();
        loop {
            match chain.seal_due_slot(horizon).unwrap() {
                SlotOutcome::Sealed(ts) => sealed.push(ts),
                SlotOutcome::Missed => unreachable!("no injector installed"),
                SlotOutcome::NotDue => break,
            }
        }
        assert_eq!(chain.height(), h0 + 3);
        assert_eq!(
            sealed,
            vec![
                SimTime::ZERO + PERIOD,
                SimTime::ZERO + PERIOD * 2,
                SimTime::ZERO + PERIOD * 3,
            ]
        );
        // Not due yet: a horizon before the next slot is a no-op.
        assert_eq!(chain.seal_due_slot(sealed[2]).unwrap(), SlotOutcome::NotDue);
        // Certain injected misses: each step shifts the schedule out one
        // period without sealing, until nothing is due.
        chain.install_faults(ChainFaults::new(1, 1.0, 0.0));
        let h1 = chain.height();
        let horizon = sealed[2] + PERIOD * 2;
        let mut misses = 0;
        loop {
            match chain.seal_due_slot(horizon).unwrap() {
                SlotOutcome::Sealed(_) => panic!("certain miss must not seal"),
                SlotOutcome::Missed => misses += 1,
                SlotOutcome::NotDue => break,
            }
        }
        assert_eq!(chain.height(), h1);
        assert_eq!(misses, 2, "two slots were due inside the horizon");
        assert_eq!(chain.fault_stats().unwrap().missed_seals, 2);
        chain.verify().unwrap();
    }

    #[test]
    fn dropped_txs_never_reach_the_pool() {
        let (mut chain, contract, user) = setup();
        chain.install_faults(ChainFaults::new(2, 0.0, 1.0));
        let tx = Transaction::call(user, contract, 0, vec![1]);
        assert!(!chain.submit_unreliable(tx.clone()));
        assert_eq!(chain.pool_len(), 0);
        assert_eq!(chain.fault_stats().unwrap().dropped_txs, 1);
        // The retransmission path (reliable submit, same nonce) still works.
        chain.submit(tx);
        chain.seal_next(SimTime::from_secs(5)).unwrap();
        assert_eq!(chain.account_nonce(user), 1);
    }

    #[test]
    fn unreliable_submit_without_injector_is_reliable() {
        let (mut chain, contract, user) = setup();
        assert!(chain.submit_unreliable(Transaction::call(user, contract, 0, vec![])));
        assert_eq!(chain.pool_len(), 1);
        assert!(!chain.slot_misses_seal());
        assert!(chain.fault_stats().is_none());
    }

    #[test]
    fn gas_accounting_flows_to_header() {
        let (mut chain, contract, user) = setup();
        chain.submit(Transaction::call(user, contract, 0, vec![0u8; 8]));
        let block = chain.seal_next(SimTime::from_secs(5)).unwrap();
        let receipts = chain.receipts(1).unwrap();
        assert_eq!(block.header.gas_used, receipts[0].gas_used);
        assert!(receipts[0].gas_used >= 21_000 + 16 * 8);
    }
}
