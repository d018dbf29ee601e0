//! Core chain data types: accounts, transactions, blocks, receipts, logs.
//!
//! The structures mirror Ethereum's shape (the paper's orchestrator runs on
//! a private Geth chain) but replace ECDSA signatures with authenticated
//! sender addresses: in a permissioned Clique deployment the validator set
//! is closed, so signature recovery adds nothing to the orchestration
//! semantics being reproduced.

use unifyfl_sim::SimTime;

use crate::codec::Encoder;
use crate::hash::{sha256, H256};

/// A 20-byte account address (externally owned account or contract).
///
/// ```
/// use unifyfl_chain::types::Address;
/// let a = Address::from_label("aggregator-1");
/// assert_eq!(a, Address::from_label("aggregator-1"));
/// assert_ne!(a, Address::from_label("aggregator-2"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (used for contract-creation style conventions).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Derives a deterministic address from a human label (stand-in for key
    /// generation in the permissioned deployment).
    pub fn from_label(label: &str) -> Self {
        let digest = sha256(label.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        Address(out)
    }

    /// Hex rendering prefixed with `0x` (40 hex chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(42);
        s.push_str("0x");
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl std::fmt::Debug for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Address({}…)", &self.to_hex()[..10])
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A transaction: a contract call from `from` targeting contract `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender account.
    pub from: Address,
    /// Target contract address.
    pub to: Address,
    /// Per-sender sequence number; must equal the account nonce to execute.
    pub nonce: u64,
    /// ABI-style call payload (decoded by the target contract).
    pub input: Vec<u8>,
    /// Gas limit (simple accounting: 21_000 base + 16 per input byte).
    pub gas_limit: u64,
}

impl Transaction {
    /// Builds a call transaction with a default gas limit covering the
    /// intrinsic cost.
    pub fn call(from: Address, to: Address, nonce: u64, input: Vec<u8>) -> Self {
        let gas_limit = Self::intrinsic_gas_for(&input) + 100_000;
        Transaction {
            from,
            to,
            nonce,
            input,
            gas_limit,
        }
    }

    /// Intrinsic gas of this transaction (charged before execution).
    pub fn intrinsic_gas(&self) -> u64 {
        Self::intrinsic_gas_for(&self.input)
    }

    fn intrinsic_gas_for(input: &[u8]) -> u64 {
        21_000 + 16 * input.len() as u64
    }

    /// Canonical encoding used for hashing.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_fixed(&self.from.0)
            .put_fixed(&self.to.0)
            .put_u64(self.nonce)
            .put_bytes(&self.input)
            .put_u64(self.gas_limit);
        e.into_bytes()
    }

    /// Transaction hash (SHA-256 of the canonical encoding).
    pub fn hash(&self) -> H256 {
        sha256(&self.encode())
    }
}

/// An EVM-style event log emitted by a contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics; `topics[0]` is the event signature hash by convention.
    pub topics: Vec<H256>,
    /// Unindexed payload bytes.
    pub data: Vec<u8>,
}

impl Log {
    /// Convenience constructor hashing the event name into `topics[0]`.
    pub fn event(address: Address, name: &str, extra_topics: Vec<H256>, data: Vec<u8>) -> Self {
        let mut topics = Vec::with_capacity(1 + extra_topics.len());
        topics.push(event_signature(name));
        topics.extend(extra_topics);
        Log {
            address,
            topics,
            data,
        }
    }

    /// True if `topics[0]` matches the signature of `name`.
    pub fn is_event(&self, name: &str) -> bool {
        self.topics.first() == Some(&event_signature(name))
    }
}

/// Hash of an event name, playing the role of the Keccak event selector.
pub fn event_signature(name: &str) -> H256 {
    sha256(name.as_bytes())
}

/// Result of executing one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Hash of the executed transaction.
    pub tx_hash: H256,
    /// Block in which it executed.
    pub block_number: u64,
    /// Index within the block.
    pub tx_index: u32,
    /// Whether execution succeeded.
    pub success: bool,
    /// Gas consumed (intrinsic + contract-declared execution cost).
    pub gas_used: u64,
    /// Revert/failure reason if `!success`.
    pub error: Option<String>,
    /// Logs emitted during execution (empty when reverted).
    pub logs: Vec<Log>,
}

/// Block header, hashed to form the chain linkage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Parent block hash (ZERO for genesis).
    pub parent_hash: H256,
    /// Height of this block (genesis = 0).
    pub number: u64,
    /// Virtual timestamp at which the block was sealed.
    pub timestamp: SimTime,
    /// Merkle root over the block's transactions.
    pub tx_root: H256,
    /// Digest of the post-state (account nonces + contract states).
    pub state_root: H256,
    /// Clique: the signer that sealed this block.
    pub signer: Address,
    /// Clique difficulty: 2 if sealed in-turn, 1 if out-of-turn.
    pub difficulty: u64,
    /// Total gas consumed by the block's transactions.
    pub gas_used: u64,
}

impl BlockHeader {
    /// Canonical encoding used for hashing.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_fixed(self.parent_hash.as_bytes())
            .put_u64(self.number)
            .put_u64(self.timestamp.as_millis())
            .put_fixed(self.tx_root.as_bytes())
            .put_fixed(self.state_root.as_bytes())
            .put_fixed(&self.signer.0)
            .put_u64(self.difficulty)
            .put_u64(self.gas_used);
        e.into_bytes()
    }

    /// Block hash (SHA-256 of the canonical header encoding).
    pub fn hash(&self) -> H256 {
        sha256(&self.encode())
    }
}

/// A sealed block: header plus the ordered transactions it contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The sealed header.
    pub header: BlockHeader,
    /// Transactions in execution order.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// The block hash (header hash).
    pub fn hash(&self) -> H256 {
        self.header.hash()
    }

    /// The block height.
    pub fn number(&self) -> u64 {
        self.header.number
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_from_label_is_deterministic() {
        assert_eq!(Address::from_label("a"), Address::from_label("a"));
        assert_ne!(Address::from_label("a"), Address::from_label("b"));
        assert_eq!(Address::from_label("x").to_hex().len(), 42);
    }

    #[test]
    fn tx_hash_changes_with_any_field() {
        let base = Transaction::call(
            Address::from_label("s"),
            Address::from_label("c"),
            0,
            vec![1],
        );
        let mut other = base.clone();
        other.nonce = 1;
        assert_ne!(base.hash(), other.hash());
        let mut other = base.clone();
        other.input = vec![2];
        assert_ne!(base.hash(), other.hash());
        assert_eq!(base.hash(), base.clone().hash());
    }

    #[test]
    fn intrinsic_gas_counts_input_bytes() {
        let tx = Transaction::call(Address::ZERO, Address::ZERO, 0, vec![0u8; 10]);
        assert_eq!(tx.intrinsic_gas(), 21_000 + 160);
    }

    #[test]
    fn log_event_matches_by_name() {
        let log = Log::event(Address::ZERO, "StartTraining", vec![], vec![]);
        assert!(log.is_event("StartTraining"));
        assert!(!log.is_event("StartScoring"));
        assert_eq!(log.topics.len(), 1);
    }

    #[test]
    fn header_hash_links_to_parent() {
        let mut h = BlockHeader {
            parent_hash: H256::ZERO,
            number: 1,
            timestamp: SimTime::from_secs(5),
            tx_root: H256::ZERO,
            state_root: H256::ZERO,
            signer: Address::from_label("signer-0"),
            difficulty: 2,
            gas_used: 0,
        };
        let h1 = h.hash();
        h.parent_hash = sha256(b"different parent");
        assert_ne!(h.hash(), h1);
    }
}
