//! Clique Proof-of-Authority consensus (EIP-225), as used by the paper's
//! private Ethereum deployment.
//!
//! Implemented rules:
//!
//! - a fixed block **period** ([`PERIOD`]): a child's timestamp must be at
//!   least `parent.timestamp + PERIOD`;
//! - **in-turn** signing: the signer at `block_number % len(signers)` seals
//!   with difficulty 2 ([`DIFF_IN_TURN`]), any other authorized signer with
//!   difficulty 1 ([`DIFF_NO_TURN`]);
//! - the **recently-signed** rule: a signer must wait `⌊n/2⌋ + 1` blocks
//!   between seals, preventing a single authority from monopolizing the
//!   chain.
//!
//! The signer set is fixed at genesis: the consortium is the federation's
//! founding organisations, and no block carries a governance vote.

use std::collections::VecDeque;
use std::fmt;

use unifyfl_sim::SimDuration;

use crate::types::Address;

/// Difficulty recorded by an in-turn seal.
pub const DIFF_IN_TURN: u64 = 2;
/// Difficulty recorded by an out-of-turn seal.
pub const DIFF_NO_TURN: u64 = 1;

/// Minimum spacing between consecutive blocks: Geth's private-network
/// default of 5 s, which the paper's deployment runs. A constant, not a
/// [`CliqueConfig`] field: no experiment, bench or test ever set a second
/// value, and the cost models that price the chain (the daemons' duty
/// cycle, HBFL's per-round seal overhead) assume this one.
pub const PERIOD: SimDuration = SimDuration::from_secs(5);

/// Static Clique parameters: none today (the period is [`PERIOD`], the
/// signer set is the chain's genesis set). Kept so a chain is still built
/// from a config, and non-exhaustive so one can gain a field without
/// breaking a caller that builds it with `default()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CliqueConfig {}

/// Error returned when a seal violates the Clique rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// The sealer is not in the authorized set.
    UnauthorizedSigner(Address),
    /// The sealer signed within the last `⌊n/2⌋` blocks.
    SignedRecently(Address),
    /// Declared difficulty does not match in-turn/out-of-turn status.
    WrongDifficulty {
        /// Difficulty the header declared.
        declared: u64,
        /// Difficulty the rules require.
        expected: u64,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::UnauthorizedSigner(a) => write!(f, "unauthorized signer {a}"),
            SealError::SignedRecently(a) => write!(f, "signer {a} sealed too recently"),
            SealError::WrongDifficulty { declared, expected } => {
                write!(
                    f,
                    "wrong difficulty: declared {declared}, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SealError {}

/// The Clique consensus engine: signer set and recent-seal history.
#[derive(Debug, Clone)]
pub struct Clique {
    signers: Vec<Address>,
    /// Ring of the most recent sealers, newest last.
    recents: VecDeque<Address>,
}

impl Clique {
    /// Creates an engine with the genesis signer set.
    ///
    /// # Panics
    ///
    /// Panics if `signers` is empty.
    pub fn new(mut signers: Vec<Address>) -> Self {
        assert!(!signers.is_empty(), "clique requires at least one signer");
        signers.sort();
        signers.dedup();
        Clique {
            signers,
            recents: VecDeque::new(),
        }
    }

    /// Current authorized signers, sorted.
    pub fn signers(&self) -> &[Address] {
        &self.signers
    }

    /// True if `who` is currently authorized.
    pub fn is_signer(&self, who: Address) -> bool {
        self.signers.binary_search(&who).is_ok()
    }

    /// The signer expected to seal block `number` in-turn.
    pub fn in_turn_signer(&self, number: u64) -> Address {
        self.signers[(number % self.signers.len() as u64) as usize]
    }

    /// Difficulty `who` must declare when sealing block `number`.
    pub fn difficulty_for(&self, number: u64, who: Address) -> u64 {
        if self.in_turn_signer(number) == who {
            DIFF_IN_TURN
        } else {
            DIFF_NO_TURN
        }
    }

    /// How many recent sealers lock out a repeat seal. Geth enforces a
    /// minimum spacing of `⌊n/2⌋ + 1` blocks between two seals by the same
    /// signer, which is equivalent to remembering the last `⌊n/2⌋` sealers:
    /// a two-signer chain may alternate A,B,A,B, and a single signer is
    /// never locked out.
    fn recency_window(&self) -> usize {
        self.signers.len() / 2
    }

    /// Checks whether `who` may seal block `number` with `declared`
    /// difficulty, without mutating the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`SealError`] describing the violated rule.
    pub fn verify_seal(&self, number: u64, who: Address, declared: u64) -> Result<(), SealError> {
        if !self.is_signer(who) {
            return Err(SealError::UnauthorizedSigner(who));
        }
        if self.recents.contains(&who) {
            return Err(SealError::SignedRecently(who));
        }
        let expected = self.difficulty_for(number, who);
        if declared != expected {
            return Err(SealError::WrongDifficulty { declared, expected });
        }
        Ok(())
    }

    /// Records a successful seal of block `number` by `who`.
    ///
    /// # Errors
    ///
    /// Returns a [`SealError`] if the seal is invalid (the engine is left
    /// unchanged in that case).
    pub fn apply_seal(
        &mut self,
        number: u64,
        who: Address,
        declared: u64,
    ) -> Result<(), SealError> {
        self.verify_seal(number, who, declared)?;
        self.recents.push_back(who);
        while self.recents.len() > self.recency_window() {
            self.recents.pop_front();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<Address> {
        (0..n)
            .map(|i| Address::from_label(&format!("signer-{i}")))
            .collect()
    }

    fn engine(n: usize) -> Clique {
        Clique::new(addrs(n))
    }

    #[test]
    fn in_turn_rotates_round_robin() {
        let e = engine(3);
        let s = e.signers().to_vec();
        assert_eq!(e.in_turn_signer(0), s[0]);
        assert_eq!(e.in_turn_signer(1), s[1]);
        assert_eq!(e.in_turn_signer(2), s[2]);
        assert_eq!(e.in_turn_signer(3), s[0]);
    }

    #[test]
    fn difficulty_reflects_turn() {
        let e = engine(3);
        let s = e.signers().to_vec();
        assert_eq!(e.difficulty_for(0, s[0]), DIFF_IN_TURN);
        assert_eq!(e.difficulty_for(0, s[1]), DIFF_NO_TURN);
    }

    #[test]
    fn unauthorized_signer_rejected() {
        let e = engine(2);
        let outsider = Address::from_label("mallory");
        assert_eq!(
            e.verify_seal(0, outsider, DIFF_NO_TURN),
            Err(SealError::UnauthorizedSigner(outsider))
        );
    }

    #[test]
    fn recently_signed_rule_enforced() {
        let mut e = engine(3); // window = ⌊3/2⌋ = 1
        let s = e.signers().to_vec();
        e.apply_seal(0, s[0], DIFF_IN_TURN).unwrap();
        // s0 cannot sign again immediately.
        assert_eq!(
            e.verify_seal(1, s[0], DIFF_NO_TURN),
            Err(SealError::SignedRecently(s[0]))
        );
        e.apply_seal(1, s[1], DIFF_IN_TURN).unwrap();
        e.apply_seal(2, s[2], DIFF_IN_TURN).unwrap();
        assert!(e.verify_seal(3, s[0], DIFF_IN_TURN).is_ok());
    }

    #[test]
    fn two_signer_chain_can_alternate_forever() {
        let mut e = engine(2);
        let s = e.signers().to_vec();
        for n in 0..20u64 {
            let who = s[(n % 2) as usize];
            let diff = e.difficulty_for(n, who);
            e.apply_seal(n, who, diff)
                .unwrap_or_else(|err| panic!("block {n}: {err}"));
        }
    }

    #[test]
    fn single_signer_chain_never_locks() {
        let mut e = engine(1);
        let s = e.signers()[0];
        for n in 0..10 {
            e.apply_seal(n, s, DIFF_IN_TURN).unwrap();
        }
    }

    #[test]
    fn wrong_difficulty_rejected() {
        let e = engine(3);
        let s = e.signers().to_vec();
        assert!(matches!(
            e.verify_seal(0, s[1], DIFF_IN_TURN),
            Err(SealError::WrongDifficulty {
                declared: 2,
                expected: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one signer")]
    fn empty_signer_set_panics() {
        let _ = Clique::new(vec![]);
    }
}
