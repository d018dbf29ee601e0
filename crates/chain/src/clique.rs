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
//!   chain;
//! - **governance votes**: authorized signers may propose adding or dropping
//!   a signer; a strict majority of the current set enacts the change;
//! - **epoch checkpoints**: every [`CliqueConfig::epoch_length`] blocks the
//!   vote tally resets (mirroring Clique's checkpoint blocks).

use std::collections::{HashMap, VecDeque};
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

/// Static Clique parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueConfig {
    /// Blocks per epoch; vote tallies reset at epoch boundaries.
    pub epoch_length: u64,
}

impl Default for CliqueConfig {
    /// Geth's private-network default of 30 000-block epochs (the paper's
    /// deployment uses Clique "to reduce resource utilization").
    fn default() -> Self {
        CliqueConfig {
            epoch_length: 30_000,
        }
    }
}

/// A governance proposal to change the signer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignerVote {
    /// Authorize a new signer.
    Add(Address),
    /// Deauthorize an existing signer.
    Drop(Address),
}

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

/// The Clique consensus engine: signer set, vote tally and recent-seal
/// history.
#[derive(Debug, Clone)]
pub struct Clique {
    config: CliqueConfig,
    signers: Vec<Address>,
    /// (proposer, vote) pairs pending tally in the current epoch.
    votes: HashMap<Address, Vec<(Address, bool)>>,
    /// Ring of the most recent sealers, newest last.
    recents: VecDeque<Address>,
}

impl Clique {
    /// Creates an engine with the genesis signer set.
    ///
    /// # Panics
    ///
    /// Panics if `signers` is empty.
    pub fn new(config: CliqueConfig, mut signers: Vec<Address>) -> Self {
        assert!(!signers.is_empty(), "clique requires at least one signer");
        signers.sort();
        signers.dedup();
        Clique {
            config,
            signers,
            votes: HashMap::new(),
            recents: VecDeque::new(),
        }
    }

    /// The engine parameters.
    pub fn config(&self) -> &CliqueConfig {
        &self.config
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

    /// Records a successful seal of block `number` by `who`, applying any
    /// pending votes carried in the block and handling epoch resets.
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
        votes: &[(Address, SignerVote)],
    ) -> Result<(), SealError> {
        self.verify_seal(number, who, declared)?;

        // Epoch checkpoint: reset tallies.
        if self.config.epoch_length > 0 && number.is_multiple_of(self.config.epoch_length) {
            self.votes.clear();
        }

        for (proposer, vote) in votes {
            self.cast_vote(*proposer, *vote);
        }

        self.recents.push_back(who);
        while self.recents.len() > self.recency_window() {
            self.recents.pop_front();
        }
        Ok(())
    }

    /// Casts a governance vote from `proposer`; enacts the change when a
    /// strict majority of the current set agrees. Votes from non-signers are
    /// ignored.
    fn cast_vote(&mut self, proposer: Address, vote: SignerVote) {
        if !self.is_signer(proposer) {
            return;
        }
        let (target, authorize) = match vote {
            SignerVote::Add(a) => (a, true),
            SignerVote::Drop(a) => (a, false),
        };
        // A vote to add an existing signer / drop a non-signer is moot.
        if authorize == self.is_signer(target) {
            return;
        }
        let tally = self.votes.entry(target).or_default();
        // One live vote per proposer per target: replace.
        tally.retain(|(p, _)| *p != proposer);
        tally.push((proposer, authorize));

        let yes = tally.iter().filter(|(_, a)| *a == authorize).count();
        if yes > self.signers.len() / 2 {
            if authorize {
                self.signers.push(target);
                self.signers.sort();
            } else {
                self.signers.retain(|s| *s != target);
                self.recents.retain(|s| *s != target);
            }
            self.votes.remove(&target);
            // Signer-set size changed; shrink the recency ring if needed.
            while self.recents.len() > self.recency_window() {
                self.recents.pop_front();
            }
        }
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
        Clique::new(CliqueConfig::default(), addrs(n))
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
        e.apply_seal(0, s[0], DIFF_IN_TURN, &[]).unwrap();
        // s0 cannot sign again immediately.
        assert_eq!(
            e.verify_seal(1, s[0], DIFF_NO_TURN),
            Err(SealError::SignedRecently(s[0]))
        );
        e.apply_seal(1, s[1], DIFF_IN_TURN, &[]).unwrap();
        e.apply_seal(2, s[2], DIFF_IN_TURN, &[]).unwrap();
        assert!(e.verify_seal(3, s[0], DIFF_IN_TURN).is_ok());
    }

    #[test]
    fn two_signer_chain_can_alternate_forever() {
        let mut e = engine(2);
        let s = e.signers().to_vec();
        for n in 0..20u64 {
            let who = s[(n % 2) as usize];
            let diff = e.difficulty_for(n, who);
            e.apply_seal(n, who, diff, &[])
                .unwrap_or_else(|err| panic!("block {n}: {err}"));
        }
    }

    #[test]
    fn single_signer_chain_never_locks() {
        let mut e = engine(1);
        let s = e.signers()[0];
        for n in 0..10 {
            e.apply_seal(n, s, DIFF_IN_TURN, &[]).unwrap();
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
    fn majority_vote_adds_signer() {
        let mut e = engine(3);
        let s = e.signers().to_vec();
        let newbie = Address::from_label("newbie");
        e.apply_seal(0, s[0], DIFF_IN_TURN, &[(s[0], SignerVote::Add(newbie))])
            .unwrap();
        assert!(!e.is_signer(newbie), "one vote of three is not a majority");
        e.apply_seal(1, s[1], DIFF_IN_TURN, &[(s[1], SignerVote::Add(newbie))])
            .unwrap();
        assert!(e.is_signer(newbie), "two of three is a strict majority");
        assert_eq!(e.signers().len(), 4);
    }

    #[test]
    fn majority_vote_drops_signer() {
        let mut e = engine(3);
        let s = e.signers().to_vec();
        e.apply_seal(0, s[0], DIFF_IN_TURN, &[(s[0], SignerVote::Drop(s[2]))])
            .unwrap();
        e.apply_seal(1, s[1], DIFF_IN_TURN, &[(s[1], SignerVote::Drop(s[2]))])
            .unwrap();
        assert!(!e.is_signer(s[2]));
        assert_eq!(e.signers().len(), 2);
    }

    #[test]
    fn nonsigner_votes_ignored() {
        let mut e = engine(3);
        let s = e.signers().to_vec();
        let outsider = Address::from_label("outsider");
        let newbie = Address::from_label("newbie");
        e.apply_seal(
            0,
            s[0],
            DIFF_IN_TURN,
            &[
                (outsider, SignerVote::Add(newbie)),
                (outsider, SignerVote::Add(newbie)),
            ],
        )
        .unwrap();
        assert!(!e.is_signer(newbie));
    }

    #[test]
    fn epoch_resets_tally() {
        let mut e = Clique::new(CliqueConfig { epoch_length: 2 }, addrs(3));
        let s = e.signers().to_vec();
        let newbie = Address::from_label("newbie");
        e.apply_seal(1, s[1], DIFF_IN_TURN, &[(s[1], SignerVote::Add(newbie))])
            .unwrap();
        // Block 2 is an epoch checkpoint: tally resets *before* this block's
        // votes are applied, so the earlier vote is discarded.
        e.apply_seal(2, s[2], DIFF_IN_TURN, &[(s[2], SignerVote::Add(newbie))])
            .unwrap();
        assert!(
            !e.is_signer(newbie),
            "pre-checkpoint vote must not carry over"
        );
    }

    #[test]
    #[should_panic(expected = "at least one signer")]
    fn empty_signer_set_panics() {
        let _ = Clique::new(CliqueConfig::default(), vec![]);
    }
}
