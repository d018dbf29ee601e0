//! Transaction pool with per-account nonce ordering.
//!
//! Mirrors Geth's pending/queued split: a transaction is *pending*
//! (executable) when its nonce equals the account's next expected nonce and
//! all lower nonces are also present; otherwise it is *queued* until the gap
//! fills. Replacement of a same-nonce transaction is allowed (last write
//! wins), matching private-network operator expectations.

use std::collections::{BTreeMap, HashMap};

use crate::types::{Address, Transaction};

/// Pool of not-yet-included transactions.
///
/// ```
/// use unifyfl_chain::txpool::TxPool;
/// use unifyfl_chain::types::{Address, Transaction};
///
/// let a = Address::from_label("acct");
/// let mut pool = TxPool::new();
/// pool.add(Transaction::call(a, Address::ZERO, 1, vec![])); // queued (gap)
/// pool.add(Transaction::call(a, Address::ZERO, 0, vec![])); // fills gap
/// let batch = pool.take_executable(&|_| 0);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch[0].nonce, 0);
/// ```
#[derive(Debug, Default)]
pub struct TxPool {
    by_sender: HashMap<Address, BTreeMap<u64, Transaction>>,
    /// Insertion counter per tx for deterministic cross-account ordering.
    arrival: HashMap<(Address, u64), u64>,
    next_arrival: u64,
}

impl TxPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces, on equal `(sender, nonce)`) a transaction.
    pub fn add(&mut self, tx: Transaction) {
        let key = (tx.from, tx.nonce);
        self.arrival.entry(key).or_insert_with(|| {
            let a = self.next_arrival;
            self.next_arrival += 1;
            a
        });
        self.by_sender
            .entry(tx.from)
            .or_default()
            .insert(tx.nonce, tx);
    }

    /// Total transactions held (pending + queued).
    pub fn len(&self) -> usize {
        self.by_sender.values().map(BTreeMap::len).sum()
    }

    /// True if the pool holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all *executable* transactions given the current
    /// account nonces (`account_nonce(addr)` = next expected nonce).
    ///
    /// For each sender, transactions are taken in strictly increasing nonce
    /// order starting at the account nonce and stopping at the first gap.
    /// Across senders, per-sender runs are merged by the arrival time of
    /// each run's next transaction, which keeps block content deterministic
    /// while never violating nonce order within a sender.
    pub fn take_executable(&mut self, account_nonce: &dyn Fn(Address) -> u64) -> Vec<Transaction> {
        // Per-sender executable runs, each already in nonce order, tagged
        // with each tx's arrival number.
        let mut runs: Vec<std::collections::VecDeque<(u64, Transaction)>> = Vec::new();
        let senders: Vec<Address> = self.by_sender.keys().copied().collect();
        for sender in senders {
            let queue = self.by_sender.get_mut(&sender).expect("sender present");
            let mut expect = account_nonce(sender);
            // Drop stale (already-executed) nonces.
            let stale: Vec<u64> = queue.range(..expect).map(|(n, _)| *n).collect();
            for n in stale {
                queue.remove(&n);
                self.arrival.remove(&(sender, n));
            }
            let mut run = std::collections::VecDeque::new();
            while let Some(tx) = queue.remove(&expect) {
                let order = self
                    .arrival
                    .remove(&(sender, expect))
                    .expect("arrival tracked");
                run.push_back((order, tx));
                expect += 1;
            }
            if queue.is_empty() {
                self.by_sender.remove(&sender);
            }
            if !run.is_empty() {
                runs.push(run);
            }
        }
        // K-way merge by the arrival number at each run head.
        let mut taken = Vec::new();
        loop {
            let next = runs
                .iter()
                .enumerate()
                .filter_map(|(i, run)| run.front().map(|(order, _)| (*order, i)))
                .min();
            match next {
                Some((_, i)) => {
                    let (_, tx) = runs[i].pop_front().expect("head exists");
                    taken.push(tx);
                }
                None => break,
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(from: &str, nonce: u64) -> Transaction {
        Transaction::call(Address::from_label(from), Address::ZERO, nonce, vec![])
    }

    #[test]
    fn nonce_gap_blocks_execution() {
        let mut pool = TxPool::new();
        pool.add(tx("a", 2));
        let got = pool.take_executable(&|_| 0);
        assert!(got.is_empty());
        assert_eq!(pool.len(), 1, "gapped tx stays queued");
    }

    #[test]
    fn gap_fill_releases_chain() {
        let mut pool = TxPool::new();
        pool.add(tx("a", 2));
        pool.add(tx("a", 0));
        pool.add(tx("a", 1));
        let got = pool.take_executable(&|_| 0);
        assert_eq!(
            got.iter().map(|t| t.nonce).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(pool.is_empty());
    }

    #[test]
    fn same_nonce_replacement_last_wins() {
        let a = Address::from_label("a");
        let mut pool = TxPool::new();
        pool.add(Transaction::call(a, Address::ZERO, 0, vec![1]));
        pool.add(Transaction::call(a, Address::ZERO, 0, vec![2]));
        let got = pool.take_executable(&|_| 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].input, vec![2]);
    }

    #[test]
    fn stale_nonces_are_dropped() {
        let mut pool = TxPool::new();
        pool.add(tx("a", 0));
        pool.add(tx("a", 1));
        // Account nonce already advanced past both.
        let got = pool.take_executable(&|_| 2);
        assert!(got.is_empty());
        assert!(pool.is_empty());
    }

    #[test]
    fn cross_sender_order_is_arrival_order() {
        let mut pool = TxPool::new();
        pool.add(tx("b", 0));
        pool.add(tx("a", 0));
        pool.add(tx("c", 0));
        let got = pool.take_executable(&|_| 0);
        let names: Vec<Address> = got.iter().map(|t| t.from).collect();
        assert_eq!(
            names,
            vec![
                Address::from_label("b"),
                Address::from_label("a"),
                Address::from_label("c")
            ]
        );
    }
}
