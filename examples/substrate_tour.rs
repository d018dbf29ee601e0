//! A tour of the substrates underneath UnifyFL: the private Clique chain,
//! the orchestration contract, and the content-addressed storage fabric —
//! driven directly, without the experiment engine.
//!
//! ```sh
//! cargo run --release --example substrate_tour
//! ```

use unifyfl::chain::chain::Blockchain;
use unifyfl::chain::clique::CliqueConfig;
use unifyfl::chain::merkle::{merkle_proof, merkle_root, verify_proof};
use unifyfl::chain::orchestrator::{calls, OrchestrationMode, Score, UnifyFlContract};
use unifyfl::chain::types::{Address, Transaction};
use unifyfl::sim::SimTime;
use unifyfl::storage::{IpfsNetwork, LinkProfile};
use unifyfl::tensor::{weights_from_bytes, weights_to_bytes};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A permissioned chain with two organizations as signers -----
    let org_a = Address::from_label("org-a");
    let org_b = Address::from_label("org-b");
    let mut chain = Blockchain::new(CliqueConfig::default(), vec![org_a, org_b]);
    println!(
        "genesis sealed; signers: {:?}",
        chain.clique().signers().len()
    );

    // --- 2. Deploy the orchestrator and register both orgs -------------
    let orch = Address::from_label("unifyfl-orchestrator");
    chain.deploy(
        orch,
        Box::new(UnifyFlContract::new(orch, OrchestrationMode::Async)),
    );
    chain.submit(Transaction::call(org_a, orch, 0, calls::register()));
    chain.submit(Transaction::call(org_b, orch, 0, calls::register()));
    chain.seal_next(SimTime::from_secs(5))?;

    // --- 3. Store model weights on the storage fabric ------------------
    let net = IpfsNetwork::new();
    let node_a = net.add_node(LinkProfile::lan());
    let node_b = net.add_node(LinkProfile::lan());
    let weights: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.001).sin()).collect();
    let receipt = node_a.add(&weights_to_bytes(&weights));
    println!("model stored: {} ({} blocks)", receipt.cid, receipt.blocks);

    // --- 4. Register the CID on-chain; the contract samples scorers ----
    chain.submit(Transaction::call(
        org_a,
        orch,
        1,
        calls::submit_model(&receipt.cid.to_string()),
    ));
    chain.seal_next(SimTime::from_secs(10))?;
    let view: &UnifyFlContract = chain.view(orch).expect("deployed");
    let entry = view.entry(&receipt.cid.to_string()).expect("recorded");
    println!(
        "scorers assigned by the contract: {:?}",
        entry.scorers.len()
    );

    // --- 5. Peer fetches the weights (verified, content-addressed) -----
    let fetched = node_b.get(receipt.cid)?;
    let recovered = weights_from_bytes(&fetched.data)?;
    assert_eq!(recovered, weights);
    println!(
        "org-b fetched {} KB in {} (verified against the CID)",
        fetched.data.len() / 1000,
        fetched.elapsed
    );

    // --- 6. Scorer submits its score -------------------------------------
    let scorer = entry.scorers[0];
    let nonce = chain.account_nonce(scorer);
    chain.submit(Transaction::call(
        scorer,
        orch,
        nonce,
        calls::submit_score(&receipt.cid.to_string(), Score::from_f64(0.87)),
    ));
    chain.seal_next(SimTime::from_secs(15))?;
    let view: &UnifyFlContract = chain.view(orch).expect("deployed");
    println!(
        "scores on record: {:?}",
        view.entry(&receipt.cid.to_string()).unwrap().score_values()
    );

    // --- 7. Anyone can verify a transaction's inclusion ------------------
    let block = chain.block(2).expect("block 2 sealed").clone();
    let encoded: Vec<Vec<u8>> = block.transactions.iter().map(|t| t.encode()).collect();
    let root = merkle_root(encoded.iter().map(Vec::as_slice));
    assert_eq!(root, block.header.tx_root);
    let proof = merkle_proof(encoded.iter().map(Vec::as_slice), 0).expect("tx 0 exists");
    assert!(verify_proof(root, &encoded[0], &proof));
    println!("merkle inclusion proof for the submitModel tx: valid");

    chain
        .verify()
        .map_err(|h| format!("chain invalid at block {h}"))?;
    println!(
        "full chain verification: ok ({} blocks)",
        chain.height() + 1
    );
    Ok(())
}
