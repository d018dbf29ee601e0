//! File chunking and the DAG root node.
//!
//! IPFS splits files into fixed-size blocks (256 KiB by default) and links
//! them under a root node; the file's CID is the root node's CID. We
//! reproduce that layout with a one-level DAG (sufficient for model-weight
//! files of a few hundred MB): the root block encodes the total length and
//! the ordered child CIDs.

use std::sync::Arc;

use crate::cid::Cid;

/// Default IPFS chunk size: 256 KiB.
pub const DEFAULT_CHUNK_SIZE: usize = 256 * 1024;

/// Marker prefix distinguishing root (DAG) blocks from raw leaf blocks.
const ROOT_MAGIC: &[u8; 8] = b"UFLDAGv0";

/// A chunked file: the root block plus its leaf blocks.
#[derive(Debug, Clone)]
pub struct ChunkedFile {
    /// CID of the root block (== the file's CID).
    pub root: Cid,
    /// The encoded root block.
    pub root_block: Arc<[u8]>,
    /// `(cid, data)` for every leaf chunk, in file order.
    pub leaves: Vec<(Cid, Arc<[u8]>)>,
    /// Original file length in bytes.
    pub total_len: u64,
}

/// Splits `data` into chunks of `chunk_size` and builds the root block.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn chunk(data: &[u8], chunk_size: usize) -> ChunkedFile {
    let (root, root_block) = hash_in_place(data, chunk_size);
    let leaves = root.children.iter().zip(data.chunks(chunk_size));
    ChunkedFile {
        root: Cid::for_data(&root_block),
        root_block: Arc::from(root_block),
        leaves: leaves.map(|(cid, c)| (*cid, Arc::from(c))).collect(),
        total_len: root.total_len,
    }
}

/// The DAG [`chunk`] would build over `data`, hashed where `data` lies:
/// every leaf's CID from its slice of `data`, and the encoded root block
/// built from them, with no leaf copied. The file's CID is the root
/// block's.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub(crate) fn hash_in_place(data: &[u8], chunk_size: usize) -> (RootNode, Vec<u8>) {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let root = RootNode {
        total_len: data.len() as u64,
        children: data.chunks(chunk_size).map(Cid::for_data).collect(),
    };
    let block = root.encode();
    (root, block)
}

/// Splits with the default 256 KiB chunk size.
pub fn chunk_default(data: &[u8]) -> ChunkedFile {
    chunk(data, DEFAULT_CHUNK_SIZE)
}

/// Parsed form of a root block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootNode {
    /// Original file length.
    pub total_len: u64,
    /// Child chunk CIDs in order.
    pub children: Vec<Cid>,
}

impl RootNode {
    /// The root block this node decodes from, byte for byte.
    pub fn encode(&self) -> Vec<u8> {
        encode_root(self.total_len, self.children.iter().copied())
    }
}

/// Magic, big-endian total length and child count, then each child's
/// digest in order.
fn encode_root(total_len: u64, children: impl ExactSizeIterator<Item = Cid>) -> Vec<u8> {
    let mut block = Vec::with_capacity(8 + 8 + 4 + children.len() * 32);
    block.extend_from_slice(ROOT_MAGIC);
    block.extend_from_slice(&total_len.to_be_bytes());
    block.extend_from_slice(&(children.len() as u32).to_be_bytes());
    for cid in children {
        block.extend_from_slice(cid.digest().as_bytes());
    }
    block
}

/// Decodes a root block; `None` if `block` is not a root node (i.e. it is a
/// raw leaf, or corrupt).
pub fn decode_root(block: &[u8]) -> Option<RootNode> {
    if block.len() < 20 || &block[..8] != ROOT_MAGIC {
        return None;
    }
    let total_len = u64::from_be_bytes(block[8..16].try_into().ok()?);
    let n = u32::from_be_bytes(block[16..20].try_into().ok()?) as usize;
    let rest = &block[20..];
    if rest.len() != n * 32 {
        return None;
    }
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let mut digest = [0u8; 32];
        digest.copy_from_slice(&rest[i * 32..(i + 1) * 32]);
        children.push(Cid::from_digest(unifyfl_chain::hash::H256(digest)));
    }
    Some(RootNode {
        total_len,
        children,
    })
}

/// Reassembles a file from its root node and a chunk lookup, verifying each
/// chunk against its CID — the form for blocks that crossed a wire.
///
/// Nothing is allocated from the root's declared length: the output is
/// sized by what the listed children actually supplied, after every one of
/// them has been checked, so a root that lies about its length costs a
/// [`ReassembleError::LengthMismatch`], not an allocation.
///
/// A one-leaf file *is* its leaf: the chunk's own buffer is handed on (a
/// refcount bump, after the same checks), and only a file of several
/// leaves is concatenated — once.
///
/// # Errors
///
/// Returns [`ReassembleError`] if a chunk is missing, fails verification, or
/// the total length does not match.
pub fn reassemble(
    root: &RootNode,
    mut fetch: impl FnMut(Cid) -> Option<Arc<[u8]>>,
) -> Result<Arc<[u8]>, ReassembleError> {
    assemble(root, |cid| {
        let data = fetch(cid).ok_or(ReassembleError::MissingChunk(cid))?;
        if !cid.verifies(&data) {
            return Err(ReassembleError::CorruptChunk(cid));
        }
        Ok(data)
    })
}

/// [`reassemble`] for chunks read out of a local
/// [`BlockStore`](crate::blockstore::BlockStore), whose invariant (every
/// key is the SHA-256 of its value) already vouches for them: presence and
/// the declared length are checked, nothing is hashed.
pub(crate) fn reassemble_trusted(
    root: &RootNode,
    mut fetch: impl FnMut(Cid) -> Option<Arc<[u8]>>,
) -> Result<Arc<[u8]>, ReassembleError> {
    assemble(root, |cid| {
        fetch(cid).ok_or(ReassembleError::MissingChunk(cid))
    })
}

fn assemble(
    root: &RootNode,
    mut fetch: impl FnMut(Cid) -> Result<Arc<[u8]>, ReassembleError>,
) -> Result<Arc<[u8]>, ReassembleError> {
    let chunks = root
        .children
        .iter()
        .map(|cid| fetch(*cid))
        .collect::<Result<Vec<Arc<[u8]>>, _>>()?;
    let actual: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    if actual != root.total_len {
        return Err(ReassembleError::LengthMismatch {
            expected: root.total_len,
            actual,
        });
    }
    Ok(match <[Arc<[u8]>; 1]>::try_from(chunks) {
        Ok([leaf]) => leaf,
        Err(chunks) => Arc::from(chunks.concat()),
    })
}

/// Error reassembling a chunked file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassembleError {
    /// A referenced chunk could not be fetched.
    MissingChunk(Cid),
    /// A chunk's bytes do not hash to its CID.
    CorruptChunk(Cid),
    /// The concatenated chunks do not match the declared file length.
    LengthMismatch {
        /// Length declared in the root node.
        expected: u64,
        /// Length actually reassembled.
        actual: u64,
    },
}

impl std::fmt::Display for ReassembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassembleError::MissingChunk(c) => write!(f, "missing chunk {c}"),
            ReassembleError::CorruptChunk(c) => write!(f, "corrupt chunk {c}"),
            ReassembleError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for ReassembleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn round_trip(data: &[u8], chunk_size: usize) {
        let file = chunk(data, chunk_size);
        let store: HashMap<Cid, Arc<[u8]>> = file.leaves.iter().cloned().collect();
        let root = decode_root(&file.root_block).expect("valid root");
        assert_eq!(root.total_len, data.len() as u64);
        let out = reassemble(&root, |c| store.get(&c).cloned()).expect("reassembles");
        assert_eq!(&out[..], data);
    }

    #[test]
    fn round_trips_various_sizes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for chunk_size in [1, 7, 256, 1024, 10_000, 20_000] {
            round_trip(&data, chunk_size);
        }
        round_trip(b"", 256);
        round_trip(b"x", 256);
    }

    #[test]
    fn chunk_count_matches_ceil_division() {
        let data = vec![0u8; 1000];
        assert_eq!(chunk(&data, 256).leaves.len(), 4);
        assert_eq!(chunk(&data, 1000).leaves.len(), 1);
        assert_eq!(chunk(&data, 1001).leaves.len(), 1);
        assert_eq!(chunk(b"", 256).leaves.len(), 0);
    }

    #[test]
    fn root_cid_changes_with_content() {
        let a = chunk(b"aaaa", 2).root;
        let b = chunk(b"aaab", 2).root;
        assert_ne!(a, b);
    }

    #[test]
    fn identical_chunks_share_cids() {
        let data = vec![7u8; 512];
        let file = chunk(&data, 256);
        assert_eq!(file.leaves[0].0, file.leaves[1].0, "dedup-able chunks");
    }

    #[test]
    fn decode_root_rejects_leaf_blocks() {
        assert!(decode_root(b"just some raw leaf data").is_none());
        assert!(decode_root(b"").is_none());
    }

    #[test]
    fn corrupt_chunk_detected() {
        let data = vec![1u8; 600];
        let file = chunk(&data, 256);
        let root = decode_root(&file.root_block).unwrap();
        let bad: Arc<[u8]> = Arc::from(vec![9u8; 256]);
        let err = reassemble(&root, |_| Some(bad.clone())).unwrap_err();
        assert!(matches!(err, ReassembleError::CorruptChunk(_)));
    }

    #[test]
    fn a_root_that_lies_about_its_length_is_a_mismatch_not_an_allocation() {
        let root = RootNode {
            total_len: u64::MAX,
            children: Vec::new(),
        };
        let err = reassemble(&root, |_| None).unwrap_err();
        assert_eq!(
            err,
            ReassembleError::LengthMismatch {
                expected: u64::MAX,
                actual: 0
            }
        );
        assert_eq!(reassemble_trusted(&root, |_| None), Err(err));
    }

    #[test]
    fn missing_chunk_detected() {
        let data = vec![1u8; 600];
        let file = chunk(&data, 256);
        let root = decode_root(&file.root_block).unwrap();
        let err = reassemble(&root, |_| None).unwrap_err();
        assert!(matches!(err, ReassembleError::MissingChunk(_)));
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = chunk(b"data", 0);
    }
}
