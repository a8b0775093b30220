//! The append-only update log: length-prefixed, CRC32-framed `GraphUpdate` batches.
//!
//! A WAL file is a 16-byte header followed by frames:
//!
//! ```text
//! header:  "HCSPWAL" magic (7) | version u8 | first batch seq u64 LE
//! frame:   payload len u32 LE | crc32(payload) u32 LE | payload
//! payload: batch seq u64 LE | update count u32 LE | updates (tag u8, u u32 LE, v u32 LE)*
//! ```
//!
//! Each frame carries the *global batch sequence number* it logs, so a scan can verify
//! it is reading consecutive batches — a stale or misassembled file can never replay out
//! of order. Decoding is strict: any prefix truncation, length corruption, CRC mismatch,
//! unknown tag, count mismatch or sequence break classifies the rest of the file as a
//! torn tail, which recovery *drops* — a frame is either replayed exactly as written or
//! not at all, never misparsed.

use crate::crc32::crc32;
use hcsp_graph::{GraphUpdate, VertexId};

/// WAL file magic (7 bytes, followed by a 1-byte format version).
pub const WAL_MAGIC: &[u8; 7] = b"HCSPWAL";

/// Current WAL format version.
pub const WAL_VERSION: u8 = 1;

/// Size of the WAL file header in bytes.
pub const WAL_HEADER_LEN: usize = WAL_MAGIC.len() + 1 + 8;

/// Size of a frame's length + CRC prefix in bytes.
pub const FRAME_PREFIX_LEN: usize = 8;

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// Frames larger than this are rejected as corrupt rather than allocated: no legitimate
/// batch comes close, and a bit flip in a length prefix must not OOM the scanner.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Encodes the WAL file header for a file whose first frame logs batch `first_seq`.
pub fn encode_wal_header(first_seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN);
    buf.extend_from_slice(WAL_MAGIC);
    buf.push(WAL_VERSION);
    buf.extend_from_slice(&first_seq.to_le_bytes());
    buf
}

/// Parses a WAL file header, returning the first batch sequence it declares.
pub fn decode_wal_header(bytes: &[u8]) -> Result<u64, String> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(format!("header truncated at {} bytes", bytes.len()));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err("bad magic".to_string());
    }
    let version = bytes[WAL_MAGIC.len()];
    if version != WAL_VERSION {
        return Err(format!(
            "unsupported wal version {version} (supported: {WAL_VERSION})"
        ));
    }
    let mut seq_bytes = &bytes[WAL_MAGIC.len() + 1..WAL_HEADER_LEN];
    Ok(u64::from_le_bytes(take(&mut seq_bytes)))
}

/// Encodes one update batch as a complete frame (prefix + payload) logging batch `seq`.
pub fn encode_frame(seq: u64, updates: &[GraphUpdate]) -> Vec<u8> {
    let payload_len = 12 + updates.len() * 9;
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(updates.len() as u32).to_le_bytes());
    for update in updates {
        let (u, v) = update.edge();
        payload.push(if update.is_insert() {
            TAG_INSERT
        } else {
            TAG_DELETE
        });
        payload.extend_from_slice(&u.raw().to_le_bytes());
        payload.extend_from_slice(&v.raw().to_le_bytes());
    }
    debug_assert_eq!(payload.len(), payload_len);
    let mut frame = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Consumes `N` bytes off the front of `data`. Every caller checks the length first, so a
/// short buffer is a bug here, not a torn tail.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data
        .split_first_chunk::<N>()
        .expect("caller checked the remaining length");
    *data = rest;
    *head
}

/// Decodes a CRC-verified frame payload into its batch sequence and updates.
fn decode_payload(mut payload: &[u8]) -> Result<(u64, Vec<GraphUpdate>), String> {
    if payload.len() < 12 {
        return Err(format!(
            "payload of {} bytes is below the fixed header",
            payload.len()
        ));
    }
    let seq = u64::from_le_bytes(take(&mut payload));
    let count = u32::from_le_bytes(take(&mut payload)) as usize;
    if payload.len() != count * 9 {
        return Err(format!(
            "count {count} disagrees with {} remaining payload bytes",
            payload.len()
        ));
    }
    let mut updates = Vec::with_capacity(count);
    for _ in 0..count {
        let [tag] = take::<1>(&mut payload);
        let u = VertexId(u32::from_le_bytes(take(&mut payload)));
        let v = VertexId(u32::from_le_bytes(take(&mut payload)));
        updates.push(match tag {
            TAG_INSERT => GraphUpdate::Insert(u, v),
            TAG_DELETE => GraphUpdate::Delete(u, v),
            other => return Err(format!("unknown update tag {other}")),
        });
    }
    Ok((seq, updates))
}

/// The result of scanning one WAL file image.
#[derive(Debug)]
pub struct WalScan {
    /// The batch sequence the file header declares for its first frame.
    pub first_seq: u64,
    /// The decoded batches, in order, starting at `first_seq`.
    pub batches: Vec<Vec<GraphUpdate>>,
    /// Length of the valid prefix of the file (header + intact frames): appending may
    /// resume here after truncating the rest.
    pub valid_len: u64,
    /// Why the scan stopped before the end of the file, if it did.
    pub torn: Option<String>,
}

impl WalScan {
    /// The batch sequence the next appended frame should log.
    pub fn next_seq(&self) -> u64 {
        self.first_seq + self.batches.len() as u64
    }
}

/// Scans a whole WAL file image, returning every intact frame and classifying the rest
/// as a torn tail. `expect_first_seq` (when known from the manifest or the preceding
/// file of a chain) guards against replaying a stale file.
pub fn scan_wal(bytes: &[u8], expect_first_seq: Option<u64>) -> Result<WalScan, String> {
    let first_seq = decode_wal_header(bytes)?;
    if let Some(expected) = expect_first_seq {
        if first_seq != expected {
            return Err(format!(
                "header declares first batch {first_seq}, chain expects {expected}"
            ));
        }
    }
    let mut scan = WalScan {
        first_seq,
        batches: Vec::new(),
        valid_len: WAL_HEADER_LEN as u64,
        torn: None,
    };
    let mut offset = WAL_HEADER_LEN;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return Ok(scan);
        }
        let torn = |detail: String| WalScan {
            torn: Some(detail),
            ..scan_move_helper(&scan)
        };
        if rest.len() < FRAME_PREFIX_LEN {
            return Ok(torn(format!(
                "{} trailing bytes below a frame prefix",
                rest.len()
            )));
        }
        let mut prefix = &rest[..FRAME_PREFIX_LEN];
        let len = u32::from_le_bytes(take(&mut prefix)) as usize;
        let crc = u32::from_le_bytes(take(&mut prefix));
        if len > MAX_FRAME_PAYLOAD {
            return Ok(torn(format!(
                "frame length {len} exceeds the {MAX_FRAME_PAYLOAD} cap"
            )));
        }
        if rest.len() < FRAME_PREFIX_LEN + len {
            return Ok(torn(format!(
                "frame of {len} payload bytes truncated at {} available",
                rest.len() - FRAME_PREFIX_LEN
            )));
        }
        let payload = &rest[FRAME_PREFIX_LEN..FRAME_PREFIX_LEN + len];
        if crc32(payload) != crc {
            return Ok(torn("frame crc mismatch".to_string()));
        }
        match decode_payload(payload) {
            Ok((seq, updates)) => {
                if seq != scan.next_seq() {
                    return Ok(torn(format!(
                        "frame logs batch {seq}, expected {}",
                        scan.next_seq()
                    )));
                }
                scan.batches.push(updates);
                offset += FRAME_PREFIX_LEN + len;
                scan.valid_len = offset as u64;
            }
            Err(detail) => return Ok(torn(detail)),
        }
    }
}

/// Clones the accumulated scan state for a torn-tail result (manual, because `WalScan`
/// deliberately does not implement `Clone` in its public surface).
fn scan_move_helper(scan: &WalScan) -> WalScan {
    WalScan {
        first_seq: scan.first_seq,
        batches: scan.batches.clone(),
        valid_len: scan.valid_len,
        torn: None,
    }
}

/// When the log is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every appended batch is fsynced before the append returns (full durability:
    /// an acknowledged update survives any crash).
    Always,
    /// Fsync once every `n` appends (bounded loss: at most `n - 1` acknowledged batches
    /// can roll back on a crash). `EveryN(0)` behaves like `EveryN(1)`.
    EveryN(u32),
    /// Never fsync on append (the OS flushes eventually; a crash may roll back any
    /// acknowledged batch since the last checkpoint or explicit sync).
    Never,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(edges: &[(u32, u32, bool)]) -> Vec<GraphUpdate> {
        edges
            .iter()
            .map(|&(u, v, ins)| {
                if ins {
                    GraphUpdate::insert(u, v)
                } else {
                    GraphUpdate::delete(u, v)
                }
            })
            .collect()
    }

    fn wal_image(first_seq: u64, batches: &[Vec<GraphUpdate>]) -> Vec<u8> {
        let mut bytes = encode_wal_header(first_seq);
        for (i, b) in batches.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(first_seq + i as u64, b));
        }
        bytes
    }

    #[test]
    fn frames_round_trip() {
        let batches = vec![
            batch(&[(0, 1, true), (1, 2, false)]),
            batch(&[]),
            batch(&[(7, 7, true)]),
        ];
        let bytes = wal_image(5, &batches);
        let scan = scan_wal(&bytes, Some(5)).unwrap();
        assert_eq!(scan.first_seq, 5);
        assert_eq!(scan.batches, batches);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.next_seq(), 8);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn truncation_drops_the_tail_only() {
        let batches = vec![batch(&[(0, 1, true)]), batch(&[(2, 3, false)])];
        let bytes = wal_image(0, &batches);
        let first_frame_end = WAL_HEADER_LEN + FRAME_PREFIX_LEN + 12 + 9;
        // Cutting exactly at the frame boundary is a clean file; every cut strictly
        // inside the second frame is a torn tail that preserves the first frame.
        let scan = scan_wal(&bytes[..first_frame_end], Some(0)).unwrap();
        assert_eq!(scan.batches, batches[..1]);
        assert!(scan.torn.is_none());
        for cut in first_frame_end + 1..bytes.len() {
            let scan = scan_wal(&bytes[..cut], Some(0)).unwrap();
            assert_eq!(scan.batches, batches[..1], "cut at {cut}");
            assert_eq!(scan.valid_len, first_frame_end as u64);
            assert!(scan.torn.is_some());
        }
    }

    #[test]
    fn header_and_seq_guards_hold() {
        let bytes = wal_image(3, &[batch(&[(1, 2, true)])]);
        assert!(scan_wal(&bytes, Some(4)).is_err(), "stale file rejected");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(scan_wal(&bad, None).is_err(), "bad magic rejected");
        let mut versioned = bytes.clone();
        versioned[WAL_MAGIC.len()] = 9;
        let err = scan_wal(&versioned, None).unwrap_err();
        assert!(err.contains("version 9"), "{err}");
        assert!(scan_wal(&bytes[..10], None).is_err(), "truncated header");
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_tail_not_an_allocation() {
        let mut bytes = encode_wal_header(0);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let scan = scan_wal(&bytes, Some(0)).unwrap();
        assert!(scan.batches.is_empty());
        assert!(scan.torn.unwrap().contains("cap"));
    }

    #[test]
    fn corrupt_count_and_tag_are_detected() {
        // A payload whose count disagrees with its length (crc recomputed to match, so
        // only the structural check can catch it).
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes()); // claims 3 updates, carries 1
        payload.push(TAG_INSERT);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        let mut bytes = encode_wal_header(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let scan = scan_wal(&bytes, Some(0)).unwrap();
        assert!(scan.batches.is_empty());
        assert!(scan.torn.unwrap().contains("disagrees"));

        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(9); // unknown tag
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        let mut bytes = encode_wal_header(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let scan = scan_wal(&bytes, Some(0)).unwrap();
        assert!(scan.batches.is_empty());
        assert!(scan.torn.unwrap().contains("tag"));
    }
}
