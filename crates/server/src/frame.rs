//! The wire format: length-prefixed, CRC-framed payloads over a byte stream.
//!
//! ```text
//! handshake   client → server:  "HCSP" [u16 LE min_version] [u16 LE max_version]
//!             server → client:  "HCSP" [u16 LE chosen_version]   (0 = rejected, close)
//! frame       [u32 LE payload_len] [payload bytes] [u32 LE crc32(payload)]
//! payload     [u8 kind] [u64 LE request_id] [body…]
//! ```
//!
//! Every frame is independently verifiable: a flipped bit anywhere in the payload or
//! trailer fails the CRC (the same IEEE polynomial the WAL uses), a damaged length
//! prefix yields a too-large or truncated read — a decoder never acts on damaged bytes.
//! Responses to one request may span several frames: `Collect`/`FirstK` results stream
//! as [`Response::PathChunk`] frames closed by a [`Response::PathsDone`], so a large
//! path set never buffers whole on either side of the connection.

use hcsp_core::QueryResponse;
use hcsp_storage::crc32::crc32;
use std::io::{self, Read, Write};

/// The protocol magic opening both halves of the handshake.
pub const MAGIC: [u8; 4] = *b"HCSP";

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Default cap on a single frame's payload length (requests are statements, so frames
/// beyond this are garbage or abuse, not queries).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Target number of path vertices per [`Response::PathChunk`] frame: large result sets
/// stream as a sequence of bounded frames instead of one giant buffer.
pub const CHUNK_VERTEX_BUDGET: usize = 8 << 10;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes truncation mid-frame as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The length prefix exceeds the configured cap; the stream cannot be trusted.
    TooLarge {
        /// The length the prefix claimed.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload failed its CRC: the frame was damaged in flight.
    BadCrc,
    /// The payload parsed structurally but carried an unknown kind or a malformed body.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the cap of {max} bytes")
            }
            FrameError::BadCrc => f.write_str("frame payload failed its CRC32 check"),
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix, payload, CRC trailer) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Reads one frame's payload from `r`, verifying the CRC trailer.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    match read_frame_opt(r, max_len)? {
        Some(payload) => Ok(payload),
        None => Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a frame",
        ))),
    }
}

/// [`read_frame`], but a clean EOF *at a frame boundary* returns `None` (the peer hung
/// up between frames — the normal end of a connection, not an error).
pub fn read_frame_opt(r: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // A clean close lands exactly here: zero bytes of the next length prefix.
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    if u32::from_le_bytes(crc_buf) != crc32(&payload) {
        return Err(FrameError::BadCrc);
    }
    Ok(Some(payload))
}

/// Performs the client half of the handshake on `stream`, returning the negotiated
/// version.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> io::Result<u16> {
    let mut hello = Vec::with_capacity(8);
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    stream.write_all(&hello)?;
    let mut reply = [0u8; 6];
    stream.read_exact(&mut reply)?;
    if reply[..4] != MAGIC {
        return Err(io::Error::other("server did not speak the HCSP protocol"));
    }
    let version = u16::from_le_bytes([reply[4], reply[5]]);
    if version == 0 {
        return Err(io::Error::other(
            "server rejected the protocol version range",
        ));
    }
    Ok(version)
}

/// Performs the server half of the handshake on `stream`: validates the magic, picks
/// [`PROTOCOL_VERSION`] when the client's range covers it, and replies. Returns the
/// chosen version, or an error when the greeting was not HCSP (the reply `version 0`
/// tells a well-formed client the range was unacceptable).
pub fn server_handshake(stream: &mut (impl Read + Write)) -> io::Result<u16> {
    let mut hello = [0u8; 8];
    stream.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Err(io::Error::other("client did not speak the HCSP protocol"));
    }
    let min = u16::from_le_bytes([hello[4], hello[5]]);
    let max = u16::from_le_bytes([hello[6], hello[7]]);
    let chosen = if (min..=max).contains(&PROTOCOL_VERSION) {
        PROTOCOL_VERSION
    } else {
        0
    };
    let mut reply = Vec::with_capacity(6);
    reply.extend_from_slice(&MAGIC);
    reply.extend_from_slice(&chosen.to_le_bytes());
    stream.write_all(&reply)?;
    if chosen == 0 {
        return Err(io::Error::other(format!(
            "no common protocol version (client speaks {min}..={max})"
        )));
    }
    Ok(chosen)
}

// Payload kind tags. Requests are < 0x10, responses >= 0x10.
const KIND_STATEMENT: u8 = 0x01;
const KIND_EXISTS: u8 = 0x10;
const KIND_COUNT: u8 = 0x11;
const KIND_PATH_CHUNK: u8 = 0x12;
const KIND_PATHS_DONE: u8 = 0x13;
const KIND_UPDATE_DONE: u8 = 0x14;
const KIND_ERROR: u8 = 0x1F;

/// Why the server refused a request (the `code` byte of an error frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The statement did not parse; the message carries the parser's diagnosis.
    Parse = 1,
    /// The query names a vertex outside the served graph.
    InvalidEndpoint = 2,
    /// The service is shutting down.
    ShuttingDown = 3,
    /// The service refuses writes (poisoned admission or a latched durable store).
    Poisoned = 4,
    /// The server is at its connection cap; retry later on a new connection.
    Busy = 5,
    /// The request was admitted but its worker died before answering.
    Abandoned = 6,
    /// The frame or payload was structurally invalid.
    Malformed = 7,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Parse,
            2 => ErrorCode::InvalidEndpoint,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Poisoned,
            5 => ErrorCode::Busy,
            6 => ErrorCode::Abandoned,
            7 => ErrorCode::Malformed,
            _ => return None,
        })
    }
}

/// One decoded request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A statement of the text query language, to be parsed and planned server-side.
    Statement {
        /// The client-chosen request id, echoed on every response frame.
        id: u64,
        /// The statement text.
        text: String,
    },
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Statement { id, text } => {
                let mut out = Vec::with_capacity(9 + text.len());
                out.push(KIND_STATEMENT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(text.as_bytes());
                out
            }
        }
    }

    /// Decodes a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let (kind, id, body) = split_payload(payload)?;
        match kind {
            KIND_STATEMENT => {
                let text = std::str::from_utf8(body)
                    .map_err(|_| FrameError::Malformed("statement is not UTF-8"))?;
                Ok(Request::Statement {
                    id,
                    text: text.to_string(),
                })
            }
            _ => Err(FrameError::Malformed("unknown request kind")),
        }
    }
}

/// One decoded response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to an `EXISTS` statement.
    Exists {
        /// The request id this answers.
        id: u64,
        /// Whether at least one path exists.
        exists: bool,
    },
    /// Answer to a `COUNT` statement.
    Count {
        /// The request id this answers.
        id: u64,
        /// The number of paths (saturated at the statement's `LIMIT`, if any).
        count: u64,
    },
    /// One chunk of a streamed `PATHS` result (zero or more precede a
    /// [`Response::PathsDone`]).
    PathChunk {
        /// The request id this answers.
        id: u64,
        /// The chunk's paths, each a source-to-target vertex sequence.
        paths: Vec<Vec<u32>>,
    },
    /// Terminates a streamed `PATHS` result.
    PathsDone {
        /// The request id this answers.
        id: u64,
        /// Total paths streamed across the preceding chunks.
        total: u64,
    },
    /// Answer to an `INSERT`/`DELETE` statement.
    UpdateDone {
        /// The request id this answers.
        id: u64,
        /// Updates that changed the graph.
        applied: u64,
        /// No-op updates (inserting an existing edge, deleting an absent one).
        ignored: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// The request id this answers (0 when no request could be attributed).
        id: u64,
        /// What failed.
        code: ErrorCode,
        /// Human-readable diagnosis.
        message: String,
    },
}

impl Response {
    /// The request id the response refers to.
    pub fn id(&self) -> u64 {
        match self {
            Response::Exists { id, .. }
            | Response::Count { id, .. }
            | Response::PathChunk { id, .. }
            | Response::PathsDone { id, .. }
            | Response::UpdateDone { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Whether this frame terminates its request (path chunks are the only
    /// continuation frames).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::PathChunk { .. })
    }

    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Exists { id, exists } => {
                out.push(KIND_EXISTS);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(u8::from(*exists));
            }
            Response::Count { id, count } => {
                out.push(KIND_COUNT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            Response::PathChunk { id, paths } => {
                out.push(KIND_PATH_CHUNK);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(paths.len() as u32).to_le_bytes());
                for path in paths {
                    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
                    for v in path {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Response::PathsDone { id, total } => {
                out.push(KIND_PATHS_DONE);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&total.to_le_bytes());
            }
            Response::UpdateDone {
                id,
                applied,
                ignored,
            } => {
                out.push(KIND_UPDATE_DONE);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&applied.to_le_bytes());
                out.extend_from_slice(&ignored.to_le_bytes());
            }
            Response::Error { id, code, message } => {
                out.push(KIND_ERROR);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(*code as u8);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Decodes a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        let (kind, id, body) = split_payload(payload)?;
        match kind {
            KIND_EXISTS => match body {
                [0] => Ok(Response::Exists { id, exists: false }),
                [1] => Ok(Response::Exists { id, exists: true }),
                _ => Err(FrameError::Malformed("exists body must be one bool byte")),
            },
            KIND_COUNT => Ok(Response::Count {
                id,
                count: read_u64(body, "count")?,
            }),
            KIND_PATH_CHUNK => {
                let mut cursor = body;
                let num_paths = read_u32_prefix(&mut cursor, "path count")?;
                let mut paths = Vec::new();
                for _ in 0..num_paths {
                    let len = read_u32_prefix(&mut cursor, "path length")? as usize;
                    // `len` is wire-supplied: on a 32-bit target `len * 4` can wrap.
                    let byte_len = len
                        .checked_mul(4)
                        .filter(|&n| n <= cursor.len())
                        .ok_or(FrameError::Malformed("path vertices truncated"))?;
                    let (raw, rest) = cursor.split_at(byte_len);
                    cursor = rest;
                    paths.push(
                        raw.chunks_exact(4)
                            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    );
                }
                if !cursor.is_empty() {
                    return Err(FrameError::Malformed("trailing bytes after path chunk"));
                }
                Ok(Response::PathChunk { id, paths })
            }
            KIND_PATHS_DONE => Ok(Response::PathsDone {
                id,
                total: read_u64(body, "total")?,
            }),
            KIND_UPDATE_DONE => {
                if body.len() != 16 {
                    return Err(FrameError::Malformed("update body must be 16 bytes"));
                }
                Ok(Response::UpdateDone {
                    id,
                    applied: read_u64(&body[..8], "applied")?,
                    ignored: read_u64(&body[8..], "ignored")?,
                })
            }
            KIND_ERROR => {
                let (&code, message) = body
                    .split_first()
                    .ok_or(FrameError::Malformed("error body missing code"))?;
                let code =
                    ErrorCode::from_u8(code).ok_or(FrameError::Malformed("unknown error code"))?;
                let message = std::str::from_utf8(message)
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8"))?
                    .to_string();
                Ok(Response::Error { id, code, message })
            }
            _ => Err(FrameError::Malformed("unknown response kind")),
        }
    }
}

/// Splits a payload into `(kind, request_id, body)`.
fn split_payload(payload: &[u8]) -> Result<(u8, u64, &[u8]), FrameError> {
    if payload.len() < 9 {
        return Err(FrameError::Malformed("payload shorter than its header"));
    }
    let kind = payload[0];
    let id = u64::from_le_bytes(payload[1..9].try_into().expect("nine-byte header"));
    Ok((kind, id, &payload[9..]))
}

fn read_u64(body: &[u8], what: &'static str) -> Result<u64, FrameError> {
    let bytes: [u8; 8] = body.try_into().map_err(|_| FrameError::Malformed(what))?;
    Ok(u64::from_le_bytes(bytes))
}

fn read_u32_prefix(cursor: &mut &[u8], what: &'static str) -> Result<u32, FrameError> {
    if cursor.len() < 4 {
        return Err(FrameError::Malformed(what));
    }
    let (raw, rest) = cursor.split_at(4);
    *cursor = rest;
    Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

/// Renders one executed [`QueryResponse`] as the exact frame sequence the server
/// streams for request `id` — the single source of truth both the server's writer and
/// the byte-identity tests encode with.
///
/// `Exists`/`Count` are one frame; `Paths` is a sequence of [`Response::PathChunk`]
/// frames of at most [`CHUNK_VERTEX_BUDGET`] vertices each (always at least one path
/// per chunk), closed by [`Response::PathsDone`].
pub fn response_frames(id: u64, response: &QueryResponse) -> Vec<Response> {
    match response {
        QueryResponse::Exists(exists) => vec![Response::Exists {
            id,
            exists: *exists,
        }],
        QueryResponse::Count(count) => vec![Response::Count { id, count: *count }],
        QueryResponse::Paths(paths) => {
            let mut frames = Vec::new();
            let mut chunk: Vec<Vec<u32>> = Vec::new();
            let mut chunk_vertices = 0;
            for path in paths.iter() {
                if !chunk.is_empty() && chunk_vertices + path.len() > CHUNK_VERTEX_BUDGET {
                    frames.push(Response::PathChunk {
                        id,
                        paths: std::mem::take(&mut chunk),
                    });
                    chunk_vertices = 0;
                }
                chunk_vertices += path.len();
                chunk.push(path.iter().map(|v| v.0).collect());
            }
            if !chunk.is_empty() {
                frames.push(Response::PathChunk { id, paths: chunk });
            }
            frames.push(Response::PathsDone {
                id,
                total: paths.len() as u64,
            });
            frames
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_core::PathSet;

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let responses = vec![
            Response::Exists {
                id: 7,
                exists: true,
            },
            Response::Count { id: 8, count: 42 },
            Response::PathChunk {
                id: 9,
                paths: vec![vec![0, 1, 2], vec![0, 3]],
            },
            Response::PathsDone { id: 9, total: 2 },
            Response::UpdateDone {
                id: 10,
                applied: 3,
                ignored: 1,
            },
            Response::Error {
                id: 11,
                code: ErrorCode::Parse,
                message: "expected TO".to_string(),
            },
        ];
        let mut stream = Vec::new();
        for r in &responses {
            write_frame(&mut stream, &r.encode()).unwrap();
        }
        let mut cursor = &stream[..];
        for r in &responses {
            let payload = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
            assert_eq!(&Response::decode(&payload).unwrap(), r);
        }
        assert!(read_frame_opt(&mut cursor, MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    #[test]
    fn requests_round_trip() {
        let r = Request::Statement {
            id: 3,
            text: "PATHS FROM 0 TO 5 WITHIN 4".to_string(),
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn oversized_length_prefixes_are_refused() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            read_frame(&mut &stream[..], MAX_FRAME_LEN),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn path_chunks_declaring_more_vertices_than_follow_are_malformed() {
        // One path whose declared length exceeds the 8 bytes (two vertices) that follow;
        // 0x4000_0001 is the length whose `* 4` wraps to 4 on a 32-bit target.
        for declared in [3u32, 0x4000_0001] {
            let mut payload = vec![KIND_PATH_CHUNK];
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&declared.to_le_bytes());
            payload.extend_from_slice(&[0u8; 8]);
            assert!(matches!(
                Response::decode(&payload),
                Err(FrameError::Malformed("path vertices truncated"))
            ));
        }
    }

    #[test]
    fn response_frames_chunk_large_path_sets() {
        let mut paths = PathSet::new();
        let long: Vec<hcsp_graph::VertexId> = (0..100u32).map(hcsp_graph::VertexId).collect();
        for _ in 0..200 {
            paths.push_slice(&long);
        }
        let frames = response_frames(1, &QueryResponse::Paths(paths));
        let chunks = frames.len() - 1;
        assert!(chunks > 1, "20k vertices must split into several chunks");
        let total: usize = frames[..chunks]
            .iter()
            .map(|f| match f {
                Response::PathChunk { paths, .. } => paths.len(),
                _ => panic!("chunk expected"),
            })
            .sum();
        assert_eq!(total, 200);
        assert_eq!(frames[chunks], Response::PathsDone { id: 1, total: 200 });
    }
}
