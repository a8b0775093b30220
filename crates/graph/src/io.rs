//! Graph serialisation: SNAP-style text edge lists and a compact binary format.
//!
//! The paper's datasets ship as whitespace-separated edge lists (SNAP / LAW exports);
//! [`read_edge_list`] accepts that format, ignoring `#`-prefixed comment lines. The binary
//! format stores the two CSR halves directly so re-loading a large generated analog graph
//! is an `O(m)` copy instead of a re-parse + re-sort.

use crate::csr::CsrAdjacency;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;
use crate::Result;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Magic prefix of the binary graph format (6 ASCII bytes + a reserved NUL).
pub const BINARY_MAGIC: &[u8; 7] = b"HCSPGR\x00";

/// Current version byte of the binary graph format. The magic + version pair is
/// byte-identical to the original unversioned header, so every file written before
/// versioning existed still loads; files from a *future* format version are rejected
/// with [`GraphError::UnsupportedVersion`] instead of being misparsed.
pub const BINARY_FORMAT_VERSION: u8 = 1;

/// Parses a whitespace-separated edge list (`u v` per line, `#` comments ignored).
///
/// Vertex ids may be arbitrary `u32`s; the vertex count becomes `max id + 1`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<DiGraph> {
    let mut builder = crate::GraphBuilder::new();
    let buf = BufReader::new(reader);
    for (line_no, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u32> { tok.and_then(|t| t.parse().ok()) };
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => builder.add_edge_raw(u, v)?,
            _ => {
                return Err(GraphError::ParseEdge {
                    line: line_no + 1,
                    content: trimmed.chars().take(64).collect(),
                })
            }
        }
    }
    Ok(builder.build())
}

/// Reads an edge-list file from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<DiGraph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a `u v` edge list with a small header comment.
pub fn write_edge_list<W: Write>(graph: &DiGraph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# directed graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(writer, "{} {}", u.raw(), v.raw())?;
    }
    Ok(())
}

/// Serialises the graph into the compact binary format.
pub fn to_binary(graph: &DiGraph) -> Vec<u8> {
    let out = graph.out_adjacency();
    let inn = graph.in_adjacency();
    let mut buf = Vec::with_capacity(
        BINARY_MAGIC.len()
            + 17
            + (out.offsets().len() + inn.offsets().len()) * 8
            + (out.targets().len() + inn.targets().len()) * 4,
    );
    buf.extend_from_slice(BINARY_MAGIC);
    buf.push(BINARY_FORMAT_VERSION);
    buf.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    for adj in [out, inn] {
        buf.extend_from_slice(&(adj.targets().len() as u64).to_le_bytes());
        for &off in adj.offsets() {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        for &t in adj.targets() {
            buf.extend_from_slice(&t.raw().to_le_bytes());
        }
    }
    buf
}

/// Consumes `N` bytes off the front of `data`. Callers check the length first, so a short
/// buffer is a bug here, not bad input.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data
        .split_first_chunk::<N>()
        .expect("caller checked the remaining length");
    *data = rest;
    *head
}

/// Deserialises a graph from the compact binary format.
pub fn from_binary(mut data: &[u8]) -> Result<DiGraph> {
    let fail = |msg: &str| GraphError::InvalidBinaryFormat(msg.to_string());
    if data.len() < BINARY_MAGIC.len() + 17 {
        return Err(fail("truncated header"));
    }
    if &data[..BINARY_MAGIC.len()] != BINARY_MAGIC {
        return Err(fail("bad magic"));
    }
    data = &data[BINARY_MAGIC.len()..];
    let [version] = take::<1>(&mut data);
    if version != BINARY_FORMAT_VERSION {
        return Err(GraphError::UnsupportedVersion {
            found: version,
            supported: BINARY_FORMAT_VERSION,
        });
    }
    let num_vertices = u64::from_le_bytes(take(&mut data)) as usize;
    let declared_edges = u64::from_le_bytes(take(&mut data)) as usize;

    let read_adj = |data: &mut &[u8]| -> Result<CsrAdjacency> {
        if data.len() < 8 {
            return Err(fail("truncated adjacency header"));
        }
        let num_targets = u64::from_le_bytes(take(data)) as usize;
        let offsets_len = num_vertices + 1;
        if data.len() < offsets_len * 8 + num_targets * 4 {
            return Err(fail("truncated adjacency body"));
        }
        let mut offsets = Vec::with_capacity(offsets_len);
        for _ in 0..offsets_len {
            offsets.push(u64::from_le_bytes(take(data)));
        }
        let mut targets = Vec::with_capacity(num_targets);
        for _ in 0..num_targets {
            targets.push(VertexId(u32::from_le_bytes(take(data))));
        }
        CsrAdjacency::from_raw_parts(offsets, targets).ok_or_else(|| fail("inconsistent CSR"))
    };

    let out = read_adj(&mut data)?;
    let inn = read_adj(&mut data)?;
    if out.num_edges() != declared_edges || inn.num_edges() != declared_edges {
        return Err(fail("edge count mismatch"));
    }
    Ok(DiGraph::from_parts(out, inn))
}

/// Writes the binary format to disk.
pub fn write_binary_file<P: AsRef<Path>>(graph: &DiGraph, path: P) -> Result<()> {
    std::fs::write(path, to_binary(graph))?;
    Ok(())
}

/// Reads the binary format from disk.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<DiGraph> {
    let data = std::fs::read(path)?;
    from_binary(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::preferential::{preferential_attachment, PreferentialConfig};
    use crate::generators::regular::grid;

    #[test]
    fn edge_list_round_trip() {
        let g = grid(3, 3);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let parsed = read_edge_list(text.as_slice()).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn edge_list_ignores_comments_and_blank_lines() {
        let input = "# a comment\n\n% another style\n0 1\n1 2\n 2   0 \n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_reports_parse_errors_with_line_numbers() {
        let input = "0 1\nnot an edge\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn binary_round_trip_small_and_generated() {
        for g in [
            grid(4, 5),
            preferential_attachment(PreferentialConfig {
                num_vertices: 400,
                edges_per_vertex: 3,
                reciprocity: 0.2,
                seed: 5,
            })
            .unwrap(),
            DiGraph::from_edge_list(0, &[]).unwrap(),
        ] {
            let bytes = to_binary(&g);
            let back = from_binary(&bytes).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn binary_round_trips_the_empty_graph_exactly() {
        let empty = DiGraph::from_edge_list(0, &[]).unwrap();
        let bytes = to_binary(&empty);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_edges(), 0);
        // Vertices-but-no-edges is a distinct shape from truly-empty; both round-trip.
        let isolated_only = DiGraph::from_edge_list(5, &[]).unwrap();
        let back = from_binary(&to_binary(&isolated_only)).unwrap();
        assert_eq!(back, isolated_only);
        assert_eq!(back.num_vertices(), 5);
    }

    #[test]
    fn binary_round_trip_preserves_an_isolated_max_vertex() {
        // The highest vertex id has no incident edge: its existence is carried only by
        // the offsets array, the exact thing a truncation bug would drop.
        let mut builder = crate::GraphBuilder::new();
        builder.add_edge(crate::VertexId(0), crate::VertexId(1));
        builder.reserve_vertices(8);
        let g = builder.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.out_degree(crate::VertexId(7)), 0);

        let back = from_binary(&to_binary(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.num_vertices(), 8);
        assert_eq!(back.out_degree(crate::VertexId(7)), 0);
        assert_eq!(back.in_degree(crate::VertexId(7)), 0);
    }

    #[test]
    fn edge_list_accepts_crlf_line_endings() {
        let input = "# CRLF export\r\n0 1\r\n1 2\r\n\r\n2 0\r\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g, read_edge_list("0 1\n1 2\n2 0\n".as_bytes()).unwrap());
    }

    #[test]
    fn comment_only_files_parse_to_the_empty_graph() {
        let input = "# nothing but comments\n% and more\n\n   \n# done\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn parse_errors_count_comment_and_blank_lines_too() {
        // The malformed line is line 5 of the *file* (1-based), not the 2nd edge line:
        // comment, blank and CRLF lines must advance the reported counter.
        let input = "# header\r\n\r\n0 1\r\n% interlude\r\nthree tokens here no\r\n1 2\r\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, content } => {
                assert_eq!(line, 5, "1-based physical line number");
                assert!(content.contains("three tokens"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A lone token on the very first line reports line 1.
        let err = read_edge_list("oops\n".as_bytes()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = grid(3, 3);
        let bytes = to_binary(&g);
        assert!(from_binary(&bytes[..10]).is_err());
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] = b'X';
        assert!(from_binary(&bad_magic).is_err());
        let mut truncated = bytes.to_vec();
        truncated.truncate(bytes.len() - 3);
        assert!(from_binary(&truncated).is_err());
    }

    #[test]
    fn binary_header_is_versioned_and_stable() {
        let g = grid(3, 3);
        let bytes = to_binary(&g);
        // The versioned header is byte-identical to the original unversioned magic, so
        // pre-versioning snapshot files stay readable. This assertion pins the bytes.
        assert_eq!(&bytes[..8], b"HCSPGR\x00\x01");
        assert_eq!(bytes[7], BINARY_FORMAT_VERSION);
        assert_eq!(from_binary(&bytes).unwrap(), g);
    }

    #[test]
    fn binary_rejects_other_versions_with_a_typed_error() {
        let g = grid(3, 3);
        for found in [0u8, 2, 7, 255] {
            let mut bytes = to_binary(&g).to_vec();
            bytes[BINARY_MAGIC.len()] = found;
            match from_binary(&bytes).unwrap_err() {
                GraphError::UnsupportedVersion {
                    found: f,
                    supported,
                } => {
                    assert_eq!(f, found);
                    assert_eq!(supported, BINARY_FORMAT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_round_trips() {
        let dir = std::env::temp_dir().join("hcsp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = grid(4, 4);

        let bin_path = dir.join("g.bin");
        write_binary_file(&g, &bin_path).unwrap();
        assert_eq!(read_binary_file(&bin_path).unwrap(), g);

        let txt_path = dir.join("g.txt");
        let mut file = std::fs::File::create(&txt_path).unwrap();
        write_edge_list(&g, &mut file).unwrap();
        assert_eq!(read_edge_list_file(&txt_path).unwrap(), g);
    }
}
