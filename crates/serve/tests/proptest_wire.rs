//! Property tests for `mcbfs-wire-v1`: every frame the protocol can
//! express survives encode → decode unchanged, a stream of frames survives
//! the `FrameReader` however it is cut, and arbitrarily mangled input is a
//! structured decode error, never a panic.
//!
//! Floating-point fields are drawn as dyadic rationals (`n / 8`) so JSON
//! text round-trips them exactly and `PartialEq` on frames stays honest.

use mcbfs_query::Query;
use mcbfs_serve::frame::{self, FrameReader};
use mcbfs_serve::server::MAX_REQUEST_BYTES;
use mcbfs_serve::shed::ServerStats;
use mcbfs_serve::wire::{self, QueryReply, RejectReason, Request, Response};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};

fn query_for(kind: usize, a: u32, b: u32) -> Query {
    match kind {
        0 => Query::Parents { root: a },
        1 => Query::Distances { root: a },
        2 => Query::StCon { s: a, t: b },
        _ => Query::Reachable { from: a, to: b },
    }
}

/// Exactly-representable milliseconds from an integer draw.
fn ms(n: u32) -> f64 {
    n as f64 / 8.0
}

/// A socket stand-in that delivers its chunks one read at a time, with a
/// read timeout before each.
struct Chunked {
    chunks: VecDeque<Vec<u8>>,
    stalled: bool,
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.chunks.front_mut() else {
            return Ok(0);
        };
        self.stalled = !self.stalled;
        if self.stalled {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.chunks.pop_front();
        }
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(
        kind in 0usize..4,
        tag in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
        deadline in 0u32..200_000,
        has_deadline in any::<bool>(),
        probe in 0usize..3,
    ) {
        let request = match probe {
            0 => Request::Query {
                tag,
                query: query_for(kind, a, b),
                deadline_ms: has_deadline.then(|| ms(deadline)),
            },
            1 => Request::Stats { tag },
            _ => Request::Ping { tag },
        };
        let line = wire::encode(&request);
        prop_assert!(line.ends_with('\n'));
        prop_assert!(line.len() <= MAX_REQUEST_BYTES);
        let back: Request = wire::decode(&line).map_err(|e| {
            TestCaseError::Fail(format!("{request:?} failed to reparse: {e}"))
        })?;
        prop_assert_eq!(back, request);
    }

    #[test]
    fn ok_replies_round_trip(
        tag in any::<u64>(),
        kind in 0usize..4,
        wave_queries in 1u64..=64,
        queue in 0u32..10_000,
        service in 0u32..10_000,
        edges in any::<u64>(),
        distance in 0u32..1_000,
        connected in any::<bool>(),
        depths in vec(any::<u32>(), 0..40),
        parents in vec(any::<u32>(), 0..40),
    ) {
        // Populate the payload the way the scheduler would for this kind:
        // scalar answers for stcon/reachable, arrays for trees/distances.
        let reply = QueryReply {
            tag,
            kind: ["parents", "distances", "stcon", "reachable"][kind].to_string(),
            wave_queries,
            queue_ms: ms(queue),
            service_ms: ms(service),
            latency_ms: ms(queue) + ms(service),
            edges,
            distance: (kind == 2 && connected).then_some(distance),
            reachable: (kind == 3).then_some(connected),
            depths: (kind < 2).then_some(depths),
            parents: (kind == 0).then_some(parents),
        };
        let response = Response::Ok(reply);
        let back: Response = wire::decode(&wire::encode(&response)).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn control_responses_round_trip(
        probe in 0usize..5,
        tag in any::<u64>(),
        overloaded in any::<bool>(),
        waited in 0u32..1_000_000,
        count in any::<u32>(),
        has_tag in any::<bool>(),
    ) {
        let response = match probe {
            0 => Response::Rejected {
                tag,
                reason: if overloaded { RejectReason::Overloaded } else { RejectReason::Draining },
            },
            1 => Response::Timeout { tag, waited_ms: ms(waited) },
            2 => Response::Pong { tag },
            3 => Response::Error {
                tag: has_tag.then_some(tag),
                error: format!("synthetic error {count}"),
            },
            _ => Response::Stats {
                tag,
                stats: ServerStats {
                    vertices: count as u64,
                    edges: count as u64 * 8,
                    uptime_seconds: ms(waited),
                    connections: count as u64 % 7,
                    admitted: count as u64,
                    served: count as u64 / 2,
                    shed: count as u64 / 3,
                    timeouts: count as u64 / 5,
                    errors: 0,
                    protocol_errors: 1,
                    in_flight: count as u64 % 3,
                    waves: count as u64 / 11,
                    served_edges: count as u64 * 4,
                    aggregate_teps: ms(count % 4096),
                    p50_latency_ms: ms(waited % 512),
                    p99_latency_ms: ms(waited % 1024),
                    p999_latency_ms: ms(waited % 2048),
                },
            },
        };
        let back: Response = wire::decode(&wire::encode(&response)).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn frames_cut_anywhere_come_out_of_the_reader_whole(
        tags in vec(any::<u64>(), 1..8),
        depths in vec(any::<u32>(), 0..40),
        cuts in vec(any::<usize>(), 0..24),
    ) {
        let frames: Vec<Response> = tags
            .iter()
            .enumerate()
            .map(|(i, &tag)| match i % 3 {
                0 => Response::Error {
                    tag: Some(tag),
                    error: format!("naïve ✓ {tag} 🚀"),
                },
                1 => Response::Pong { tag },
                _ => Response::Ok(QueryReply {
                    tag,
                    kind: "distances".to_string(),
                    wave_queries: 1,
                    queue_ms: 0.5,
                    service_ms: 1.0,
                    latency_ms: 1.5,
                    edges: tag,
                    distance: None,
                    reachable: None,
                    depths: Some(depths.clone()),
                    parents: None,
                }),
            })
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| wire::encode(f).into_bytes()).collect();
        // Cut at every drawn offset, and always once inside the first
        // multi-byte character.
        let wide = stream.iter().position(|&b| b >= 0x80).expect("frame 0 is not ASCII");
        let mut at: Vec<usize> = cuts.iter().map(|c| c % stream.len()).collect();
        at.extend([0, wide + 1, stream.len()]);
        at.sort_unstable();
        at.dedup();
        let chunks = at.windows(2).map(|w| stream[w[0]..w[1]].to_vec()).collect();
        let mut reader = FrameReader::new(Chunked { chunks, stalled: false }, usize::MAX);
        let mut got = Vec::new();
        loop {
            match reader.next_line() {
                Ok(Some(line)) => got.push(
                    wire::decode::<Response>(line).map_err(|e| TestCaseError::fail(e.to_string()))?,
                ),
                Ok(None) => break,
                Err(e) if frame::timed_out(&e) => {}
                Err(e) => return Err(TestCaseError::fail(e.to_string())),
            }
        }
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn truncated_and_mangled_frames_never_panic(
        kind in 0usize..4,
        tag in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
        cut in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let line = wire::encode(&Request::Query {
            tag,
            query: query_for(kind, a, b),
            deadline_ms: Some(ms(a % 65_536)),
        });
        // Truncation strictly inside the JSON object (cutting mid-frame,
        // not just the trailing newline): a decode error, not a panic.
        let cut = (cut as usize) % (line.len() - 1);
        if line.is_char_boundary(cut) {
            prop_assert!(cut == 0 || wire::decode::<Request>(&line[..cut]).is_err());
        }
        // One corrupted byte either still parses or errors cleanly; a
        // salvaged tag, if any, must come from an intact `tag` field.
        let mut bytes = line.clone().into_bytes();
        let pos = (flip as usize) % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(1 + (flip >> 4));
        if let Ok(mangled) = String::from_utf8(bytes) {
            match wire::decode::<Request>(&mangled) {
                Ok(_) => {}
                Err(error) => prop_assert!(!error.to_string().is_empty()),
            }
            let _ = wire::salvage_tag(&mangled);
        }
    }
}
