//! `mcbfs-wire-v1`: the serving protocol's vocabulary over the shared
//! [`crate::frame`] conventions.
//!
//! Requests carry a client-chosen `tag` that the server echoes on the
//! matching response, so a client may pipeline requests over one
//! connection and match answers out of order. Every query request receives
//! **exactly one** response — `ok`, `rejected`, `timeout`, or `error` —
//! which is what makes the load generator's accounting (`served + shed +
//! timeout + error == submitted`) checkable end to end. A malformed inbound
//! line is a *protocol error*: the server answers with a
//! [`Response::Error`] frame and keeps the connection open.

use crate::frame::{self, field, obj, opt_field, FrameError};
use mcbfs_query::Query;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::shed::ServerStats;

/// Protocol version stamped on (and required of) every frame.
pub const WIRE_VERSION: u64 = 1;

/// Why a request was rejected at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded pending queue was at its high-water mark (load shed).
    Overloaded,
    /// The server is draining for shutdown.
    Draining,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::Draining => "draining",
        }
    }

    fn parse(s: &str) -> Result<Self, SerdeError> {
        match s {
            "overloaded" => Ok(RejectReason::Overloaded),
            "draining" => Ok(RejectReason::Draining),
            other => Err(SerdeError(format!("unknown reject reason `{other}`"))),
        }
    }
}

/// Client → server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Execute one graph query, optionally under a latency deadline.
    Query {
        /// Client correlation tag, echoed on the response.
        tag: u64,
        /// The query to execute.
        query: Query,
        /// Per-request deadline: if the answer cannot be returned within
        /// this many milliseconds of admission, the server replies
        /// `timeout` instead of a stale result.
        deadline_ms: Option<f64>,
    },
    /// Fetch live [`ServerStats`] (also the loadgen handshake: the reply
    /// carries the graph shape).
    Stats {
        /// Client correlation tag.
        tag: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client correlation tag.
        tag: u64,
    },
}

/// Server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A query's answer with its serving metrics.
    Ok(QueryReply),
    /// The request was not admitted; nothing was executed.
    Rejected {
        /// Echoed client tag.
        tag: u64,
        /// Why admission refused it.
        reason: RejectReason,
    },
    /// The deadline expired before the answer could be returned.
    Timeout {
        /// Echoed client tag.
        tag: u64,
        /// How long the request had been in flight, milliseconds.
        waited_ms: f64,
    },
    /// Live server statistics.
    Stats {
        /// Echoed client tag.
        tag: u64,
        /// The snapshot.
        stats: ServerStats,
    },
    /// Liveness reply.
    Pong {
        /// Echoed client tag.
        tag: u64,
    },
    /// The request could not be understood or executed (malformed frame,
    /// vertex out of range). The connection stays open.
    Error {
        /// Echoed client tag when the frame parsed far enough to have one.
        tag: Option<u64>,
        /// Human-readable reason.
        error: String,
    },
}

/// The `ok` response payload: answer plus serving metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Echoed client tag.
    pub tag: u64,
    /// Query kind tag (`parents`/`distances`/`stcon`/`reachable`).
    pub kind: String,
    /// Queries in the wave that served this request.
    pub wave_queries: u64,
    /// Milliseconds queued in the batcher, submission to wave seal.
    pub queue_ms: f64,
    /// Execution milliseconds of the serving wave.
    pub service_ms: f64,
    /// Milliseconds from admission to the response being written.
    pub latency_ms: f64,
    /// TEPS numerator (reachable adjacency entries).
    pub edges: u64,
    /// `stcon` answer: hop distance if connected.
    pub distance: Option<u32>,
    /// `reachable` answer.
    pub reachable: Option<bool>,
    /// Hop distances (`u32::MAX` unreached) for `parents`/`distances`.
    pub depths: Option<Vec<u32>>,
    /// BFS tree for `parents` (`parents[root] == root`).
    pub parents: Option<Vec<u32>>,
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let fields = match self {
            Request::Query {
                tag,
                query,
                deadline_ms,
            } => vec![
                ("cmd", Value::Str("query".into())),
                ("tag", Value::U64(*tag)),
                ("kind", Value::Str(query.kind_name().into())),
                ("source", Value::U64(query.source() as u64)),
                ("target", query.target().to_value()),
                ("deadline_ms", deadline_ms.to_value()),
            ],
            Request::Stats { tag } => vec![
                ("cmd", Value::Str("stats".into())),
                ("tag", Value::U64(*tag)),
            ],
            Request::Ping { tag } => vec![
                ("cmd", Value::Str("ping".into())),
                ("tag", Value::U64(*tag)),
            ],
        };
        obj(WIRE_VERSION, fields)
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let cmd: String = field(v, "cmd")?;
        let tag: u64 = field(v, "tag")?;
        match cmd.as_str() {
            "query" => {
                let kind: String = field(v, "kind")?;
                let source: u32 = field(v, "source")?;
                let target: Option<u32> = opt_field(v, "target")?;
                let need_target = || {
                    target.ok_or_else(|| SerdeError(format!("`{kind}` requires a `target` field")))
                };
                let query = match kind.as_str() {
                    "parents" => Query::Parents { root: source },
                    "distances" => Query::Distances { root: source },
                    "stcon" => Query::StCon {
                        s: source,
                        t: need_target()?,
                    },
                    "reachable" => Query::Reachable {
                        from: source,
                        to: need_target()?,
                    },
                    other => return Err(SerdeError(format!("unknown query kind `{other}`"))),
                };
                Ok(Request::Query {
                    tag,
                    query,
                    deadline_ms: opt_field(v, "deadline_ms")?,
                })
            }
            "stats" => Ok(Request::Stats { tag }),
            "ping" => Ok(Request::Ping { tag }),
            other => Err(SerdeError(format!("unknown command `{other}`"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let fields = match self {
            Response::Ok(r) => vec![
                ("status", Value::Str("ok".into())),
                ("tag", Value::U64(r.tag)),
                ("kind", Value::Str(r.kind.clone())),
                ("wave_queries", Value::U64(r.wave_queries)),
                ("queue_ms", Value::F64(r.queue_ms)),
                ("service_ms", Value::F64(r.service_ms)),
                ("latency_ms", Value::F64(r.latency_ms)),
                ("edges", Value::U64(r.edges)),
                ("distance", r.distance.to_value()),
                ("reachable", r.reachable.to_value()),
                ("depths", r.depths.to_value()),
                ("parents", r.parents.to_value()),
            ],
            Response::Rejected { tag, reason } => vec![
                ("status", Value::Str("rejected".into())),
                ("tag", Value::U64(*tag)),
                ("reason", Value::Str(reason.as_str().into())),
            ],
            Response::Timeout { tag, waited_ms } => vec![
                ("status", Value::Str("timeout".into())),
                ("tag", Value::U64(*tag)),
                ("waited_ms", Value::F64(*waited_ms)),
            ],
            Response::Stats { tag, stats } => vec![
                ("status", Value::Str("stats".into())),
                ("tag", Value::U64(*tag)),
                ("stats", stats.to_value()),
            ],
            Response::Pong { tag } => vec![
                ("status", Value::Str("pong".into())),
                ("tag", Value::U64(*tag)),
            ],
            Response::Error { tag, error } => vec![
                ("status", Value::Str("error".into())),
                ("tag", tag.to_value()),
                ("error", Value::Str(error.clone())),
            ],
        };
        obj(WIRE_VERSION, fields)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let status: String = field(v, "status")?;
        match status.as_str() {
            "ok" => Ok(Response::Ok(QueryReply {
                tag: field(v, "tag")?,
                kind: field(v, "kind")?,
                wave_queries: field(v, "wave_queries")?,
                queue_ms: field(v, "queue_ms")?,
                service_ms: field(v, "service_ms")?,
                latency_ms: field(v, "latency_ms")?,
                edges: field(v, "edges")?,
                distance: opt_field(v, "distance")?,
                reachable: opt_field(v, "reachable")?,
                depths: opt_field(v, "depths")?,
                parents: opt_field(v, "parents")?,
            })),
            "rejected" => Ok(Response::Rejected {
                tag: field(v, "tag")?,
                reason: RejectReason::parse(&field::<String>(v, "reason")?)?,
            }),
            "timeout" => Ok(Response::Timeout {
                tag: field(v, "tag")?,
                waited_ms: field(v, "waited_ms")?,
            }),
            "stats" => Ok(Response::Stats {
                tag: field(v, "tag")?,
                stats: field(v, "stats")?,
            }),
            "pong" => Ok(Response::Pong {
                tag: field(v, "tag")?,
            }),
            "error" => Ok(Response::Error {
                tag: opt_field(v, "tag")?,
                error: field(v, "error")?,
            }),
            other => Err(SerdeError(format!("unknown status `{other}`"))),
        }
    }
}

/// Encodes one frame as a JSON line (newline included).
pub fn encode<T: Serialize>(frame: &T) -> String {
    frame::encode(frame)
}

/// Decodes one inbound line into a wire-v1 frame; a [`FrameError`]'s
/// message is safe to echo back in a [`Response::Error`] frame.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, FrameError> {
    frame::decode(line, WIRE_VERSION)
}

/// Best-effort tag recovery from a malformed query frame, so the error
/// reply can still be correlated by pipelining clients.
pub fn salvage_tag(line: &str) -> Option<u64> {
    #[derive(Deserialize)]
    struct TagProbe {
        tag: u64,
    }
    serde_json::from_str::<TagProbe>(line.trim_end())
        .ok()
        .map(|p| p.tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: &Request) {
        let line = encode(r);
        assert!(line.ends_with('\n'));
        let back: Request = decode(&line).expect("request reparses");
        assert_eq!(&back, r);
    }

    fn round_trip_response(r: &Response) {
        let back: Response = decode(&encode(r)).expect("response reparses");
        assert_eq!(&back, r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Query {
            tag: 7,
            query: Query::Parents { root: 3 },
            deadline_ms: Some(12.5),
        });
        round_trip_request(&Request::Query {
            tag: u64::MAX,
            query: Query::StCon { s: 1, t: 2 },
            deadline_ms: None,
        });
        round_trip_request(&Request::Stats { tag: 0 });
        round_trip_request(&Request::Ping { tag: 9 });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Ok(QueryReply {
            tag: 4,
            kind: "distances".into(),
            wave_queries: 64,
            queue_ms: 0.25,
            service_ms: 1.5,
            latency_ms: 2.0,
            edges: 123,
            distance: None,
            reachable: None,
            depths: Some(vec![0, 1, u32::MAX]),
            parents: None,
        }));
        round_trip_response(&Response::Rejected {
            tag: 5,
            reason: RejectReason::Overloaded,
        });
        round_trip_response(&Response::Timeout {
            tag: 6,
            waited_ms: 51.0,
        });
        round_trip_response(&Response::Pong { tag: 1 });
        round_trip_response(&Response::Error {
            tag: None,
            error: "bad frame".into(),
        });
    }

    #[test]
    fn version_mismatch_and_malformed_frames_error() {
        // A well-formed frame with the wrong version is a *version* error
        // carrying the exact tag, not a generic parse failure.
        assert_eq!(
            decode::<Request>("{\"v\":2,\"cmd\":\"ping\",\"tag\":1}").unwrap_err(),
            FrameError::Version {
                got: 2,
                want: WIRE_VERSION,
                tag: Some(1)
            }
        );
        assert_eq!(
            decode::<Request>("{\"v\":0,\"cmd\":\"stats\"}").unwrap_err(),
            FrameError::Version {
                got: 0,
                want: WIRE_VERSION,
                tag: None
            }
        );
        assert!(matches!(
            decode::<Request>("not json").unwrap_err(),
            FrameError::Malformed(_)
        ));
        assert!(matches!(
            decode::<Request>("{\"v\":1,\"cmd\":\"warp\",\"tag\":1}").unwrap_err(),
            FrameError::Malformed(_)
        ));
        // stcon without a target is a structured error, not a panic.
        let e = decode::<Request>(
            "{\"v\":1,\"cmd\":\"query\",\"tag\":1,\"kind\":\"stcon\",\"source\":0}",
        );
        assert!(e.unwrap_err().to_string().contains("target"));
    }

    #[test]
    fn version_error_is_detectable_and_displayable() {
        let e = decode::<Response>("{\"v\":3,\"status\":\"pong\",\"tag\":9}").unwrap_err();
        assert_eq!(
            e,
            FrameError::Version {
                got: 3,
                want: WIRE_VERSION,
                tag: Some(9)
            }
        );
        let msg = e.to_string();
        assert!(msg.starts_with("version:"), "{msg}");
        assert!(msg.contains("v3") && msg.contains("v1"), "{msg}");
    }

    #[test]
    fn salvages_tags_from_malformed_frames() {
        assert_eq!(
            salvage_tag("{\"v\":1,\"cmd\":\"warp\",\"tag\":42}"),
            Some(42)
        );
        assert_eq!(salvage_tag("garbage"), None);
    }
}
