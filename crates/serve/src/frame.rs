//! Newline-delimited JSON frames: the conventions `mcbfs-wire-v1` and
//! `mcbfs-swire-v1` share.
//!
//! A frame is one JSON object on one line, stamped with its protocol's
//! version in a `"v"` field. The two protocols differ only in vocabulary
//! ([`crate::wire`] carries queries and answers, `mcbfs_shard::swire` the
//! per-level frontier exchange); this module owns the rest: the object and
//! field helpers their hand-written [`Serialize`]/[`Deserialize`] impls are
//! built from (the vendored serde derive covers only named-field structs
//! and unit-variant enums), the version-gated [`encode`]/[`decode`] with
//! its one [`FrameError`], and the [`FrameReader`] every socket reader
//! assembles lines with.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::io::{self, BufRead, BufReader, ErrorKind, Read};

/// Builds a frame object: `"v": version` first, then `fields` in order.
pub fn obj<'a>(version: u64, fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        std::iter::once(("v".to_string(), Value::U64(version)))
            .chain(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
            .collect(),
    )
}

/// A required field of a frame object.
pub fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, SerdeError> {
    T::from_value(v.get(key).ok_or_else(|| SerdeError::missing(key))?)
}

/// An optional field: missing and `null` are both absent.
pub fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, SerdeError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some),
    }
}

/// Why a line failed to decode. Version mismatches are kept distinct from
/// garbage: a well-formed frame from a newer or older peer deserves a
/// structured `error: version …` reply carrying its exact tag, so a
/// mixed-version client can detect the incompatibility programmatically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The line is a JSON object whose `v` is not the expected version.
    Version {
        /// The version the frame carried.
        got: u64,
        /// The version this side speaks.
        want: u64,
        /// The frame's `tag`, when it had one (exact: the frame parsed).
        tag: Option<u64>,
    },
    /// Anything else: not JSON, no version, missing fields, unknown
    /// commands. The message is safe to echo back to the peer.
    Malformed(String),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Version { got, want, .. } => {
                write!(f, "version: this side speaks v{want}, frame carried v{got}")
            }
            FrameError::Malformed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame as a JSON line, newline included. The line length is
/// the frame's byte count on the wire.
pub fn encode<T: Serialize>(frame: &T) -> String {
    let mut line = serde_json::to_string(frame).expect("frames always serialize");
    line.push('\n');
    line
}

/// Decodes one line (trailing newline optional) into a frame of protocol
/// version `version`.
pub fn decode<T: Deserialize>(line: &str, version: u64) -> Result<T, FrameError> {
    let value: Value =
        serde_json::from_str(line.trim_end()).map_err(|e| FrameError::Malformed(e.0))?;
    match value.get("v").map(u64::from_value) {
        Some(Ok(got)) if got == version => {}
        Some(Ok(got)) => {
            return Err(FrameError::Version {
                got,
                want: version,
                tag: value.get("tag").and_then(|t| u64::from_value(t).ok()),
            })
        }
        _ => {
            return Err(FrameError::Malformed(
                "frame carries no integer version field `v`".to_string(),
            ))
        }
    }
    T::from_value(&value).map_err(|e| FrameError::Malformed(e.0))
}

/// A line longer than a [`FrameReader`]'s limit, reported as the payload
/// of an `InvalidData` error once the reader has skipped the line through
/// its newline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineTooLong {
    /// The reader's `max_line`.
    pub limit: usize,
}

impl core::fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "frame longer than {} bytes, skipped", self.limit)
    }
}

impl std::error::Error for LineTooLong {}

/// True for the error a socket read timeout produces.
pub fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Assembles newline-terminated lines from a byte stream.
///
/// Readers poll a shutdown flag through short read timeouts, so a frame may
/// arrive across several of them: the partial line is kept between calls,
/// and UTF-8 is checked only once the line is whole, so a chunk boundary
/// inside a multi-byte character is harmless. The buffer holds at most
/// `max_line + 1` bytes; a longer line is discarded through its newline.
pub struct FrameReader<R> {
    inner: BufReader<R>,
    buf: Vec<u8>,
    max_line: usize,
    skipping: bool,
}

impl<R: Read> FrameReader<R> {
    /// A reader accepting lines of up to `max_line` bytes, newline
    /// excluded (`usize::MAX` for no limit).
    pub fn new(inner: R, max_line: usize) -> Self {
        Self {
            inner: BufReader::new(inner),
            buf: Vec::new(),
            max_line,
            skipping: false,
        }
    }

    /// The next whole line, newline included, or `None` at end of stream
    /// (an unterminated tail is dropped: every frame ends in a newline).
    ///
    /// A read timeout is returned as the socket's error (see
    /// [`timed_out`]) with the partial line kept for the next call. A line
    /// longer than `max_line` ([`LineTooLong`]) or not UTF-8 is an
    /// `InvalidData` error returned after the line has been consumed, so
    /// the caller may go on reading.
    pub fn next_line(&mut self) -> io::Result<Option<&str>> {
        if self.buf.last() == Some(&b'\n') {
            self.buf.clear();
        }
        loop {
            let room = self.max_line.saturating_add(1) - self.buf.len();
            let read = (&mut self.inner)
                .take(room as u64)
                .read_until(b'\n', &mut self.buf)?;
            if read == 0 {
                return Ok(None);
            }
            if self.buf.last() == Some(&b'\n') {
                break;
            }
            if self.buf.len() > self.max_line {
                self.skipping = true;
                self.buf.clear();
            }
        }
        if std::mem::take(&mut self.skipping) {
            self.buf.clear();
            let limit = self.max_line;
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                LineTooLong { limit },
            ));
        }
        std::str::from_utf8(&self.buf)
            .map(Some)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields `data` in `chunk`-byte reads, each preceded by a timeout.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
        stalled: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.stalled = !self.stalled;
            if self.stalled && self.at < self.data.len() {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn lines(reader: &mut FrameReader<Trickle>) -> Vec<Result<String, String>> {
        let mut out = Vec::new();
        loop {
            match reader.next_line() {
                Ok(Some(line)) => out.push(Ok(line.to_string())),
                Ok(None) => return out,
                Err(e) if timed_out(&e) => {}
                Err(e) => out.push(Err(e.to_string())),
            }
            assert!(reader.buf.capacity() <= reader.max_line + 1 + reader.inner.capacity());
        }
    }

    #[test]
    fn buffer_never_grows_past_the_limit_plus_one_read() {
        let max_line = 100;
        let mut data = vec![b'x'; 1 << 20];
        data.extend_from_slice(b"\nafter\n");
        let mut reader = FrameReader::new(
            Trickle {
                data,
                at: 0,
                chunk: 4096,
                stalled: false,
            },
            max_line,
        );
        assert_eq!(
            lines(&mut reader),
            vec![
                Err(LineTooLong { limit: max_line }.to_string()),
                Ok("after\n".to_string())
            ]
        );
    }

    #[test]
    fn lines_at_the_limit_pass_and_non_utf8_lines_are_skipped() {
        let mut data = b"abcd\nabcde\n\xff\xfe\nok\nunterminated".to_vec();
        data.push(b'!');
        let mut reader = FrameReader::new(
            Trickle {
                data,
                at: 0,
                chunk: 3,
                stalled: false,
            },
            4,
        );
        let got = lines(&mut reader);
        assert_eq!(got[0], Ok("abcd\n".to_string()));
        assert_eq!(got[1], Err(LineTooLong { limit: 4 }.to_string()));
        assert!(got[2].is_err(), "{:?}", got[2]);
        assert_eq!(got[3], Ok("ok\n".to_string()));
        assert_eq!(got.len(), 4, "the unterminated tail is dropped");
    }
}
