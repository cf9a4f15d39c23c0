//! The load generator's own client codec for the serve protocol.
//!
//! Frames are `[u32 LE body length][u8 kind][body]`, as in
//! `das_core::net`. The generator encodes HELLO and SUBMIT and decodes the
//! server's CAPS, REJECT, ACCEPTED, REJECTED and RESULT. Decoding is total:
//! a short body, trailing bytes, an unknown kind or an oversized length
//! give a typed [`WireError`], never a panic.

use das_core::serve::{Budgets, JobKind};
use das_core::wire;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Header bytes in front of every frame body.
const HEADER: usize = 5;

/// Largest frame body the generator accepts (a RESULT for an 8×8 grid is
/// well under 2 KiB).
pub const MAX_BODY: usize = 1 << 20;

/// Why a frame or its body could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended while decoding the named field, or the stream ended
    /// mid-frame.
    Truncated(&'static str),
    /// A frame kind this client does not expect from a server.
    UnknownKind(u8),
    /// Bytes left over after the last field of a frame of this kind.
    Trailing(u8),
    /// A length prefix above [`MAX_BODY`].
    Oversized(usize),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Any other socket error.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated frame while reading {what}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Trailing(k) => write!(f, "trailing bytes after frame kind {k}"),
            WireError::Oversized(len) => write!(f, "frame body of {len} bytes exceeds {MAX_BODY}"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// One frame, header included, ready to write.
pub fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// The HELLO frame: protocol version and graph fingerprint.
pub fn hello(graph_fingerprint: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(12);
    body.extend_from_slice(&das_core::PROTOCOL_VERSION.to_le_bytes());
    body.extend_from_slice(&graph_fingerprint.to_le_bytes());
    frame(wire::HELLO, &body)
}

/// A SUBMIT frame for one job with its declared budgets.
pub fn submit(job_id: u64, kind: JobKind, source: u32, depth: u32, declared: &Budgets) -> Vec<u8> {
    let mut body = Vec::with_capacity(33);
    body.extend_from_slice(&job_id.to_le_bytes());
    body.push(match kind {
        JobKind::Flood => 0,
        JobKind::Relay => 1,
    });
    body.extend_from_slice(&source.to_le_bytes());
    body.extend_from_slice(&depth.to_le_bytes());
    body.extend_from_slice(&declared.dilation.to_le_bytes());
    body.extend_from_slice(&declared.congestion.to_le_bytes());
    body.extend_from_slice(&declared.payload_bytes.to_le_bytes());
    frame(wire::SUBMIT, &body)
}

/// A frame split off a buffer: kind, body, and bytes consumed.
pub type Split<'a> = (u8, &'a [u8], usize);

/// Splits the first complete frame off the front of `buf`: `Ok(None)` when
/// more bytes are needed, `Ok(Some((kind, body, consumed)))` otherwise.
pub fn split_frame(buf: &[u8]) -> Result<Option<Split<'_>>, WireError> {
    if buf.len() < HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_BODY {
        return Err(WireError::Oversized(len));
    }
    let end = HEADER + len;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((buf[4], &buf[HEADER..end], end)))
}

/// What a serve daemon can say to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerMsg {
    /// Handshake accepted: the daemon's advertised configuration.
    Caps {
        /// Tape seed every batch runs under.
        tape_seed: u64,
        /// Largest batch the daemon forms.
        batch_max: u32,
    },
    /// Handshake refused (`code` is a `wire::REJECT_*` value).
    Reject {
        /// Why.
        code: u32,
    },
    /// The job passed admission; `queued` jobs wait, this one included.
    Accepted {
        /// The job.
        job_id: u64,
        /// Queue depth right after admission.
        queued: u64,
    },
    /// Admission refused the job.
    Rejected {
        /// The job.
        job_id: u64,
    },
    /// The job ran.
    Result(JobResult),
}

/// The decoded RESULT frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// The job.
    pub job_id: u64,
    /// `JobStatus` wire byte (0 = Ok).
    pub status: u8,
    /// Jobs in the batch.
    pub batch_k: u32,
    /// Per-node outputs of this job.
    pub outputs: Vec<Option<Vec<u8>>>,
}

/// Bounds-checked little-endian cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(w))
    }

    fn finish(&self, kind: u8) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing(kind))
        }
    }
}

/// Decodes one server frame.
pub fn decode(kind: u8, body: &[u8]) -> Result<ServerMsg, WireError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let msg = match kind {
        wire::CAPS => {
            c.u32("CAPS version")?;
            c.u64("CAPS graph fingerprint")?;
            let tape_seed = c.u64("CAPS tape seed")?;
            let batch_max = c.u32("CAPS batch max")?;
            c.u32("CAPS pool shards")?;
            c.u32("CAPS max dilation")?;
            c.u64("CAPS max congestion")?;
            c.u32("CAPS max payload")?;
            ServerMsg::Caps {
                tape_seed,
                batch_max,
            }
        }
        wire::REJECT => {
            let code = c.u32("REJECT code")?;
            c.u64("REJECT ours")?;
            c.u64("REJECT theirs")?;
            ServerMsg::Reject { code }
        }
        wire::ACCEPTED => ServerMsg::Accepted {
            job_id: c.u64("ACCEPTED job id")?,
            queued: c.u64("ACCEPTED queue depth")?,
        },
        wire::REJECTED => {
            let job_id = c.u64("REJECTED job id")?;
            c.u32("REJECTED code")?;
            c.u64("REJECTED declared")?;
            c.u64("REJECTED capacity")?;
            ServerMsg::Rejected { job_id }
        }
        wire::RESULT => {
            let job_id = c.u64("RESULT job id")?;
            let status = c.u8("RESULT status")?;
            c.u64("RESULT schedule rounds")?;
            let batch_k = c.u32("RESULT batch k")?;
            c.u64("RESULT delivered")?;
            c.u64("RESULT late")?;
            c.u32("RESULT measured dilation")?;
            c.u64("RESULT measured congestion")?;
            let count = c.u32("RESULT output count")? as usize;
            // every output costs at least its tag byte: bound the count by
            // the bytes actually present before allocating
            if count > body.len() {
                return Err(WireError::Truncated("RESULT outputs"));
            }
            let mut outputs = Vec::with_capacity(count);
            for _ in 0..count {
                outputs.push(if c.u8("RESULT output tag")? != 0 {
                    let len = c.u32("RESULT output length")? as usize;
                    Some(c.take(len, "RESULT output")?.to_vec())
                } else {
                    None
                });
            }
            ServerMsg::Result(JobResult {
                job_id,
                status,
                batch_k,
                outputs,
            })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish(kind)?;
    Ok(msg)
}

/// Buffered frame reader over a socket with a short read timeout, so the
/// caller can poll a stop condition between frames without losing a
/// partially received frame.
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Wraps `stream`; each [`FrameReader::next`] waits at most `poll`.
    pub fn new(stream: TcpStream, poll: Duration) -> Result<Self, WireError> {
        stream
            .set_read_timeout(Some(poll))
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(FrameReader {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// The next decoded frame, or `Ok(None)` when none completed within
    /// the poll interval.
    pub fn next(&mut self) -> Result<Option<ServerMsg>, WireError> {
        loop {
            if let Some((kind, body, used)) = split_frame(&self.buf)? {
                let msg = decode(kind, body);
                self.buf.drain(..used);
                return msg.map(Some);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::Truncated("frame (stream ended)")),
                Ok(got) => self.buf.extend_from_slice(&chunk[..got]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }
}

/// Connects, sends HELLO and waits for CAPS: returns the write half, the
/// frame reader, and the daemon's `(tape_seed, batch_max)`.
pub fn handshake(
    addr: &str,
    graph_fingerprint: u64,
) -> Result<(TcpStream, FrameReader, u64, u32), WireError> {
    let io = |e: std::io::Error| WireError::Io(e.to_string());
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    // a wedged daemon must not block a SUBMIT forever
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    writer.write_all(&hello(graph_fingerprint)).map_err(io)?;
    let mut reader = FrameReader::new(stream, Duration::from_millis(50))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match reader.next()? {
            Some(ServerMsg::Caps {
                tape_seed,
                batch_max,
            }) => return Ok((writer, reader, tape_seed, batch_max)),
            Some(ServerMsg::Reject { code }) => {
                return Err(WireError::Io(format!("handshake refused with code {code}")))
            }
            Some(other) => return Err(WireError::Io(format!("expected CAPS, got {other:?}"))),
            None if std::time::Instant::now() > deadline => {
                return Err(WireError::Io("no CAPS within 10 s".to_string()))
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_body() -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&7u64.to_le_bytes()); // job id
        b.push(0); // status Ok
        b.extend_from_slice(&55u64.to_le_bytes()); // rounds
        b.extend_from_slice(&4u32.to_le_bytes()); // batch k
        b.extend_from_slice(&10u64.to_le_bytes()); // delivered
        b.extend_from_slice(&0u64.to_le_bytes()); // late
        b.extend_from_slice(&6u32.to_le_bytes()); // measured dilation
        b.extend_from_slice(&3u64.to_le_bytes()); // measured congestion
        b.extend_from_slice(&2u32.to_le_bytes()); // two nodes
        b.push(1);
        b.extend_from_slice(&3u32.to_le_bytes());
        b.extend_from_slice(&[9, 8, 7]);
        b.push(0);
        b
    }

    #[test]
    fn result_decodes_field_by_field() {
        let msg = decode(wire::RESULT, &result_body()).unwrap();
        assert_eq!(
            msg,
            ServerMsg::Result(JobResult {
                job_id: 7,
                status: 0,
                batch_k: 4,
                outputs: vec![Some(vec![9, 8, 7]), None],
            })
        );
    }

    #[test]
    fn every_truncation_of_every_server_frame_is_a_typed_error() {
        let mut caps = Vec::new();
        caps.extend_from_slice(&2u32.to_le_bytes());
        caps.extend_from_slice(&1u64.to_le_bytes());
        caps.extend_from_slice(&42u64.to_le_bytes());
        caps.extend_from_slice(&4u32.to_le_bytes());
        caps.extend_from_slice(&2u32.to_le_bytes());
        caps.extend_from_slice(&256u32.to_le_bytes());
        caps.extend_from_slice(&4096u64.to_le_bytes());
        caps.extend_from_slice(&40u32.to_le_bytes());
        let accepted = [5u64.to_le_bytes(), 1u64.to_le_bytes()].concat();
        let frames = [
            (wire::RESULT, result_body()),
            (wire::CAPS, caps),
            (wire::ACCEPTED, accepted),
        ];
        for (kind, body) in &frames {
            assert!(decode(*kind, body).is_ok());
            for cut in 0..body.len() {
                match decode(*kind, &body[..cut]) {
                    Err(WireError::Truncated(_)) => {}
                    other => panic!("kind {kind} cut at {cut}: {other:?}"),
                }
            }
            let mut long = body.clone();
            long.push(0);
            assert_eq!(decode(*kind, &long), Err(WireError::Trailing(*kind)));
        }
    }

    #[test]
    fn unknown_kinds_and_client_kinds_are_refused() {
        assert_eq!(decode(99, &[]), Err(WireError::UnknownKind(99)));
        // a client-to-server frame echoed back is not a server message
        assert_eq!(
            decode(wire::SUBMIT, &[0; 33]),
            Err(WireError::UnknownKind(wire::SUBMIT))
        );
    }

    #[test]
    fn a_huge_output_count_cannot_force_an_allocation() {
        let mut body = result_body();
        let at = body.len() - 13; // the output count field
        body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(wire::RESULT, &body),
            Err(WireError::Truncated("RESULT outputs"))
        );
    }

    #[test]
    fn split_frame_waits_for_whole_frames_and_bounds_lengths() {
        let f = frame(wire::ACCEPTED, &[1, 2, 3]);
        for cut in 0..f.len() {
            assert_eq!(split_frame(&f[..cut]), Ok(None), "cut {cut}");
        }
        let mut two = f.clone();
        two.extend_from_slice(&f);
        assert_eq!(
            split_frame(&two),
            Ok(Some((wire::ACCEPTED, &[1u8, 2, 3][..], f.len())))
        );
        let huge = frame(wire::RESULT, &[])
            .iter()
            .enumerate()
            .map(|(i, &b)| if i < 4 { 0xFF } else { b })
            .collect::<Vec<u8>>();
        assert_eq!(
            split_frame(&huge),
            Err(WireError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn submit_matches_the_documented_layout() {
        let declared = Budgets {
            dilation: 6,
            congestion: 3,
            payload_bytes: 8,
        };
        let f = submit(9, JobKind::Flood, 5, 6, &declared);
        let (kind, body, used) = split_frame(&f).unwrap().unwrap();
        assert_eq!((kind, used, body.len()), (wire::SUBMIT, f.len(), 33));
        assert_eq!(&body[..8], &9u64.to_le_bytes());
        assert_eq!(body[8], 0);
        assert_eq!(&body[9..13], &5u32.to_le_bytes());
        assert_eq!(&body[13..17], &6u32.to_le_bytes());
        assert_eq!(&body[17..21], &6u32.to_le_bytes());
        assert_eq!(&body[21..29], &3u64.to_le_bytes());
        assert_eq!(&body[29..33], &8u32.to_le_bytes());
    }

    #[test]
    fn reader_reports_a_stream_cut_mid_frame_as_truncated() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let f = frame(wire::ACCEPTED, &[0; 16]);
            s.write_all(&f).unwrap();
            s.write_all(&f[..9]).unwrap(); // then hang up mid-body
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = FrameReader::new(stream, Duration::from_millis(200)).unwrap();
        let mut got = Vec::new();
        let err = loop {
            match r.next() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => {}
                Err(e) => break e,
            }
        };
        server.join().unwrap();
        assert_eq!(got.len(), 1);
        assert!(matches!(err, WireError::Truncated(_)), "{err:?}");
    }
}
