//! Wire format and robustness primitives for the TCP transport.
//!
//! The socket supervisors (`socket.rs`) run the tree's reliable-delivery
//! protocol — per-link sequence numbers, acks, retransmits,
//! receiver-side dedup. This module puts that protocol in a byte form a
//! socket can carry: length-prefixed [`Frame`]s with an
//! explicit epoch handshake, a typed [`TransportError`] taxonomy for
//! everything a real wire does that a channel cannot (refused
//! connections, mid-stream resets, stale peers, corrupt frames), and a
//! deterministic capped-exponential [`backoff_delay`] schedule for the
//! per-peer connection supervisors in `socket.rs`.
//!
//! Payloads are opaque byte strings: the round messages are encoded by
//! the caller (the engine's cluster module hand-rolls a codec for its
//! algorithm messages), so this layer needs no serialization framework
//! and no knowledge of round semantics. What it *does* carry per data
//! frame is the routing and accounting envelope — consensus instance,
//! round, per-link sequence number, attempt counter, and the sender's
//! wall-clock stamp that feeds the online synchrony guard.

use std::io::{self, Read, Write};
use std::time::Duration;

use ssp_model::{process::MAX_PROCESSES, ProcessId};

use crate::chaos::{roll, splitmix};

/// Hard cap on a frame body, guarding length-prefix corruption: a
/// mangled prefix must fail fast as [`TransportError::FrameCorrupt`],
/// not allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// First reconnect backoff step.
pub const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Backoff ceiling: attempts beyond the doubling range all wait this
/// long (plus jitter).
pub const BACKOFF_CAP: Duration = Duration::from_millis(800);

/// Maximum additive jitter rolled on top of the exponential step.
pub const BACKOFF_JITTER_MAX: Duration = Duration::from_millis(25);

const SALT_BACKOFF: u64 = 0xb0ff;

/// What went wrong on a socket, classified: supervisors choose their
/// reaction (reconnect, drop the frame, drop the peer) by variant, and
/// the counters in [`TransportStats`] keep the taxonomy observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's listener refused the connection (not up yet, or
    /// gone). The supervisor backs off and retries.
    Refused,
    /// An established connection died mid-stream (reset, EOF, broken
    /// pipe). The supervisor reconnects and resends unacked frames.
    Reset,
    /// The peer introduced itself with an epoch older than one already
    /// seen: a leftover process from a previous incarnation. The
    /// connection is dropped; no state changes.
    StaleEpoch {
        /// The stale epoch the peer presented.
        got: u64,
        /// The newest epoch already seen from that peer.
        latest: u64,
    },
    /// The byte stream does not parse as a frame (bad tag, oversized
    /// or truncated length prefix). The connection is dropped —
    /// resynchronizing an unframed TCP stream is not possible.
    FrameCorrupt(String),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Refused => write!(f, "connection refused"),
            TransportError::Reset => write!(f, "connection reset"),
            TransportError::StaleEpoch { got, latest } => {
                write!(f, "stale epoch {got} (latest seen {latest})")
            }
            TransportError::FrameCorrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Classifies an I/O error from a connect or an established
    /// stream. Anything that is not a refusal is a reset: from the
    /// supervisor's point of view every mid-stream failure gets the
    /// same treatment (reconnect, resend unacked).
    #[must_use]
    pub fn from_io(err: &io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::ConnectionRefused => TransportError::Refused,
            _ => TransportError::Reset,
        }
    }
}

/// One unit on the wire. Every frame is encoded as
/// `u32-LE body length ‖ body`, body = `tag byte ‖ fields` (all
/// integers little-endian).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: who is calling and which
    /// incarnation of it. Receivers drop connections whose epoch is
    /// older than the newest already seen from that peer
    /// ([`TransportError::StaleEpoch`]), so a wedged predecessor
    /// process cannot ghost-write into the current run.
    Hello {
        /// The connecting process.
        src: ProcessId,
        /// Monotone incarnation number of the sender process.
        epoch: u64,
    },
    /// A round message. `seq` is the per-sender sequence number that
    /// drives ack/retransmit/dedup; `attempt` is the retransmission
    /// count (0 = first send), on which the sender's
    /// [`SocketFaults`](crate::SocketFaults) roll each copy's drop; and
    /// `sent_micros` is the sender's wall-clock stamp feeding the
    /// receiver's one-way-delay measurement against Δ.
    Data {
        /// Consensus instance the payload belongs to.
        instance: u64,
        /// Round within the instance.
        round: u32,
        /// Per-sender wire sequence number.
        seq: u64,
        /// Retransmission attempt, 0-based.
        attempt: u32,
        /// Sender wall clock, microseconds since the Unix epoch.
        sent_micros: u64,
        /// Opaque round-message bytes (caller-encoded).
        payload: Vec<u8>,
    },
    /// Acknowledges receipt of the sender's `seq` (cumulative per
    /// frame, not per range). Rides the acknowledging process's *own*
    /// outgoing connection to the original sender.
    Ack {
        /// The acknowledged [`Frame::Data`] sequence number.
        seq: u64,
    },
    /// Keep-alive for the failure detector: proof the sender was
    /// scheduled recently. Unsequenced, never retransmitted, never
    /// chaos-targeted.
    Heartbeat {
        /// Sender wall clock, microseconds since the Unix epoch.
        sent_micros: u64,
    },
    /// The sender's synchrony guard aborted the run (degrade mode
    /// `abort`): peers should halt the instance undecided rather than
    /// decide without the aborted process.
    Abort {
        /// The instance being abandoned.
        instance: u64,
    },
    /// An external client submits one command for replication. The
    /// `(client, req)` pair is the idempotency key: a gateway that has
    /// already decided it re-acks instead of re-admitting, so a client
    /// may resubmit across reconnects without double-applying.
    Submit {
        /// Client identity (client-chosen, stable across reconnects).
        client: u64,
        /// Client-local request number, monotone per client.
        req: u64,
        /// Opaque command bytes (caller-encoded, like [`Frame::Data`]).
        payload: Vec<u8>,
    },
    /// Gateway → client: the submission identified by `req` was decided
    /// by some consensus instance and applied to the store. `seq` is
    /// the deciding instance and `round` the round it decided in —
    /// the client-observed latency ledger for Theorem 5.2.
    ClientAck {
        /// The acknowledged [`Frame::Submit`] request number.
        req: u64,
        /// Consensus instance that decided the command.
        seq: u64,
        /// Round within that instance where the decision fell.
        round: u32,
    },
    /// Gateway → client: at its instance boundary this node found
    /// another node accepting; retry against `group`.
    Redirect {
        /// The refused [`Frame::Submit`] request number.
        req: u64,
        /// Index of the node/group the client should target instead.
        group: u32,
    },
    /// Gateway → client: the admission queue is full. Back off for at
    /// least `retry_after_ms` before resubmitting.
    Busy {
        /// The refused [`Frame::Submit`] request number.
        req: u64,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u32,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_DATA: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_SUBMIT: u8 = 6;
const TAG_CLIENT_ACK: u8 = 7;
const TAG_REDIRECT: u8 = 8;
const TAG_BUSY: u8 = 9;

fn take<const N: usize>(buf: &[u8], at: &mut usize) -> Result<[u8; N], TransportError> {
    let end = at
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| TransportError::FrameCorrupt("truncated body".into()))?;
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[*at..end]);
    *at = end;
    Ok(out)
}

fn take_u32(buf: &[u8], at: &mut usize) -> Result<u32, TransportError> {
    Ok(u32::from_le_bytes(take::<4>(buf, at)?))
}

fn take_u64(buf: &[u8], at: &mut usize) -> Result<u64, TransportError> {
    Ok(u64::from_le_bytes(take::<8>(buf, at)?))
}

/// A `u32` process index, inside the process universe.
fn take_process(buf: &[u8], at: &mut usize) -> Result<ProcessId, TransportError> {
    match take_u32(buf, at)? as usize {
        i if i < MAX_PROCESSES => Ok(ProcessId::new(i)),
        i => Err(TransportError::FrameCorrupt(format!(
            "process index {i} out of range"
        ))),
    }
}

/// A `u32`-length-prefixed payload, capped at [`MAX_FRAME_LEN`].
fn take_payload(buf: &[u8], at: &mut usize) -> Result<Vec<u8>, TransportError> {
    let len = take_u32(buf, at)? as usize;
    if len > MAX_FRAME_LEN {
        return Err(TransportError::FrameCorrupt(format!(
            "payload length {len} exceeds cap"
        )));
    }
    let end = at
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| TransportError::FrameCorrupt("truncated payload".into()))?;
    let payload = buf[*at..end].to_vec();
    *at = end;
    Ok(payload)
}

/// The body length a frame's length prefix announces, capped at
/// [`MAX_FRAME_LEN`].
fn body_len(prefix: [u8; 4]) -> Result<usize, TransportError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TransportError::FrameCorrupt(format!(
            "frame length {len} exceeds cap"
        )));
    }
    Ok(len)
}

impl Frame {
    /// Encodes the frame body (everything after the length prefix).
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Frame::Hello { src, epoch } => {
                b.push(TAG_HELLO);
                b.extend_from_slice(&(src.index() as u32).to_le_bytes());
                b.extend_from_slice(&epoch.to_le_bytes());
            }
            Frame::Data {
                instance,
                round,
                seq,
                attempt,
                sent_micros,
                payload,
            } => {
                b.push(TAG_DATA);
                b.extend_from_slice(&instance.to_le_bytes());
                b.extend_from_slice(&round.to_le_bytes());
                b.extend_from_slice(&seq.to_le_bytes());
                b.extend_from_slice(&attempt.to_le_bytes());
                b.extend_from_slice(&sent_micros.to_le_bytes());
                b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                b.extend_from_slice(payload);
            }
            Frame::Ack { seq } => {
                b.push(TAG_ACK);
                b.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Heartbeat { sent_micros } => {
                b.push(TAG_HEARTBEAT);
                b.extend_from_slice(&sent_micros.to_le_bytes());
            }
            Frame::Abort { instance } => {
                b.push(TAG_ABORT);
                b.extend_from_slice(&instance.to_le_bytes());
            }
            Frame::Submit {
                client,
                req,
                payload,
            } => {
                b.push(TAG_SUBMIT);
                b.extend_from_slice(&client.to_le_bytes());
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                b.extend_from_slice(payload);
            }
            Frame::ClientAck { req, seq, round } => {
                b.push(TAG_CLIENT_ACK);
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&seq.to_le_bytes());
                b.extend_from_slice(&round.to_le_bytes());
            }
            Frame::Redirect { req, group } => {
                b.push(TAG_REDIRECT);
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&group.to_le_bytes());
            }
            Frame::Busy {
                req,
                retry_after_ms,
            } => {
                b.push(TAG_BUSY);
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
        }
        b
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameCorrupt`] on an unknown tag, a truncated
    /// body, a process index outside the universe, or trailing garbage.
    pub fn decode_body(buf: &[u8]) -> Result<Frame, TransportError> {
        let mut at = 0usize;
        let [tag] = take::<1>(buf, &mut at)?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                src: take_process(buf, &mut at)?,
                epoch: take_u64(buf, &mut at)?,
            },
            TAG_DATA => Frame::Data {
                instance: take_u64(buf, &mut at)?,
                round: take_u32(buf, &mut at)?,
                seq: take_u64(buf, &mut at)?,
                attempt: take_u32(buf, &mut at)?,
                sent_micros: take_u64(buf, &mut at)?,
                payload: take_payload(buf, &mut at)?,
            },
            TAG_ACK => Frame::Ack {
                seq: take_u64(buf, &mut at)?,
            },
            TAG_HEARTBEAT => Frame::Heartbeat {
                sent_micros: take_u64(buf, &mut at)?,
            },
            TAG_ABORT => Frame::Abort {
                instance: take_u64(buf, &mut at)?,
            },
            TAG_SUBMIT => Frame::Submit {
                client: take_u64(buf, &mut at)?,
                req: take_u64(buf, &mut at)?,
                payload: take_payload(buf, &mut at)?,
            },
            TAG_CLIENT_ACK => Frame::ClientAck {
                req: take_u64(buf, &mut at)?,
                seq: take_u64(buf, &mut at)?,
                round: take_u32(buf, &mut at)?,
            },
            TAG_REDIRECT => Frame::Redirect {
                req: take_u64(buf, &mut at)?,
                group: take_u32(buf, &mut at)?,
            },
            TAG_BUSY => Frame::Busy {
                req: take_u64(buf, &mut at)?,
                retry_after_ms: take_u32(buf, &mut at)?,
            },
            other => {
                return Err(TransportError::FrameCorrupt(format!(
                    "unknown frame tag {other}"
                )))
            }
        };
        if at != buf.len() {
            return Err(TransportError::FrameCorrupt(format!(
                "{} trailing byte(s)",
                buf.len() - at
            )));
        }
        Ok(frame)
    }

    /// Writes `length prefix ‖ body` to `w` (one `write_all`, so a
    /// frame is never interleaved when the writer is exclusive).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (classify with
    /// [`TransportError::from_io`]).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        w.write_all(&out)
    }

    /// Reads one `length prefix ‖ body` frame from `r`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Reset`] on EOF or any I/O failure,
    /// [`TransportError::FrameCorrupt`] on an oversized prefix or an
    /// unparseable body.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, TransportError> {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix)
            .map_err(|e| TransportError::from_io(&e))?;
        let mut body = vec![0u8; body_len(prefix)?];
        r.read_exact(&mut body)
            .map_err(|e| TransportError::from_io(&e))?;
        Frame::decode_body(&body)
    }

    /// Parses the first `length prefix ‖ body` frame at the start of
    /// `buf`, returning it with the number of bytes it spans, or
    /// `Ok(None)` while the frame is still incomplete. The caller
    /// drains the spanned bytes.
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameCorrupt`] on an oversized prefix or an
    /// unparseable body.
    pub fn split_buffered(buf: &[u8]) -> Result<Option<(Frame, usize)>, TransportError> {
        let Some(&prefix) = buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let end = 4 + body_len(prefix)?;
        match buf.get(4..end) {
            Some(body) => Ok(Some((Frame::decode_body(body)?, end))),
            None => Ok(None),
        }
    }
}

/// The reconnect delay before attempt `attempt` (0-based) of the
/// `src → dst` supervisor: capped-exponential
/// (`BACKOFF_BASE · 2^attempt`, ceiling [`BACKOFF_CAP`]) plus a
/// deterministic per-`(seed, link, attempt)` jitter in
/// `[0, BACKOFF_JITTER_MAX]` — same splitmix discipline as the chaos
/// plane, so two runs with one seed back off identically while
/// distinct links never thunder in herd.
#[must_use]
pub fn backoff_delay(seed: u64, src: ProcessId, dst: ProcessId, attempt: u32) -> Duration {
    let shift = attempt.min(16);
    let step = BACKOFF_BASE
        .saturating_mul(1u32 << shift.min(5))
        .min(BACKOFF_CAP);
    let span = BACKOFF_JITTER_MAX.as_micros() as u64;
    let jitter = splitmix(roll(seed, SALT_BACKOFF, src, dst, 0, attempt)) % (span + 1);
    step + Duration::from_micros(jitter)
}

/// Socket-transport counters. All non-deterministic (they depend on
/// real scheduling and wire behavior), so the engine reports them in
/// the non-deterministic section of its stats, never in the
/// deterministic core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections (re-)established after the first success per peer.
    pub reconnects: u64,
    /// Data frames retransmitted (RTO expiry or reconnect resend).
    pub retransmits: u64,
    /// Total backoff time waited across all reconnect attempts,
    /// microseconds.
    pub backoff_micros: u64,
    /// Data frames delivered to the round layer (post-dedup).
    pub delivered: u64,
    /// Duplicate data frames suppressed by receiver-side dedup.
    pub dup_suppressed: u64,
    /// Data frames whose measured one-way delay exceeded Δ.
    pub late_frames: u64,
    /// Frames dropped for carrying a stale epoch.
    pub stale_epoch_drops: u64,
    /// Connections dropped on a corrupt frame.
    pub corrupt_drops: u64,
    /// Largest one-way delay measured on a stamped frame (data or
    /// heartbeat), microseconds: what Δ must cover.
    pub max_delay_micros: u64,
    /// Longest silence, on the observer's running clock, of a peer
    /// that later spoke again, microseconds: what the PFD timeout must
    /// cover. A peer's first frame ends no silence.
    pub max_silence_micros: u64,
}

/// Gateway admission counters. Like [`TransportStats`], these depend
/// on real client timing (reconnects, queue pressure), so the engine
/// reports them in the non-deterministic section of its stats, never
/// in the deterministic core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Submissions admitted into the external proposal queue.
    pub admitted: u64,
    /// Submissions recognized as duplicates of an already-admitted or
    /// already-decided `(client, req)` and re-acked instead.
    pub deduped: u64,
    /// Submissions refused with [`Frame::Busy`] (queue full).
    pub busy_rejected: u64,
    /// Submissions refused with [`Frame::Redirect`] (another node
    /// accepts).
    pub redirects: u64,
}

impl GatewayStats {
    /// Component-wise sum, for aggregating per-node counters.
    #[must_use]
    pub fn merged(self, other: GatewayStats) -> GatewayStats {
        GatewayStats {
            admitted: self.admitted + other.admitted,
            deduped: self.deduped + other.deduped,
            busy_rejected: self.busy_rejected + other.busy_rejected,
            redirects: self.redirects + other.redirects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn frames_roundtrip_through_bytes() {
        let frames = vec![
            Frame::Hello {
                src: p(3),
                epoch: 17,
            },
            Frame::Data {
                instance: 9,
                round: 2,
                seq: 41,
                attempt: 1,
                sent_micros: 1_234_567,
                payload: vec![0, 1, 2, 255],
            },
            Frame::Data {
                instance: 0,
                round: 1,
                seq: 0,
                attempt: 0,
                sent_micros: 0,
                payload: Vec::new(),
            },
            Frame::Ack { seq: 41 },
            Frame::Heartbeat {
                sent_micros: 99_000,
            },
            Frame::Abort { instance: 12 },
            Frame::Submit {
                client: 7,
                req: 3,
                payload: vec![9, 8, 7],
            },
            Frame::Submit {
                client: u64::MAX,
                req: 0,
                payload: Vec::new(),
            },
            Frame::ClientAck {
                req: 3,
                seq: 12,
                round: 2,
            },
            Frame::Redirect { req: 4, group: 1 },
            Frame::Busy {
                req: 5,
                retry_after_ms: 40,
            },
        ];
        for f in frames {
            let mut wire = Vec::new();
            f.write_to(&mut wire).unwrap();
            let back = Frame::read_from(&mut wire.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        // Unknown tag.
        let err = Frame::decode_body(&[200]).unwrap_err();
        assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        // Truncated body.
        let err = Frame::decode_body(&[TAG_ACK, 1, 2]).unwrap_err();
        assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        // Trailing garbage.
        let mut body = Frame::Ack { seq: 1 }.encode_body();
        body.push(0);
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        // A hello from outside the process universe.
        let mut body = vec![TAG_HELLO];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Truncated client frames are corrupt, not panics.
        for f in [
            Frame::Submit {
                client: 1,
                req: 2,
                payload: vec![3, 4],
            },
            Frame::ClientAck {
                req: 1,
                seq: 2,
                round: 3,
            },
            Frame::Redirect { req: 1, group: 0 },
            Frame::Busy {
                req: 1,
                retry_after_ms: 10,
            },
        ] {
            let mut body = f.encode_body();
            body.truncate(body.len() - 1);
            let err = Frame::decode_body(&body).unwrap_err();
            assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        }
        // A Submit whose payload length field exceeds the cap fails
        // before allocating.
        let mut body = vec![TAG_SUBMIT];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode_body(&body).unwrap_err();
        assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        // Oversized length prefix fails before allocating.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::read_from(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err}");
        // EOF mid-frame is a reset, not corruption.
        let mut wire = Vec::new();
        Frame::Ack { seq: 7 }.write_to(&mut wire).unwrap();
        wire.truncate(wire.len() - 1);
        let err = Frame::read_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err, TransportError::Reset);
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let base = |a| backoff_delay(7, p(0), p(1), a) - jitter(7, p(0), p(1), a);
        assert_eq!(base(0), BACKOFF_BASE);
        assert_eq!(base(1), BACKOFF_BASE * 2);
        assert_eq!(base(2), BACKOFF_BASE * 4);
        assert_eq!(base(3), BACKOFF_BASE * 8);
        assert_eq!(base(4), BACKOFF_BASE * 16);
        // Capped from here on.
        assert_eq!(base(5), BACKOFF_CAP);
        assert_eq!(base(6), BACKOFF_CAP);
        assert_eq!(base(40), BACKOFF_CAP);
    }

    fn jitter(seed: u64, src: ProcessId, dst: ProcessId, attempt: u32) -> Duration {
        let span = BACKOFF_JITTER_MAX.as_micros() as u64;
        Duration::from_micros(splitmix(roll(seed, SALT_BACKOFF, src, dst, 0, attempt)) % (span + 1))
    }

    #[test]
    fn backoff_jitter_is_seed_deterministic_and_bounded() {
        for attempt in 0..8 {
            let a = backoff_delay(42, p(1), p(2), attempt);
            let b = backoff_delay(42, p(1), p(2), attempt);
            assert_eq!(a, b, "same seed, same delay");
            let floor = BACKOFF_BASE
                .saturating_mul(1 << attempt.min(5))
                .min(BACKOFF_CAP);
            assert!(a >= floor && a <= floor + BACKOFF_JITTER_MAX);
        }
        // Different seeds or links de-synchronize the jitter somewhere
        // in the schedule.
        assert!(
            (0..8).any(|a| backoff_delay(1, p(0), p(1), a) != backoff_delay(2, p(0), p(1), a)),
            "seed must reach the jitter"
        );
        assert!(
            (0..8).any(|a| backoff_delay(1, p(0), p(1), a) != backoff_delay(1, p(0), p(2), a)),
            "link identity must reach the jitter"
        );
    }

    #[test]
    fn gateway_stats_merge_component_wise() {
        let a = GatewayStats {
            admitted: 3,
            deduped: 1,
            busy_rejected: 0,
            redirects: 2,
        };
        let b = GatewayStats {
            admitted: 4,
            deduped: 0,
            busy_rejected: 5,
            redirects: 1,
        };
        let m = a.merged(b);
        assert_eq!(m.admitted, 7);
        assert_eq!(m.deduped, 1);
        assert_eq!(m.busy_rejected, 5);
        assert_eq!(m.redirects, 3);
    }

    #[test]
    fn io_errors_classify_by_kind() {
        let refused = io::Error::new(io::ErrorKind::ConnectionRefused, "nope");
        assert_eq!(TransportError::from_io(&refused), TransportError::Refused);
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "gone");
        assert_eq!(TransportError::from_io(&reset), TransportError::Reset);
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(TransportError::from_io(&eof), TransportError::Reset);
    }
}
