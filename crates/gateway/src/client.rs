//! Blocking gateway client: one TCP session speaking the client half
//! of the frame protocol, with reconnect, redirect-following, and
//! idempotent resubmission.
//!
//! The client's contract mirrors the gateway's dedup ledger: a request
//! id is never reused for different operations, so resubmitting after
//! a lost ack, a `Busy`, a `Redirect`, or a `kill -9`'d node is always
//! safe — the cluster either admits the command once or re-acks the
//! original decision coordinates.

use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ssp_engine::{encode_external_ops, Op};
use ssp_runtime::Frame;

/// Configuration of one gateway client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Stable client identity (survives reconnects; must be below
    /// `2^31` to fit the external command-id space).
    pub client_id: u64,
    /// Gateway address of each cluster node, node order. `Redirect`
    /// frames index into this list.
    pub targets: Vec<String>,
    /// Per-submission give-up: how long a request may retry before
    /// [`GatewayClient::submit`] reports `TimedOut`.
    pub deadline: Duration,
}

/// How long one attempt waits for an ack before resubmitting.
const ACK_WAIT: Duration = Duration::from_millis(250);

/// Cap on the reconnect/retry backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Dial timeout per connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

impl ClientConfig {
    /// Defaults: 10 s deadline. Every attempt waits 250 ms for its ack
    /// and resubmits at once when that wait expires; failed dials,
    /// `Busy` and `Redirect` back off up to 200 ms.
    #[must_use]
    pub fn new(client_id: u64, targets: Vec<String>) -> Self {
        ClientConfig {
            client_id,
            targets,
            deadline: Duration::from_secs(10),
        }
    }
}

/// A decided submission: the consensus coordinates the cluster acked
/// it with, plus the client-observed latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledged request id.
    pub req: u64,
    /// Consensus instance that decided the command.
    pub instance: u64,
    /// Round within that instance where the decision fell — the
    /// client-visible face of Theorem 5.2's latency degree.
    pub round: u32,
    /// Wall-clock submit-to-ack latency.
    pub elapsed: Duration,
}

/// Client-side protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests handed to [`GatewayClient::submit`].
    pub submitted: u64,
    /// Requests acked (exactly once each, by construction).
    pub acked: u64,
    /// Wire-level resubmissions beyond each request's first send.
    pub resubmissions: u64,
    /// `Busy` responses absorbed.
    pub busy: u64,
    /// `Redirect` responses followed.
    pub redirects: u64,
    /// Connections (re)established after the first.
    pub reconnects: u64,
    /// Requests abandoned at the deadline.
    pub gave_up: u64,
}

/// One live connection with its incremental frame parse buffer.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn dial(addr: &str) -> io::Result<Conn> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("{addr}: no address")))?;
        let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(5)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.stream)
    }

    /// Waits up to `wait` for one full frame; `Ok(None)` on timeout.
    fn poll(&mut self, wait: Duration) -> io::Result<Option<Frame>> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some((frame, used)) =
                Frame::split_buffered(&self.buf).map_err(|e| io::Error::other(format!("{e:?}")))?
            {
                self.buf.drain(..used);
                return Ok(Some(frame));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::ConnectionReset.into()),
                Ok(got) => self.buf.extend_from_slice(&chunk[..got]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A blocking, closed-loop gateway client: at most one request in
/// flight, resubmitted until acked or past the deadline.
#[derive(Debug)]
pub struct GatewayClient {
    cfg: ClientConfig,
    target: usize,
    conn: Option<Conn>,
    next_req: u64,
    consecutive_dial_failures: u32,
    /// Running protocol counters.
    pub stats: ClientStats,
}

impl GatewayClient {
    /// A client over `cfg.targets`, starting against node 0.
    ///
    /// # Panics
    ///
    /// Panics on an empty target list.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        assert!(
            !cfg.targets.is_empty(),
            "a client needs at least one gateway"
        );
        GatewayClient {
            cfg,
            target: 0,
            conn: None,
            next_req: 0,
            consecutive_dial_failures: 0,
            stats: ClientStats::default(),
        }
    }

    /// Deterministic capped backoff for retry `attempt`.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = Duration::from_millis(5);
        base.saturating_mul(1u32 << attempt.min(6)).min(BACKOFF_CAP)
    }

    fn rotate_target(&mut self) {
        self.target = (self.target + 1) % self.cfg.targets.len();
    }

    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let addr = self.cfg.targets[self.target].clone();
            match Conn::dial(&addr) {
                Ok(conn) => {
                    self.consecutive_dial_failures = 0;
                    self.conn = Some(conn);
                }
                Err(e) => {
                    // A dead node's port refuses forever: rotate after
                    // a couple of failed dials instead of burning the
                    // whole deadline against it.
                    self.consecutive_dial_failures += 1;
                    if self.consecutive_dial_failures >= 2 {
                        self.rotate_target();
                        self.consecutive_dial_failures = 0;
                    }
                    return Err(e);
                }
            }
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    fn drop_conn(&mut self) {
        if self.conn.take().is_some() {
            self.stats.reconnects += 1;
        }
    }

    /// Submits `ops` under the next fresh request id and blocks until
    /// the cluster acks it.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the deadline passes without an ack; the request
    /// id is burned (never reused for different operations).
    pub fn submit(&mut self, ops: &[Op]) -> io::Result<Ack> {
        let req = self.next_req;
        self.next_req += 1;
        self.submit_req(req, ops)
    }

    /// Submits under an explicit request id — the idempotent-retry
    /// surface: calling this again with the same `(req, ops)` after a
    /// failure cannot double-apply.
    ///
    /// # Errors
    ///
    /// `TimedOut` past the deadline; `InvalidInput` for a client id
    /// outside the external command-id space.
    pub fn submit_req(&mut self, req: u64, ops: &[Op]) -> io::Result<Ack> {
        if self.cfg.client_id >= 1 << 31 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "client id must be below 2^31",
            ));
        }
        let payload = encode_external_ops(ops);
        let start = Instant::now();
        let give_up = start + self.cfg.deadline;
        let mut attempt = 0u32;
        // A full ack wait on a live session already paced the retry.
        let mut paced = false;
        self.stats.submitted += 1;
        loop {
            if Instant::now() >= give_up {
                self.stats.gave_up += 1;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("request {req} unacked within {:?}", self.cfg.deadline),
                ));
            }
            if attempt > 0 {
                self.stats.resubmissions += 1;
                if !paced {
                    std::thread::sleep(self.backoff(attempt));
                }
            }
            attempt += 1;
            paced = false;
            let frame = Frame::Submit {
                client: self.cfg.client_id,
                req,
                payload: payload.clone(),
            };
            let conn = match self.ensure_conn() {
                Ok(conn) => conn,
                Err(_) => continue,
            };
            if conn.send(&frame).is_err() {
                self.drop_conn();
                continue;
            }
            // One response cycle: wait out Busy/foreign frames until
            // the ack, a redirect, a timeout, or connection death.
            let cycle_end = Instant::now() + ACK_WAIT;
            while let Some(conn) = self.conn.as_mut() {
                match conn.poll(cycle_end.saturating_duration_since(Instant::now())) {
                    Ok(Some(Frame::ClientAck { req: r, seq, round })) if r == req => {
                        self.stats.acked += 1;
                        return Ok(Ack {
                            req,
                            instance: seq,
                            round,
                            elapsed: start.elapsed(),
                        });
                    }
                    Ok(Some(Frame::Busy {
                        req: r,
                        retry_after_ms,
                    })) if r == req => {
                        self.stats.busy += 1;
                        std::thread::sleep(
                            Duration::from_millis(u64::from(retry_after_ms)).min(BACKOFF_CAP),
                        );
                        break; // resubmit
                    }
                    Ok(Some(Frame::Redirect { req: r, group })) if r == req => {
                        self.stats.redirects += 1;
                        let to = group as usize % self.cfg.targets.len();
                        if to != self.target {
                            self.target = to;
                            self.drop_conn();
                        }
                        break; // resubmit at the new target
                    }
                    Ok(Some(_)) => {} // stale frame for an older req
                    Ok(None) => {
                        // Ack lost, or still held by the node: resubmit.
                        paced = true;
                        break;
                    }
                    Err(_) => {
                        self.drop_conn();
                        self.rotate_target();
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    /// A node that holds a submission answers it only at its next
    /// instance boundary, which may come after the client's ack wait:
    /// the client resubmits once, at once, and takes the late ack.
    #[test]
    fn a_held_submission_is_resubmitted_once_and_its_late_ack_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let gateway = std::thread::spawn(move || {
            let (mut session, _) = listener.accept().unwrap();
            session
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // Hold the first copy past the client's ack wait; answer
            // when the resubmission shows that wait has expired.
            let first = Frame::read_from(&mut session).unwrap();
            let again = Frame::read_from(&mut session).unwrap();
            assert_eq!(first, again, "a resubmission repeats the request");
            let Frame::Submit { req, .. } = again else {
                panic!("not a submission: {again:?}");
            };
            Frame::ClientAck {
                req,
                seq: 4,
                round: 2,
            }
            .write_to(&mut session)
            .unwrap();
        });
        let mut client = GatewayClient::new(ClientConfig::new(3, vec![addr]));
        let ack = client.submit(&[Op::Put { key: 1, value: 2 }]).unwrap();
        gateway.join().unwrap();
        assert_eq!((ack.req, ack.instance, ack.round), (0, 4, 2));
        assert!(ack.elapsed >= ACK_WAIT, "{:?}", ack.elapsed);
        assert_eq!(
            client.stats,
            ClientStats {
                submitted: 1,
                acked: 1,
                resubmissions: 1,
                ..ClientStats::default()
            }
        );
    }
}
