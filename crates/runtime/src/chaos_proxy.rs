//! Deterministic socket-level fault interposer.
//!
//! A [`ChaosProxy`] sits between a node's supervisor and its peer: one
//! TCP listener per **directed link**, forwarding length-prefixed
//! [`Frame`]s upstream while injecting faults — extra delay, drops,
//! and one-shot connection resets. Decisions use the same fault rule
//! as the in-process [`ChaosConfig`](crate::ChaosConfig): a fault is a
//! pure function of `(seed, src, dst, seq[, attempt])`, never of
//! wall-clock timing, so the *set* of injected faults is identical
//! across runs of the same seed even though real sockets execute them.
//!
//! Two scoping rules keep experiments sharp:
//!
//! * **delay decisions key on `seq` alone** (not the attempt number),
//!   so a retransmitted copy of a delayed frame is delayed too — the
//!   reliable-delivery layer cannot launder an injected Δ violation
//!   out of existence;
//! * **only `Data` frames are targeted** — `Hello`, `Heartbeat`, `Ack`
//!   and `Abort` pass through untouched, so the failure detector stays
//!   quiet while the synchrony guard is being provoked (suspicions and
//!   Δ violations can be injected independently).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};

use ssp_model::ProcessId;

use crate::net::{hits, roll};
use crate::transport::Frame;

/// Salt for the per-frame delay decision (keyed on seq only).
const SALT_PROXY_DELAY: u64 = 0x9d1a;
/// Salt for the per-copy drop decision (keyed on seq and attempt).
const SALT_PROXY_DROP: u64 = 0x9d0b;

/// One proxied directed link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Sending process (dials `listen`).
    pub src: ProcessId,
    /// Receiving process (reached at `upstream`).
    pub dst: ProcessId,
    /// Address the proxy listens on for this link.
    pub listen: String,
    /// The real destination address frames are forwarded to.
    pub upstream: String,
}

/// Fault script for a [`ChaosProxy`]; probabilities are per-mille and
/// resolved deterministically from the seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosProxyConfig {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Per-mille probability that a data frame is held for `delay`.
    pub delay_pm: u32,
    /// Extra one-way delay injected on selected frames.
    pub delay: Duration,
    /// Per-mille probability that one copy of a data frame is dropped.
    pub drop_pm: u32,
    /// Reset each link's connection once, after this many data frames
    /// have crossed it.
    pub reset_after: Option<u64>,
}

/// Counters of injected faults (observability only; determinism is
/// asserted on the cluster's own stats and audit verdicts).
#[derive(Debug, Default)]
struct ProxyStats {
    delayed: AtomicU64,
    dropped: AtomicU64,
    resets: AtomicU64,
}

/// Handle over the running interposer threads.
#[derive(Debug)]
pub struct ChaosProxy {
    shutdown: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    addrs: Vec<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a listener for each of `links` and spawns one forwarding
    /// thread per link, all injecting faults by `config`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn spawn(config: ChaosProxyConfig, links: Vec<LinkSpec>) -> io::Result<ChaosProxy> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let mut addrs = Vec::with_capacity(links.len());
        let mut threads = Vec::new();
        for (i, link) in links.into_iter().enumerate() {
            let listener = TcpListener::bind(&link.listen)?;
            addrs.push(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ssp-proxy-{i}"))
                    .spawn(move || link_acceptor(&config, &link, &listener, &shutdown, &stats))
                    .expect("spawn proxy link thread"),
            );
        }
        Ok(ChaosProxy {
            shutdown,
            stats,
            addrs,
            threads,
        })
    }

    /// Bound listener addresses, in `links` order (resolves
    /// `:0` binds to real ports).
    #[must_use]
    pub fn link_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// `(delayed, dropped, resets)` injected so far.
    #[must_use]
    pub fn injected(&self) -> (u64, u64, u64) {
        (
            self.stats.delayed.load(Ordering::Relaxed),
            self.stats.dropped.load(Ordering::Relaxed),
            self.stats.resets.load(Ordering::Relaxed),
        )
    }

    /// Stops all link threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn per_mille(seed: u64, salt: u64, link: &LinkSpec, seq: u64, attempt: u32, pm: u32) -> bool {
    hits(pm, roll(seed, salt, link.src, link.dst, seq, attempt))
}

/// Accepts connections for one directed link, handling them
/// sequentially — each reconnect from the supervisor gets a fresh
/// upstream connection.
fn link_acceptor(
    cfg: &ChaosProxyConfig,
    link: &LinkSpec,
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    // Data-frame count and the one-shot reset latch persist across
    // reconnects of this link.
    let data_seen = AtomicU64::new(0);
    let reset_done = AtomicBool::new(false);
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((downstream, _)) => {
                forward_connection(
                    cfg,
                    link,
                    downstream,
                    shutdown,
                    stats,
                    &data_seen,
                    &reset_done,
                );
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Pumps one downstream connection: parses frames, applies the fault
/// script, and forwards surviving bytes upstream (delayed frames hold
/// the line behind them, like a genuinely slow link would).
#[allow(clippy::too_many_arguments)]
fn forward_connection(
    cfg: &ChaosProxyConfig,
    link: &LinkSpec,
    downstream: TcpStream,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
    data_seen: &AtomicU64,
    reset_done: &AtomicBool,
) {
    let _ = downstream.set_nodelay(true);
    let _ = downstream.set_read_timeout(Some(Duration::from_millis(50)));
    // The upstream node may not be listening yet; retry briefly.
    let upstream = loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match TcpStream::connect(&link.upstream) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                break s;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    // Writer thread: releases frames at their due instant, in decision
    // order, so an injected delay also delays everything queued behind
    // it on this link.
    let (tx, rx) = unbounded::<(Instant, Vec<u8>)>();
    let writer_shutdown = Arc::clone(shutdown);
    let mut upstream_w = match upstream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::spawn(move || loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((due, bytes)) => {
                let mut left = due.saturating_duration_since(Instant::now());
                while !left.is_zero() && !writer_shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(left.min(Duration::from_millis(25)));
                    left = due.saturating_duration_since(Instant::now());
                }
                if upstream_w.write_all(&bytes).is_err() {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if writer_shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    });
    let mut downstream_r = downstream;
    let mut buf: Vec<u8> = Vec::new();
    'conn: loop {
        // Extract complete frames from the buffer; a corrupt one ends
        // the connection.
        loop {
            let (frame, used) = match Frame::split_buffered(&buf) {
                Ok(Some(split)) => split,
                Ok(None) => break,
                Err(_) => break 'conn,
            };
            let raw: Vec<u8> = buf.drain(..used).collect();
            let mut due = Instant::now();
            if let Frame::Data { seq, attempt, .. } = frame {
                let nth = data_seen.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(k) = cfg.reset_after {
                    if nth >= k && !reset_done.swap(true, Ordering::SeqCst) {
                        stats.resets.fetch_add(1, Ordering::Relaxed);
                        break 'conn;
                    }
                }
                if per_mille(cfg.seed, SALT_PROXY_DROP, link, seq, attempt, cfg.drop_pm) {
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Delay keys on seq alone: every copy of a delayed
                // frame is delayed, so retransmits cannot undo it.
                if per_mille(cfg.seed, SALT_PROXY_DELAY, link, seq, 0, cfg.delay_pm) {
                    stats.delayed.fetch_add(1, Ordering::Relaxed);
                    due += cfg.delay;
                }
            }
            if tx.send((due, raw)).is_err() {
                break 'conn;
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut chunk = [0u8; 4096];
        match downstream_r.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => buf.extend_from_slice(&chunk[..got]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::{SocketConfig, SocketNet};
    use ssp_model::Round;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Reserves a distinct loopback address by binding then dropping.
    fn free_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap().to_string();
        drop(l);
        a
    }

    /// Two nodes with the 0→1 direction proxied.
    fn proxied_pair(cfg: ChaosProxyConfig) -> (SocketNet, SocketNet, ChaosProxy) {
        let a_addr = free_addr();
        let b_addr = free_addr();
        let proxy_addr = free_addr();
        let proxy = ChaosProxy::spawn(
            cfg,
            vec![LinkSpec {
                src: p(0),
                dst: p(1),
                listen: proxy_addr.clone(),
                upstream: b_addr.clone(),
            }],
        )
        .unwrap();
        // Node 0 dials node 1 through the proxy; everything else is
        // direct.
        let a = SocketNet::spawn(SocketConfig::local(
            p(0),
            2,
            a_addr.clone(),
            vec![a_addr.clone(), proxy_addr],
        ))
        .unwrap();
        let b = SocketNet::spawn(SocketConfig::local(
            p(1),
            2,
            b_addr.clone(),
            vec![a_addr, b_addr],
        ))
        .unwrap();
        (a, b, proxy)
    }

    #[test]
    fn injected_delay_holds_frames_for_the_scripted_duration() {
        let (a, b, proxy) = proxied_pair(ChaosProxyConfig {
            seed: 7,
            delay_pm: 1000,
            delay: Duration::from_millis(300),
            drop_pm: 0,
            reset_after: None,
        });
        let t0 = Instant::now();
        a.send(p(1), 0, Round::FIRST, vec![5]);
        let got = b.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.payload, vec![5]);
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "frame arrived in {:?}, before the injected delay",
            t0.elapsed()
        );
        let (delayed, _, _) = proxy.injected();
        assert!(delayed >= 1);
        drop(a);
        drop(b);
        proxy.shutdown();
    }

    #[test]
    fn reset_link_recovers_through_reconnect_and_retransmit() {
        let (a, b, proxy) = proxied_pair(ChaosProxyConfig {
            seed: 7,
            delay_pm: 0,
            delay: Duration::ZERO,
            drop_pm: 0,
            reset_after: Some(1),
        });
        // The first data frame trips the one-shot reset; the
        // supervisor reconnects and resends, and delivery still
        // happens exactly once.
        a.send(p(1), 0, Round::FIRST, vec![8]);
        let got = b.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(got.payload, vec![8]);
        assert!(
            b.recv_timeout(Duration::from_millis(200)).is_err(),
            "dedup must suppress the retransmitted copy"
        );
        // Zero delay and drop rates inject nothing but the reset.
        assert_eq!(proxy.injected(), (0, 0, 1));
        let stats = a.stats();
        assert!(stats.reconnects >= 1, "supervisor must have reconnected");
        drop(a);
        drop(b);
        proxy.shutdown();
    }
}
