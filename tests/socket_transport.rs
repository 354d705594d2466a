//! Transport-level guarantees of the socket layer, exercised through
//! the public API: deterministic capped-exponential backoff, the frame
//! codec's corruption taxonomy, and — the §3 discipline — suspicion
//! gated exclusively on the PFD staleness timeout, never on TCP
//! connection state.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ssp::model::ProcessId;
use ssp::runtime::{
    backoff_delay, FdModule, Frame, FrameReader, SocketConfig, SocketFaults, SocketMsg, SocketNet,
    TimeoutFd, TransportError, BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER_MAX,
};

fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0");
    l.local_addr().expect("local addr").to_string()
}

#[test]
fn backoff_schedule_is_capped_exponential_with_bounded_jitter() {
    let (src, dst) = (ProcessId::new(0), ProcessId::new(1));
    let mut prev_base = Duration::ZERO;
    for attempt in 0..12 {
        let d = backoff_delay(7, src, dst, attempt);
        let base = (BACKOFF_BASE * 2u32.saturating_pow(attempt.min(5))).min(BACKOFF_CAP);
        assert!(
            d >= base && d < base + BACKOFF_JITTER_MAX,
            "attempt {attempt}: {d:?} outside [{base:?}, {base:?} + jitter)"
        );
        assert!(
            base >= prev_base,
            "schedule must be monotone before the cap"
        );
        prev_base = base;
    }
    // Past the cap the base stops growing.
    let capped = backoff_delay(7, src, dst, 30);
    assert!(capped < BACKOFF_CAP + BACKOFF_JITTER_MAX);
}

#[test]
fn backoff_jitter_is_deterministic_per_seed_and_varies_across_links() {
    let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    for attempt in 0..6 {
        assert_eq!(
            backoff_delay(42, p0, p1, attempt),
            backoff_delay(42, p0, p1, attempt),
            "same seed, same link, same attempt → same delay"
        );
    }
    // Different seeds or links must decorrelate somewhere in the
    // schedule (jitter is only 25 ms wide, so check several attempts).
    assert!(
        (0..8).any(|a| backoff_delay(42, p0, p1, a) != backoff_delay(43, p0, p1, a)),
        "seed must reach the jitter"
    );
    assert!(
        (0..8).any(|a| backoff_delay(42, p0, p1, a) != backoff_delay(42, p0, p2, a)),
        "link identity must reach the jitter"
    );
}

#[test]
fn frame_codec_roundtrips_and_classifies_corruption() {
    let frames = [
        Frame::Hello {
            src: ProcessId::new(2),
            epoch: 9,
        },
        Frame::Data {
            instance: 3,
            round: 1,
            seq: 77,
            attempt: 2,
            sent_micros: 123_456,
            payload: vec![1, 2, 3],
        },
        Frame::Ack { seq: 77 },
        Frame::Heartbeat { sent_micros: 5 },
        Frame::Abort { instance: 4 },
    ];
    for frame in &frames {
        let mut wire = Vec::new();
        frame.write_to(&mut wire).expect("encode");
        let back = Frame::read_from(&mut wire.as_slice()).expect("decode");
        assert_eq!(&back, frame);
        assert_eq!(
            Frame::split_buffered(&wire),
            Ok(Some((frame.clone(), wire.len())))
        );
        assert_eq!(Frame::split_buffered(&wire[..wire.len() - 1]), Ok(None));
    }
    // Truncated and garbage bodies surface as FrameCorrupt, not as a
    // panic or a silent misparse.
    let mut wire = Vec::new();
    frames[1].write_to(&mut wire).expect("encode");
    wire.truncate(wire.len() - 1);
    // Length prefix now promises more bytes than exist: an IO error.
    assert!(Frame::read_from(&mut wire.as_slice()).is_err());
    let bogus = [1u8, 0, 0, 0, 0xEE];
    match Frame::read_from(&mut bogus.as_slice()) {
        Err(TransportError::FrameCorrupt(_)) => {}
        other => panic!("unknown tag must be FrameCorrupt, got {other:?}"),
    }
}

/// A length prefix past the cap, written over a live loopback socket,
/// fails the reader with a typed `FrameCorrupt` before any allocation.
#[test]
fn frame_reader_rejects_an_oversized_prefix() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    server
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    client.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let err = FrameReader::new(server)
        .next(&AtomicBool::new(false))
        .unwrap_err();
    assert!(matches!(err, TransportError::FrameCorrupt(_)), "{err:?}");
}

fn spawn_pair(delta: Option<Duration>, faults: Option<SocketFaults>) -> (SocketNet, SocketNet) {
    let addr0 = free_addr();
    let addr1 = free_addr();
    // Node 0 applies the faults to its frames to node 1.
    let mk = |me: usize, listen: &str, faults| SocketConfig {
        me: ProcessId::new(me),
        n: 2,
        listen: listen.to_string(),
        peers: vec![addr0.clone(), addr1.clone()],
        epoch: 1,
        seed: 7,
        heartbeat: Duration::from_millis(20),
        delta,
        degrade: ssp::runtime::DegradeMode::Off,
        faults,
    };
    let net1 = SocketNet::spawn(mk(1, &addr1, None)).expect("spawn node 1");
    let net0 = SocketNet::spawn(mk(0, &addr0, faults)).expect("spawn node 0");
    (net0, net1)
}

/// The crux of the robustness story: a TCP reset followed by a
/// reconnect that stays inside Δ produces **zero** suspicions and
/// exactly-once delivery — connection loss is invisible to the
/// detector; only frame staleness counts.
#[test]
fn reset_and_reconnect_inside_delta_never_suspects() {
    let (net0, net1) = spawn_pair(
        Some(Duration::from_secs(5)),
        Some(SocketFaults {
            seed: 3,
            delay_pm: 0,
            delay: Duration::ZERO,
            drop_pm: 0,
            reset_after: Some(2),
        }),
    );
    let fd = TimeoutFd::new(net1.board(), Duration::from_secs(4), ProcessId::new(1));
    let monitor = net1.begin_instance(0);

    // The second data frame trips the scripted reset; retransmission
    // re-delivers it over the reconnected link.
    for (i, r) in [(0u64, 1u32), (0, 2), (1, 1), (1, 2)] {
        net0.send(
            ProcessId::new(1),
            i,
            ssp::model::Round::new(r),
            vec![u8::try_from(i).unwrap(), u8::try_from(r).unwrap()],
        );
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut got: Vec<SocketMsg> = Vec::new();
    while got.len() < 4 && std::time::Instant::now() < deadline {
        if let Ok(msg) = net1.recv_timeout(Duration::from_millis(50)) {
            got.push(msg);
        }
    }
    assert_eq!(got.len(), 4, "exactly-once delivery across the reset");
    assert!(
        fd.suspected_for(ProcessId::new(0)).is_none(),
        "a reset + reconnect inside Δ must not suspect anyone"
    );
    let report = monitor.report();
    assert!(
        !report.violated && report.degraded_at.is_none() && !report.aborted,
        "no synchrony trace may be left behind: {report:?}"
    );
    let stats0 = net0.shutdown();
    assert!(stats0.reconnects >= 1, "node 0 must have reconnected");
    net1.shutdown();
}

/// Dual of the above: silence past the PFD timeout *does* suspect —
/// and it is the timeout that decides, not the dead connection.
#[test]
fn suspicion_requires_the_pfd_timeout_not_connection_loss() {
    let (net0, net1) = spawn_pair(None, None);
    let fd = TimeoutFd::new(net1.board(), Duration::from_millis(600), ProcessId::new(1));
    // Let heartbeats flow both ways first.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        fd.suspected_for(ProcessId::new(0)).is_none(),
        "live peer must not be suspected"
    );
    // Kill node 0 without any goodbye: its connections die instantly,
    // but suspicion must wait for the staleness timeout.
    drop(net0);
    std::thread::sleep(Duration::from_millis(250));
    assert!(
        fd.suspected_for(ProcessId::new(0)).is_none(),
        "connection loss alone must not trigger suspicion"
    );
    std::thread::sleep(Duration::from_millis(700));
    assert!(
        fd.suspected_for(ProcessId::new(0)).is_some(),
        "after the timeout the dead peer must be suspected"
    );
    net1.shutdown();
}
