//! Pluggable time for the threaded runtime.
//!
//! Every wall-clock operation of the runtime — network delays, drain
//! periods, detector timeouts, oracle notification delays, stalls —
//! goes through a [`Clock`], which exists in two backends:
//!
//! * [`Backend::Real`] — thin wrappers over [`Instant`],
//!   [`std::thread::sleep`] and channel timeouts: the original
//!   wall-clock runtime, milliseconds and all.
//! * [`Backend::Virtual`] — a discrete-event scheduler. Threads still
//!   run on real OS threads, but "time" is a shared counter that only
//!   advances when *every* registered thread is parked (asleep or
//!   waiting on an empty channel). Every park has a deadline, so at
//!   that quiescence point the clock jumps straight to the earliest
//!   one — a 600 ms slow wire or a 200 ms drain costs a few
//!   microseconds of real time.
//!
//! The virtual backend preserves the runtime's observable behavior
//! because the determinism-by-margins design never lets an outcome
//! depend on sub-margin jitter: fast wires (≤ 1 ms + µs jitter) always
//! beat drains (200 ms) and detector timeouts (100 ms), slow wires
//! (600 ms+) always lose them, under either backend. The conformance
//! suite (`tests/backend_conformance.rs`) pins this down: both
//! backends emit byte-identical `RunLog`s per seed.
//!
//! The coordination protocol is deliberately simple — one mutex, one
//! condvar:
//!
//! * a thread that participates in virtual time is **registered**
//!   (by its spawner, before the spawn, so the count can never dip to
//!   zero spuriously) and deregisters on exit;
//! * blocking operations **park** the thread until a deadline: its
//!   running count slot is released and an entry `(gate, deadline)`
//!   joins the parked set;
//! * message senders **notify** a [`Gate`]; a parked receiver wakes
//!   immediately, a non-parked receiver finds the pending flag under
//!   the same lock it parks with — no lost wakeups;
//! * when the running count hits zero, the last parking thread
//!   advances `now` to the minimum pending deadline and wakes every
//!   entry due at that instant.

use core::fmt;
use std::collections::HashSet;
use std::ops::Add;
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

/// Which time backend a run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Discrete-event simulated time: quiescence-triggered jumps to
    /// the next deadline. Bit-deterministic and orders of magnitude
    /// faster than wall-clock margins.
    #[default]
    Virtual,
    /// Wall-clock time: real sleeps, real channel timeouts.
    Real,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Virtual => write!(f, "virtual"),
            Backend::Real => write!(f, "real"),
        }
    }
}

/// The error returned when parsing an unknown backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(pub String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown backend {:?} (expected virtual|real)", self.0)
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for Backend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "virtual" => Ok(Backend::Virtual),
            "real" => Ok(Backend::Real),
            other => Err(ParseBackendError(other.to_string())),
        }
    }
}

/// An instant on a [`Clock`]: nanoseconds since the clock's epoch.
/// Plays the role [`Instant`] played before time became pluggable —
/// totally ordered, addable with [`Duration`], saturating on
/// subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The clock's epoch.
    pub const ZERO: Tick = Tick(0);

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch.
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Time elapsed from `earlier` to `self`, zero if `earlier` is
    /// later.
    #[must_use]
    pub fn saturating_duration_since(self, earlier: Tick) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Tick {
    type Output = Tick;

    fn add(self, d: Duration) -> Tick {
        Tick(self.0.saturating_add(duration_nanos(d)))
    }
}

/// Saturating `Duration → u64` nanoseconds (durations beyond ~584
/// years all mean "never").
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Why a virtual park ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// The gate was notified (a message was sent).
    Notified,
    /// The deadline was reached (virtual time advanced to it).
    Deadline,
}

/// One parked thread.
struct Parked {
    /// The gate key the thread parked on.
    key: u64,
    /// Absolute wake deadline in nanos.
    deadline: u64,
    /// Set (with the running count re-incremented) when woken.
    wake: Option<Wake>,
}

/// Shared state of the virtual clock.
struct VirtState {
    /// Current virtual time, nanos since epoch.
    now: u64,
    /// Registered threads not currently parked.
    running: usize,
    /// Parked threads, unordered.
    parked: Vec<Parked>,
    /// Gates notified while nobody was parked on them.
    pending: HashSet<u64>,
    /// Next fresh gate key.
    next_key: u64,
}

/// The virtual-time coordinator.
struct VirtCore {
    state: Mutex<VirtState>,
    cv: Condvar,
}

impl VirtCore {
    /// Locks the state, swallowing poison (a panicked worker must not
    /// deadlock the remaining threads' clock operations).
    fn lock(&self) -> MutexGuard<'_, VirtState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn new() -> Arc<Self> {
        Arc::new(VirtCore {
            state: Mutex::new(VirtState {
                now: 0,
                running: 0,
                parked: Vec::new(),
                pending: HashSet::new(),
                next_key: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Jumps `now` to the earliest pending deadline and wakes every
    /// entry due at (or before) that instant. Called with the running
    /// count at zero; with nothing parked there is nothing to wake.
    fn advance(s: &mut VirtState) {
        debug_assert_eq!(s.running, 0, "advance requires quiescence");
        let Some(min) = s.parked.iter().map(|e| e.deadline).min() else {
            return;
        };
        s.now = s.now.max(min);
        for e in &mut s.parked {
            if e.wake.is_none() && e.deadline <= s.now {
                e.wake = Some(Wake::Deadline);
                s.running += 1;
            }
        }
    }

    /// Parks the calling (registered) thread on `key` until the gate
    /// is notified or `deadline` passes. Consumes a pending notify
    /// under the same lock — no lost wakeups.
    fn park(&self, key: u64, deadline: u64) -> Wake {
        let mut s = self.lock();
        if s.pending.remove(&key) {
            return Wake::Notified;
        }
        if deadline <= s.now {
            return Wake::Deadline;
        }
        s.running -= 1;
        s.parked.push(Parked {
            key,
            deadline,
            wake: None,
        });
        if s.running == 0 {
            Self::advance(&mut s);
            self.cv.notify_all();
        }
        loop {
            if let Some(pos) = s
                .parked
                .iter()
                .position(|e| e.key == key && e.wake.is_some())
            {
                let e = s.parked.swap_remove(pos);
                return e.wake.expect("woken entries carry a reason");
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Notifies `key`: wakes its parked thread, or flags the notify
    /// pending for the next park. Safe from any thread, registered or
    /// not.
    fn notify(&self, key: u64) {
        let mut s = self.lock();
        if let Some(e) = s.parked.iter_mut().find(|e| e.key == key) {
            if e.wake.is_none() {
                e.wake = Some(Wake::Notified);
                s.running += 1;
            }
        } else {
            s.pending.insert(key);
        }
        self.cv.notify_all();
    }

    fn fresh_key(&self) -> u64 {
        let mut s = self.lock();
        let key = s.next_key;
        s.next_key += 1;
        key
    }
}

impl fmt::Debug for VirtCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lock();
        f.debug_struct("VirtCore")
            .field("now", &s.now)
            .field("running", &s.running)
            .field("parked", &s.parked.len())
            .finish()
    }
}

#[derive(Debug, Clone)]
enum ClockInner {
    Real { epoch: Instant },
    Virtual { core: Arc<VirtCore> },
}

/// A cloneable time source. Every handle cloned from the same run
/// shares one epoch (and, under [`Backend::Virtual`], one simulated
/// timeline).
#[derive(Debug, Clone)]
pub struct Clock {
    inner: ClockInner,
}

impl Clock {
    /// A wall-clock backend anchored at the current instant.
    #[must_use]
    pub fn real() -> Self {
        Clock {
            inner: ClockInner::Real {
                epoch: Instant::now(),
            },
        }
    }

    /// A fresh virtual timeline starting at [`Tick::ZERO`].
    #[must_use]
    pub fn simulated() -> Self {
        Clock {
            inner: ClockInner::Virtual {
                core: VirtCore::new(),
            },
        }
    }

    /// The clock for a [`Backend`].
    #[must_use]
    pub fn for_backend(backend: Backend) -> Self {
        match backend {
            Backend::Real => Clock::real(),
            Backend::Virtual => Clock::simulated(),
        }
    }

    /// The current time on this clock.
    #[must_use]
    pub fn now(&self) -> Tick {
        match &self.inner {
            ClockInner::Real { epoch } => Tick(duration_nanos(epoch.elapsed())),
            ClockInner::Virtual { core } => Tick(core.lock().now),
        }
    }

    /// Reserves a running slot for a thread about to be spawned. Call
    /// from the spawner *before* the spawn, so quiescence can never be
    /// declared while the new thread is still on its way. No-op on the
    /// real backend.
    pub fn register(&self) {
        if let ClockInner::Virtual { core } = &self.inner {
            core.lock().running += 1;
        }
    }

    /// Releases a registered thread's running slot; call exactly once,
    /// from the registered thread, as its last clock operation. No-op
    /// on the real backend.
    pub fn deregister(&self) {
        if let ClockInner::Virtual { core } = &self.inner {
            let mut s = core.lock();
            s.running -= 1;
            if s.running == 0 {
                VirtCore::advance(&mut s);
                core.cv.notify_all();
            }
        }
    }

    /// Sleeps for `d`. Real backend: [`std::thread::sleep`]. Virtual
    /// backend: parks the (registered) calling thread until the
    /// timeline reaches `now + d`.
    pub fn sleep(&self, d: Duration) {
        match &self.inner {
            ClockInner::Real { .. } => std::thread::sleep(d),
            ClockInner::Virtual { core } => {
                if d.is_zero() {
                    return;
                }
                let deadline = core.lock().now.saturating_add(duration_nanos(d));
                let key = core.fresh_key();
                // A fresh key is never notified: the park can only end
                // at the deadline.
                let woke = core.park(key, deadline);
                debug_assert_eq!(woke, Wake::Deadline);
            }
        }
    }

    /// A new gate on this clock (no-op under the real backend).
    #[must_use]
    pub fn gate(&self) -> Gate {
        match &self.inner {
            ClockInner::Real { .. } => Gate { core: None, key: 0 },
            ClockInner::Virtual { core } => Gate {
                key: core.fresh_key(),
                core: Some(Arc::clone(core)),
            },
        }
    }

    /// Receives from `rx` within `timeout`, parking on `gate` under the
    /// virtual backend (senders must [`Gate::notify`] after sending).
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] after `timeout` with no message;
    /// [`RecvTimeoutError::Disconnected`] once every sender is gone
    /// and the channel is drained.
    pub fn recv<T>(
        &self,
        rx: &Receiver<T>,
        gate: &Gate,
        timeout: Duration,
    ) -> Result<T, RecvTimeoutError> {
        match &self.inner {
            ClockInner::Real { .. } => rx.recv_timeout(timeout),
            ClockInner::Virtual { core } => {
                let deadline = core.lock().now.saturating_add(duration_nanos(timeout));
                // Look once more after the deadline wake: a send racing
                // the deadline is a delivery, not a timeout.
                let mut expired = false;
                loop {
                    match rx.try_recv() {
                        Ok(v) => return Ok(v),
                        Err(TryRecvError::Disconnected) => {
                            return Err(RecvTimeoutError::Disconnected)
                        }
                        Err(TryRecvError::Empty) if expired => {
                            return Err(RecvTimeoutError::Timeout)
                        }
                        Err(TryRecvError::Empty) => {}
                    }
                    expired = core.park(gate.key, deadline) == Wake::Deadline;
                }
            }
        }
    }
}

/// A wakeup channel between a sender and one parked receiver. Under
/// the virtual backend, every send into a channel whose receiver parks
/// through [`Clock::recv`] must be followed by [`Gate::notify`];
/// under the real backend both ends are free no-ops.
#[derive(Debug, Clone)]
pub struct Gate {
    core: Option<Arc<VirtCore>>,
    key: u64,
}

impl Gate {
    /// Wakes the receiver parked on this gate (or flags the wake
    /// pending if it is not parked yet).
    pub fn notify(&self) {
        if let Some(core) = &self.core {
            core.notify(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("virtual".parse::<Backend>().unwrap(), Backend::Virtual);
        assert_eq!("real".parse::<Backend>().unwrap(), Backend::Real);
        assert_eq!(Backend::Virtual.to_string(), "virtual");
        assert_eq!(Backend::Real.to_string(), "real");
        let err = "fast".parse::<Backend>().unwrap_err();
        assert!(err.to_string().contains("fast"), "{err}");
        assert_eq!(Backend::default(), Backend::Virtual);
    }

    #[test]
    fn tick_arithmetic() {
        let t = Tick::ZERO + Duration::from_micros(3);
        assert_eq!(t.as_nanos(), 3_000);
        assert_eq!(t.as_micros(), 3);
        assert_eq!(
            (t + Duration::from_micros(2)).saturating_duration_since(t),
            Duration::from_micros(2)
        );
        assert_eq!(Tick::ZERO.saturating_duration_since(t), Duration::ZERO);
    }

    #[test]
    fn real_clock_advances_and_sleeps() {
        let clock = Clock::real();
        let a = clock.now();
        clock.sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b.saturating_duration_since(a) >= Duration::from_millis(2));
    }

    #[test]
    fn virtual_sleep_jumps_instead_of_waiting() {
        let clock = Clock::simulated();
        assert_eq!(clock.now(), Tick::ZERO);
        let wall = Instant::now();
        clock.register();
        // The only registered thread: its sleep is immediately the
        // quiescence point, so an hour passes in microseconds.
        clock.sleep(Duration::from_secs(3600));
        clock.deregister();
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(10), "no real wait");
    }

    #[test]
    fn virtual_recv_times_out_at_the_virtual_deadline() {
        let clock = Clock::simulated();
        let (_tx, rx) = bounded::<u8>(1);
        let gate = clock.gate();
        clock.register();
        let got = clock.recv(&rx, &gate, Duration::from_millis(500));
        clock.deregister();
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_millis(500));
    }

    #[test]
    fn notify_before_park_is_not_lost() {
        let clock = Clock::simulated();
        let (tx, rx) = bounded::<u8>(1);
        let gate = clock.gate();
        tx.send(7).unwrap();
        gate.notify(); // receiver not parked yet: pending flag
        clock.register();
        let got = clock.recv(&rx, &gate, Duration::from_secs(1));
        clock.deregister();
        assert_eq!(got, Ok(7));
        assert_eq!(clock.now(), Tick::ZERO, "no time passed");
    }

    #[test]
    fn virtual_send_wakes_a_parked_receiver() {
        let clock = Clock::simulated();
        let (tx, rx) = bounded::<u8>(1);
        let gate = clock.gate();
        let sender_gate = gate.clone();
        let sender_clock = clock.clone();
        clock.register(); // receiver
        sender_clock.register(); // sender (registered by main pre-spawn)
        let sender = std::thread::spawn(move || {
            sender_clock.sleep(Duration::from_millis(40));
            tx.send(9).unwrap();
            sender_gate.notify();
            sender_clock.deregister();
        });
        let got = clock.recv(&rx, &gate, Duration::from_secs(30));
        clock.deregister();
        sender.join().unwrap();
        assert_eq!(got, Ok(9));
        // Delivery happened when the sender woke: 40 ms, not 30 s.
        assert_eq!(clock.now(), Tick::ZERO + Duration::from_millis(40));
    }

    #[test]
    fn two_sleepers_wake_in_deadline_order() {
        let clock = Clock::simulated();
        let c1 = clock.clone();
        let c2 = clock.clone();
        clock.register();
        clock.register();
        let h1 = std::thread::spawn(move || {
            c1.sleep(Duration::from_millis(10));
            let at = c1.now();
            c1.deregister();
            at
        });
        let h2 = std::thread::spawn(move || {
            c2.sleep(Duration::from_millis(25));
            let at = c2.now();
            c2.deregister();
            at
        });
        let (a, b) = (h1.join().unwrap(), h2.join().unwrap());
        assert_eq!(a, Tick::ZERO + Duration::from_millis(10));
        assert_eq!(b, Tick::ZERO + Duration::from_millis(25));
    }
}
