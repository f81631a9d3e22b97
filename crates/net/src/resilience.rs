//! Resilience primitives: deadlines, retry budgets, circuit breakers, and
//! latency tracking for hedged reads (DESIGN.md §16).
//!
//! The cluster survives crashes and bit rot (DESIGN.md §11, §15); this
//! module is about nodes that are merely *slow* or *overloaded*. Four
//! small mechanisms compose into tail-tolerance:
//!
//! * [`Deadline`] — an absolute time budget attached to a logical
//!   operation, decremented at every propagation hop (session → daemon
//!   loop) and carried on the wire as the `deadline_ms`
//!   payload prefix;
//! * [`RetryBudget`] — a session-wide token bucket replacing unbounded
//!   per-call retries: every retry spends a token, every success refills a
//!   fraction, so a systemic outage runs the bucket dry and fails fast
//!   instead of multiplying load;
//! * [`BreakerCore`] / [`CircuitBreaker`] — a per-node circuit breaker
//!   (Closed → Open → HalfOpen with single-probe recovery) driven by
//!   timeouts, `Busy` replies and consecutive failures. The core is a pure
//!   value automaton over an abstract millisecond clock, so the
//!   `parafile-model` checker explores the *shipped* transition function —
//!   the wall-clock wrapper only supplies `Instant`-derived time;
//! * [`LatencyTracker`] — a bounded ring of recent per-node latencies
//!   whose p95 picks the hedged-read trigger delay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Deadlines

/// An absolute time budget for one logical operation.
///
/// A deadline is set once at the operation's entry point and *propagated*:
/// every hop re-reads the remaining budget, so time spent queueing or
/// retrying at one layer shrinks what the next layer may spend. The wire
/// form is the remaining milliseconds at send time (`0` = unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: the operation may take as long as it takes.
    #[must_use]
    pub fn none() -> Self {
        Self { at: None }
    }

    /// A deadline `budget` from now.
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        Self { at: Instant::now().checked_add(budget) }
    }

    /// Whether a budget is attached at all.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.at.is_some()
    }

    /// Remaining budget; `None` when unbounded, `Some(0)` when expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Whether the budget is spent.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.remaining().is_some_and(|r| r.is_zero())
    }

    /// The wire encoding of the remaining budget: `0` = unbounded, and a
    /// bounded-but-live deadline never encodes as 0 (it is floored to 1 ms)
    /// so the daemon cannot mistake "almost out of time" for "no limit".
    /// Callers must check [`expired`](Self::expired) before sending.
    #[must_use]
    pub fn wire_ms(&self) -> u32 {
        match self.remaining() {
            None => 0,
            Some(r) => u32::try_from(r.as_millis()).unwrap_or(u32::MAX).max(1),
        }
    }

    /// Clamps an I/O timeout to the remaining budget (never below 1 ms so
    /// socket timeouts stay representable). Unbounded deadlines leave the
    /// timeout untouched.
    #[must_use]
    pub fn clamp_timeout(&self, timeout: Duration) -> Duration {
        match self.remaining() {
            None => timeout,
            Some(r) => timeout.min(r.max(Duration::from_millis(1))),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry budget

/// Milli-tokens per retry token (fixed-point so refill fractions stay
/// integer arithmetic on the atomic).
const MILLI: u64 = 1000;

/// A session-wide token bucket bounding the *total* retry volume.
///
/// Unbounded per-call retries turn a systemic outage into a retry storm:
/// every caller multiplies the load on the struggling peer. The budget
/// inverts that: retries spend from a shared bucket (one token each),
/// successes trickle a fraction of a token back, and when the bucket is
/// dry, failures surface immediately instead of retrying. Thread-safe and
/// lock-free — the session and its transport share one budget through an
/// `Arc`, and so may sessions on different threads.
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: AtomicU64,
    cap: u64,
    refill: u64,
}

impl RetryBudget {
    /// A bucket starting full at `cap` tokens, refilling
    /// `refill_millitokens` (thousandths of a token) per recorded success.
    #[must_use]
    pub fn new(cap: u32, refill_millitokens: u32) -> Self {
        let cap = u64::from(cap.max(1)) * MILLI;
        Self { millitokens: AtomicU64::new(cap), cap, refill: u64::from(refill_millitokens) }
    }

    /// The session default: 10 tokens, a tenth of a token back per success
    /// (a sustained retry rate above ~10% of traffic runs dry).
    #[must_use]
    pub fn for_session() -> Self {
        Self::new(10, 100)
    }

    /// Spends one token for a retry. `false` = bucket dry, do not retry.
    #[must_use]
    pub fn try_spend(&self) -> bool {
        self.millitokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| t.checked_sub(MILLI))
            .is_ok()
    }

    /// Credits a successful call's refill fraction (saturating at the cap).
    pub fn record_success(&self) {
        let _ = self.millitokens.fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
            Some((t + self.refill).min(self.cap))
        });
    }

    /// Whole tokens currently available (observability / tests).
    #[must_use]
    pub fn tokens(&self) -> u32 {
        u32::try_from(self.millitokens.load(Ordering::Acquire) / MILLI).unwrap_or(u32::MAX)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker

/// The breaker's three positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: requests are shed without touching the node until the
    /// open window elapses.
    Open,
    /// Recovering: exactly one probe request is allowed through; its
    /// outcome decides between re-closing and re-opening.
    HalfOpen,
}

/// What the breaker says about one prospective request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Admission {
    /// Send it (breaker closed).
    Allow,
    /// Send it *as the half-open probe*: its outcome must be reported.
    Probe,
    /// Do not send; fail over or mark dirty instead.
    Shed,
}

/// The pure breaker automaton over an abstract millisecond clock.
///
/// Value semantics (`Clone + Eq + Hash`) so the model checker can hold it
/// in explored states; the shipped [`CircuitBreaker`] drives this exact
/// transition function with wall-clock time. Transitions:
///
/// ```text
///            threshold consecutive failures
///   Closed ────────────────────────────────▶ Open
///     ▲                                       │ open_ms elapsed
///     │ probe succeeds                        ▼
///     └─────────────────────────────────── HalfOpen ──▶ Open (probe fails)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BreakerCore {
    threshold: u32,
    open_ms: u64,
    state: BreakerState,
    failures: u32,
    opened_at_ms: u64,
    probe_in_flight: bool,
}

impl BreakerCore {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and staying open `open_ms` before allowing a probe.
    #[must_use]
    pub fn new(threshold: u32, open_ms: u64) -> Self {
        Self {
            threshold: threshold.max(1),
            open_ms,
            state: BreakerState::Closed,
            failures: 0,
            opened_at_ms: 0,
            probe_in_flight: false,
        }
    }

    /// Current position.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures observed while closed.
    #[must_use]
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Asks whether a request may go to the node at time `now_ms`.
    /// Stateful: the Open → HalfOpen transition happens here (the breaker
    /// has no timer of its own), and a `Probe` answer marks the single
    /// probe slot taken until its outcome is recorded.
    #[must_use]
    pub fn admit(&mut self, now_ms: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.open_ms {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    Admission::Shed
                } else {
                    self.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Records a successful call (or probe): the breaker re-closes and the
    /// failure count resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.failures = 0;
        self.probe_in_flight = false;
    }

    /// Records a breaker-relevant failure (timeout, `Busy`/`Overloaded`,
    /// transport error) at time `now_ms`. A failed half-open probe
    /// re-opens immediately; `threshold` consecutive failures trip a
    /// closed breaker.
    pub fn record_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => {
                self.failures = self.failures.saturating_add(1);
                if self.failures >= self.threshold {
                    self.trip(now_ms);
                }
            }
            BreakerState::HalfOpen => self.trip(now_ms),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_ms: u64) {
        self.state = BreakerState::Open;
        self.opened_at_ms = now_ms;
        self.probe_in_flight = false;
    }
}

/// The wall-clock wrapper around [`BreakerCore`] the session uses per
/// node: same automaton, time supplied from a fixed `Instant` origin.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    core: BreakerCore,
    born: Instant,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and staying open `open_for` before probing.
    #[must_use]
    pub fn new(threshold: u32, open_for: Duration) -> Self {
        Self {
            core: BreakerCore::new(
                threshold,
                u64::try_from(open_for.as_millis()).unwrap_or(u64::MAX),
            ),
            born: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.born.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// See [`BreakerCore::admit`].
    #[must_use]
    pub fn admit(&mut self) -> Admission {
        let now = self.now_ms();
        self.core.admit(now)
    }

    /// See [`BreakerCore::record_success`].
    pub fn record_success(&mut self) {
        self.core.record_success();
    }

    /// See [`BreakerCore::record_failure`].
    pub fn record_failure(&mut self) {
        let now = self.now_ms();
        self.core.record_failure(now);
    }

    /// Current position.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.core.state()
    }
}

// ---------------------------------------------------------------------------
// Latency tracking (hedge trigger)

/// Ring capacity: enough samples for a stable p95, small enough to track
/// regime changes (a node turning slow) within ~a hundred requests.
const LATENCY_WINDOW: usize = 64;

/// A bounded ring of recent call latencies with a p95 read-out.
///
/// The session keeps one per node on the read path; the hedged-read delay
/// is the observed p95 (clamped to a configured floor/ceiling), so hedges
/// fire only for genuinely tail-slow calls — roughly one read in twenty —
/// instead of doubling all traffic.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    samples_us: Vec<u64>,
    next: usize,
}

impl LatencyTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self { samples_us: Vec::with_capacity(LATENCY_WINDOW), next: 0 }
    }

    /// Records one observed latency.
    pub fn record(&mut self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        if self.samples_us.len() < LATENCY_WINDOW {
            self.samples_us.push(us);
        } else {
            self.samples_us[self.next] = us;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether no samples have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The 95th-percentile latency over the window, `None` until at least
    /// one sample exists.
    #[must_use]
    pub fn p95(&self) -> Option<Duration> {
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let idx = (sorted.len().saturating_sub(1)) * 95 / 100;
        Some(Duration::from_micros(sorted[idx]))
    }

    /// The hedge trigger delay: observed p95 clamped into
    /// `[floor, ceiling]`, or `floor` before any samples exist.
    #[must_use]
    pub fn hedge_delay(&self, floor: Duration, ceiling: Duration) -> Duration {
        self.p95().unwrap_or(floor).clamp(floor, ceiling)
    }
}

impl Default for LatencyTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_shrinks_and_expires() {
        let d = Deadline::none();
        assert!(!d.is_bounded() && !d.expired());
        assert_eq!(d.wire_ms(), 0);
        assert_eq!(d.clamp_timeout(Duration::from_secs(30)), Duration::from_secs(30));

        let d = Deadline::within(Duration::from_secs(2));
        assert!(d.is_bounded() && !d.expired());
        let ms = d.wire_ms();
        assert!(ms > 0 && ms <= 2000, "live budget on the wire: {ms}");
        assert!(d.clamp_timeout(Duration::from_secs(30)) <= Duration::from_secs(2));

        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        // Even an expired-but-bounded deadline never encodes as "none".
        assert_eq!(d.wire_ms(), 1);
        assert_eq!(d.clamp_timeout(Duration::from_secs(30)), Duration::from_millis(1));
    }

    #[test]
    fn retry_budget_runs_dry_and_refills() {
        let b = RetryBudget::new(2, 500);
        assert_eq!(b.tokens(), 2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "bucket dry");
        // Two successes at half a token each buy one retry back.
        b.record_success();
        assert!(!b.try_spend());
        b.record_success();
        assert!(b.try_spend());
        // Refill saturates at the cap.
        for _ in 0..100 {
            b.record_success();
        }
        assert_eq!(b.tokens(), 2);
    }

    #[test]
    fn breaker_trips_sheds_probes_and_recloses() {
        let mut b = BreakerCore::new(3, 100);
        assert_eq!(b.admit(0), Admission::Allow);
        b.record_failure(0);
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open, "third consecutive failure trips");
        // Shed while the open window runs.
        assert_eq!(b.admit(50), Admission::Shed);
        assert_eq!(b.state(), BreakerState::Open);
        // Window elapsed: exactly one probe.
        assert_eq!(b.admit(102), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(103), Admission::Shed, "single probe in flight");
        // Probe success re-closes and resets the count.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.failures(), 0);
        assert_eq!(b.admit(104), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = BreakerCore::new(1, 100);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(100), Admission::Probe);
        b.record_failure(100);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert_eq!(b.admit(150), Admission::Shed, "window restarts from the re-open");
        assert_eq!(b.admit(200), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = BreakerCore::new(2, 100);
        b.record_failure(0);
        b.record_success();
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive failures do not trip");
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn wall_clock_breaker_drives_the_core() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(20));
        assert_eq!(b.admit(), Admission::Allow);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Shed);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn latency_p95_tracks_the_tail() {
        let mut t = LatencyTracker::new();
        assert_eq!(t.p95(), None);
        let floor = Duration::from_millis(5);
        let ceil = Duration::from_millis(500);
        assert_eq!(t.hedge_delay(floor, ceil), floor, "no samples: floor");
        for _ in 0..19 {
            t.record(Duration::from_millis(10));
        }
        t.record(Duration::from_millis(400));
        let p95 = t.p95().expect("samples exist");
        assert!(p95 >= Duration::from_millis(10));
        assert!(t.hedge_delay(floor, ceil) <= ceil);
        // The ring keeps the window bounded.
        for _ in 0..(LATENCY_WINDOW * 3) {
            t.record(Duration::from_millis(1));
        }
        assert_eq!(t.len(), LATENCY_WINDOW);
        assert_eq!(t.p95(), Some(Duration::from_millis(1)));
    }
}
