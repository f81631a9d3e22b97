//! The reactor's timer wheel: deadlines, retry backoffs and shed hints as
//! one ordered set over an abstract millisecond clock.
//!
//! Everything time-driven in the networking stack — request deadlines,
//! retry backoff wake-ups, shed hints, idle-connection reaping —
//! funnels through one [`TimerWheel`] per event loop (the daemon's, and
//! each session's transport), and the wheel
//! never reads the wall clock itself: callers feed it `now_ms` from a
//! [`Clock`]. Production uses [`MonotonicClock`]; tests drive a manual
//! clock, so firing order is a *deterministic function of the schedule*,
//! not of scheduler jitter (the same discipline [`BreakerCore`] uses).
//!
//! The API is a classic hashed-wheel surface (schedule / cancel / advance)
//! but the store is a sorted deadline map: at the few hundred timers an
//! event loop carries, slot hashing buys nothing over `BTreeMap`'s
//! O(log n), and the map keeps expiry order exact — ties fire in
//! scheduling order, which the deterministic tests pin down.
//!
//! [`BreakerCore`]: crate::resilience::BreakerCore

// Runs on the event loop: nothing here may block it (clippy.toml lists the
// banned calls).
#![deny(clippy::disallowed_methods)]

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// A millisecond clock the reactor and its timers read instead of
/// `Instant::now`, so tests can single-step time.
pub trait Clock {
    /// Milliseconds since the clock's origin (monotone, never wraps).
    fn now_ms(&self) -> u64;
}

/// The production clock: monotone milliseconds since construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// A manual clock for deterministic tests: time moves only when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: std::cell::Cell<u64>,
}

impl ManualClock {
    /// A clock stopped at 0 ms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms`.
    pub fn advance(&self, ms: u64) {
        self.now.set(self.now.get().saturating_add(ms));
    }

    /// Sets the clock to an absolute time (must not move backwards).
    pub fn set(&self, now_ms: u64) {
        debug_assert!(now_ms >= self.now.get(), "manual clock must be monotone");
        self.now.set(now_ms);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.get()
    }
}

/// Handle to one scheduled timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// An ordered set of `(deadline_ms, payload)` timers.
///
/// `advance(now)` pops every timer with `deadline <= now` in deadline
/// order, ties broken by scheduling order. Cancellation is O(log n) and
/// exact: a cancelled timer never fires and never reappears.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `(deadline_ms, seq) → (id, payload)`, ordered by expiry then by
    /// scheduling sequence.
    order: BTreeMap<(u64, u64), (TimerId, T)>,
    /// Reverse index for cancellation.
    by_id: HashMap<TimerId, (u64, u64)>,
    next_seq: u64,
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    #[must_use]
    pub fn new() -> Self {
        Self { order: BTreeMap::new(), by_id: HashMap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire once `now >= deadline_ms`.
    pub fn schedule(&mut self, deadline_ms: u64, payload: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = TimerId(seq);
        self.order.insert((deadline_ms, seq), (id, payload));
        self.by_id.insert(id, (deadline_ms, seq));
        id
    }

    /// Cancels a pending timer. Returns its payload when it had not fired.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let key = self.by_id.remove(&id)?;
        self.order.remove(&key).map(|(_, payload)| payload)
    }

    /// The earliest pending deadline, if any timer is scheduled.
    #[must_use]
    pub fn next_deadline_ms(&self) -> Option<u64> {
        self.order.keys().next().map(|&(deadline, _)| deadline)
    }

    /// Milliseconds until the earliest deadline at time `now_ms`
    /// (`Some(0)` when overdue, `None` when the wheel is empty).
    #[must_use]
    pub fn until_next(&self, now_ms: u64) -> Option<u64> {
        self.next_deadline_ms().map(|d| d.saturating_sub(now_ms))
    }

    /// Pops every timer due at `now_ms`, in deadline-then-schedule order.
    pub fn advance(&mut self, now_ms: u64) -> Vec<(TimerId, T)> {
        let mut fired = Vec::new();
        while let Some((&key, _)) = self.order.iter().next() {
            if key.0 > now_ms {
                break;
            }
            if let Some((id, payload)) = self.order.remove(&key) {
                self.by_id.remove(&id);
                fired.push((id, payload));
            }
        }
        fired
    }

    /// Number of pending timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no timers are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite requirement: deadline firing order under a deterministic
    /// clock — earlier deadlines first, ties in scheduling order, nothing
    /// fires early.
    #[test]
    fn deadlines_fire_in_order_under_a_deterministic_clock() {
        let clock = ManualClock::new();
        let mut wheel = TimerWheel::new();
        wheel.schedule(30, "c");
        wheel.schedule(10, "a");
        wheel.schedule(20, "b1");
        wheel.schedule(20, "b2"); // same deadline: scheduling order breaks the tie
        assert_eq!(wheel.next_deadline_ms(), Some(10));
        assert_eq!(wheel.until_next(clock.now_ms()), Some(10));

        // Nothing is due at t=9.
        clock.advance(9);
        assert!(wheel.advance(clock.now_ms()).is_empty());

        clock.advance(1); // t=10
        let fired: Vec<&str> = wheel.advance(clock.now_ms()).into_iter().map(|(_, p)| p).collect();
        assert_eq!(fired, ["a"]);

        // Jumping past several deadlines fires them all, still in order.
        clock.advance(25); // t=35
        let fired: Vec<&str> = wheel.advance(clock.now_ms()).into_iter().map(|(_, p)| p).collect();
        assert_eq!(fired, ["b1", "b2", "c"]);
        assert!(wheel.is_empty());
        assert_eq!(wheel.until_next(clock.now_ms()), None);
    }

    /// Satellite requirement: a hedge timer armed for a slow reply is
    /// cancelled the moment the first valid reply lands — the hedge never
    /// fires afterwards, even once its deadline passes.
    #[test]
    fn hedge_timer_cancelled_on_first_valid_reply_never_fires() {
        let clock = ManualClock::new();
        let mut wheel = TimerWheel::new();
        let deadline = wheel.schedule(100, "request-deadline");
        let hedge = wheel.schedule(25, "hedge-read");

        // The primary reply arrives at t=20, before the hedge delay.
        clock.advance(20);
        assert!(wheel.advance(clock.now_ms()).is_empty(), "nothing due yet");
        assert_eq!(wheel.cancel(hedge), Some("hedge-read"));
        assert_eq!(wheel.cancel(deadline), Some("request-deadline"));

        // Past both deadlines: the cancelled timers stay dead.
        clock.advance(200);
        assert!(wheel.advance(clock.now_ms()).is_empty());
        // Double-cancel is a no-op, not a panic.
        assert_eq!(wheel.cancel(hedge), None);
    }

    /// A hedge that does fire (no reply before the trigger) is delivered
    /// exactly once, and cancelling it afterwards reports "too late".
    #[test]
    fn hedge_timer_fires_once_when_the_reply_is_late() {
        let clock = ManualClock::new();
        let mut wheel = TimerWheel::new();
        let hedge = wheel.schedule(25, "hedge-read");
        clock.advance(30);
        let fired = wheel.advance(clock.now_ms());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "hedge-read");
        assert_eq!(wheel.cancel(hedge), None, "already fired");
        assert!(wheel.advance(clock.now_ms() + 1000).is_empty(), "fires exactly once");
    }

    /// Backoff-style reuse: rescheduling after each firing keeps working
    /// and interleaves correctly with other timers.
    #[test]
    fn rescheduled_backoff_timers_interleave_correctly() {
        let clock = ManualClock::new();
        let mut wheel = TimerWheel::new();
        wheel.schedule(10, "retry@10");
        wheel.schedule(35, "deadline@35");
        clock.advance(10);
        assert_eq!(wheel.advance(clock.now_ms())[0].1, "retry@10");
        // Exponential step: next retry at t=30.
        wheel.schedule(30, "retry@30");
        clock.advance(30); // t=40: both due, retry first (earlier deadline)
        let fired: Vec<&str> = wheel.advance(clock.now_ms()).into_iter().map(|(_, p)| p).collect();
        assert_eq!(fired, ["retry@30", "deadline@35"]);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }
}
