//! The one retry-backoff schedule shared by every retrying path.
//!
//! The [`mux`](crate::mux) retry ladder and
//! [`Session::flush`](crate::session::Session::flush) both retry transient
//! failures; both drive this type instead of carrying their own delay
//! arithmetic. The schedule is capped exponential with jitter: each
//! [`Backoff::next_delay`] draws a uniformly-jittered interval in
//! `[delay/2, delay]` (so peers that failed together do not retry in
//! lockstep) and then doubles the delay up to the cap. The caller waits
//! the interval out on a timer or in reactor turns, never by parking its
//! thread. [`Backoff::reset`] drops the delay back to the base — used both
//! at the start of a fresh request and when a request dies on a *fresh*
//! connection, which means the peer is back and the widened schedule is
//! stale.

// Its callers run event loops: nothing here may block them (clippy.toml
// lists the banned calls).
#![deny(clippy::disallowed_methods)]

use crate::fault::XorShift64;
use std::time::Duration;

/// Capped, jittered exponential backoff with reset.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    next: Duration,
    /// Jitter source; persisted across resets so repeated schedules stay
    /// desynchronized between peers seeded differently.
    rng: XorShift64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per sleep, capped at `max`.
    /// `seed` fixes the jitter stream (derive it from a peer identity so
    /// distinct clients desynchronize).
    #[must_use]
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Self { base, max, next: base, rng: XorShift64::new(seed) }
    }

    /// The delay the next [`next_delay`](Self::next_delay) will jitter
    /// over.
    #[must_use]
    pub fn current_delay(&self) -> Duration {
        self.next
    }

    /// Draws the next jittered interval in `[delay/2, delay]` and doubles
    /// the delay (capped at the maximum).
    pub fn next_delay(&mut self) -> Duration {
        let nanos = self.next.as_nanos() as u64;
        let jittered = nanos / 2 + self.rng.next_u64() % (nanos / 2 + 1);
        self.next = (self.next * 2).min(self.max);
        Duration::from_nanos(jittered)
    }

    /// Drops the schedule back to the base delay. The jitter stream is
    /// *not* reseeded.
    pub fn reset(&mut self) {
        self.next = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_to_the_cap_and_resets() {
        let mut b = Backoff::new(Duration::from_micros(10), Duration::from_micros(35), 7);
        assert_eq!(b.current_delay(), Duration::from_micros(10));
        let first = b.next_delay();
        assert!((Duration::from_micros(5)..=Duration::from_micros(10)).contains(&first));
        assert_eq!(b.current_delay(), Duration::from_micros(20));
        b.next_delay();
        assert_eq!(b.current_delay(), Duration::from_micros(35), "doubling caps at max");
        b.reset();
        assert_eq!(b.current_delay(), Duration::from_micros(10));
    }

    #[test]
    fn distinct_seeds_give_distinct_jitter() {
        // The jitter stream is a pure function of the seed; two differently
        // seeded schedules should diverge almost surely.
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
