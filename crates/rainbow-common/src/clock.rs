//! Logical clocks and timestamp generation.
//!
//! Timestamp-ordering concurrency control needs site-unique, totally ordered
//! transaction timestamps; the progress monitor needs a cheap monotonic
//! counter for windowed statistics. Both are provided here. The Lamport
//! clock also lets sites keep their counters loosely synchronized by merging
//! the counters piggybacked on messages.
//!
//! A clock has one owner: a site's clock is part of the site's state, which
//! its event loop holds one drain at a time. So a clock is a plain counter,
//! and advancing it takes `&mut self`.

use crate::ids::{SiteId, Timestamp};

/// A Lamport logical clock.
///
/// `tick` advances local time; `observe` merges a remote timestamp so the
/// local clock never falls behind timestamps it has seen.
#[derive(Debug, Default)]
pub struct LamportClock {
    counter: u64,
}

impl LamportClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        LamportClock::default()
    }

    /// A clock starting at `start`.
    pub fn starting_at(start: u64) -> Self {
        LamportClock { counter: start }
    }

    /// Advances the clock and returns the new value.
    pub fn tick(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// Current value without advancing.
    pub fn now(&self) -> u64 {
        self.counter
    }

    /// Merges a remote counter value: the local clock jumps to
    /// `max(local, remote) + 1` and the new value is returned.
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.counter = self.counter.max(remote) + 1;
        self.counter
    }
}

/// Generates site-unique [`Timestamp`]s for transactions.
///
/// Two generators at different sites can never produce equal timestamps
/// because the site id is part of the timestamp and breaks ties.
#[derive(Debug)]
pub struct TimestampGenerator {
    site: SiteId,
    clock: LamportClock,
}

impl TimestampGenerator {
    /// Creates a generator for `site`.
    pub fn new(site: SiteId) -> Self {
        TimestampGenerator {
            site,
            clock: LamportClock::new(),
        }
    }

    /// The site this generator belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Issues the next timestamp.
    pub fn issue(&mut self) -> Timestamp {
        Timestamp::new(self.clock.tick(), self.site.0)
    }

    /// Merges a timestamp observed on an incoming message, keeping this
    /// site's clock ahead of everything it has seen.
    pub fn observe(&mut self, remote: Timestamp) {
        self.clock.observe(remote.counter);
    }

    /// Current local logical time (no timestamp is issued).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_strictly_increasing() {
        let mut clock = LamportClock::new();
        let a = clock.tick();
        let b = clock.tick();
        let c = clock.tick();
        assert!(a < b && b < c);
        assert_eq!(clock.now(), c);
    }

    #[test]
    fn starting_at_offsets_the_counter() {
        let mut clock = LamportClock::starting_at(100);
        assert_eq!(clock.now(), 100);
        assert_eq!(clock.tick(), 101);
    }

    #[test]
    fn observe_jumps_ahead_of_remote() {
        let mut clock = LamportClock::new();
        clock.tick();
        let after = clock.observe(50);
        assert_eq!(after, 51);
        // Observing something older than local time still advances by one.
        let after = clock.observe(10);
        assert_eq!(after, 52);
    }

    #[test]
    fn generator_issues_increasing_site_tagged_timestamps() {
        let mut gen = TimestampGenerator::new(SiteId(3));
        let a = gen.issue();
        let b = gen.issue();
        assert!(a < b);
        assert_eq!(a.site, 3);
        assert_eq!(gen.site(), SiteId(3));
        assert!(gen.now() >= 2);
    }

    #[test]
    fn generators_at_different_sites_never_collide() {
        let mut g1 = TimestampGenerator::new(SiteId(1));
        let mut g2 = TimestampGenerator::new(SiteId(2));
        let t1 = g1.issue();
        let t2 = g2.issue();
        assert_ne!(t1, t2);
    }

    #[test]
    fn observe_keeps_generator_ahead() {
        let mut gen = TimestampGenerator::new(SiteId(1));
        gen.observe(Timestamp::new(500, 2));
        let t = gen.issue();
        assert!(t.counter > 500);
    }
}
