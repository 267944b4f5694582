//! The breaker → lifecycle hook: auto-rollback on post-promotion trips.
//!
//! `ml4db-lifecycle`'s registry decides *which* model version serves;
//! this module closes the loop from the runtime guardrails back to that
//! decision. A [`LifecycleLink`] watches a [`CircuitBreaker`]'s monotone
//! trip counter; when a *new* trip lands (failure-budget exhaustion,
//! out-of-band estimates, a panic, or a drift verdict force-opening the
//! breaker), it rolls the registry back to the last-good version and
//! reports the breaker's own trip reason on the emitted rollback event.
//!
//! The link is deliberately pull-based: callers poll at whatever cadence
//! their serving loop has (per query, per batch, per epoch). Counter
//! deltas — not breaker *state* — drive it, so a trip that opened and
//! then half-opened again between polls still triggers exactly one
//! rollback, and polling is idempotent between trips.

use ml4db_lifecycle::ModelRegistry;

use crate::breaker::CircuitBreaker;

/// Watches a breaker's trip counter and rolls a model registry back to
/// its last-good version whenever a new trip lands.
#[derive(Debug)]
pub struct LifecycleLink {
    seen_trips: u64,
}

impl LifecycleLink {
    /// Creates a link synchronized to the breaker's current trip count:
    /// only trips *after* this moment trigger rollbacks (pre-existing
    /// trips belong to whatever model was serving before).
    pub fn new(breaker: &CircuitBreaker) -> Self {
        Self { seen_trips: breaker.trips() }
    }

    /// Consumes any new trips and rolls back once: returns the version
    /// id now serving if a rollback was performed, `None` when no new
    /// trip landed. The rollback reason is the breaker's
    /// [`last_trip`](CircuitBreaker::last_trip) label, so the trace's
    /// rollback event names what actually went wrong.
    pub fn poll<M>(
        &mut self,
        breaker: &CircuitBreaker,
        registry: &mut ModelRegistry<M>,
    ) -> Option<u32> {
        let trips = breaker.trips();
        if trips == self.seen_trips {
            return None;
        }
        self.seen_trips = trips;
        let reason = breaker.last_trip().map_or("trip", |r| r.as_str());
        Some(registry.rollback(reason))
    }

    /// Re-synchronizes without rolling back — call right after a
    /// promotion if trips recorded *during* shadow evaluation should be
    /// charged to the rejected past, not to the freshly promoted model.
    pub fn sync(&mut self, breaker: &CircuitBreaker) {
        self.seen_trips = breaker.trips();
    }

    /// Trips observed so far (consumed or synced past).
    pub fn seen_trips(&self) -> u64 {
        self.seen_trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, TripReason};
    use ml4db_lifecycle::{GateConfig, LifecycleState};

    fn registry_with_promoted() -> ModelRegistry<&'static str> {
        let mut r = ModelRegistry::new("card_estimator", GateConfig::default(), "v0");
        let id = r.register_candidate("v1", "retrain");
        r.begin_shadow(id);
        assert!(r.try_promote(id, 90.0, 100.0, 100.0).promoted);
        r
    }

    #[test]
    fn new_trip_rolls_back_to_last_good() {
        let breaker = CircuitBreaker::named("card_estimator", BreakerConfig::default());
        let mut link = LifecycleLink::new(&breaker);
        let mut reg = registry_with_promoted();
        assert_eq!(*reg.active(), "v1");

        assert_eq!(link.poll(&breaker, &mut reg), None, "no trip, no rollback");

        breaker.force_open(TripReason::Drift);
        assert_eq!(link.poll(&breaker, &mut reg), Some(0));
        assert_eq!(*reg.active(), "v0");
        assert_eq!(reg.version(1).unwrap().state, LifecycleState::RolledBack);
        // Consumed: the same trip does not roll back twice.
        assert_eq!(link.poll(&breaker, &mut reg), None);
    }

    #[test]
    fn pre_existing_trips_are_not_charged_to_the_new_link() {
        let breaker = CircuitBreaker::named("card_estimator", BreakerConfig::default());
        breaker.force_open(TripReason::OutOfBand);
        let mut link = LifecycleLink::new(&breaker); // born after the trip
        let mut reg = registry_with_promoted();
        assert_eq!(link.poll(&breaker, &mut reg), None);
        assert_eq!(*reg.active(), "v1");
    }

    #[test]
    fn sync_skips_shadow_phase_trips() {
        let breaker = CircuitBreaker::named("card_estimator", BreakerConfig::default());
        let mut link = LifecycleLink::new(&breaker);
        let mut reg = registry_with_promoted();
        // A trip lands while a candidate is being shadow-evaluated...
        breaker.force_open(TripReason::Panic);
        // ...and the operator decides it belongs to the past.
        link.sync(&breaker);
        assert_eq!(link.poll(&breaker, &mut reg), None);
        assert_eq!(*reg.active(), "v1");
    }
}
