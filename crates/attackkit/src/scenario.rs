//! The [`Scenario`] engine: one strategy plus its collusion state, with
//! round-advancement bookkeeping.
//!
//! Simulators hold a `Scenario` rather than a bare strategy. The scenario
//! owns the [`Collusion`] coordinator, forwards the injection hook, and —
//! before the first response of each new round — fires
//! [`AttackStrategy::on_round`] exactly once per elapsed round, so gradual
//! strategies (frog-boiling, partition drift) advance at a rate fixed in
//! *rounds*, not probes.

use crate::collusion::Collusion;
use crate::strategy::{AttackStrategy, CoordView, Lie, Probe};
use rand_chacha::ChaCha12Rng;

/// A running attack: strategy + shared collusion state + round cursor.
pub struct Scenario {
    strategy: Box<dyn AttackStrategy>,
    collusion: Collusion,
    last_round: Option<u64>,
}

impl Scenario {
    /// Wrap a strategy into a scenario with fresh collusion state.
    pub fn new(strategy: Box<dyn AttackStrategy>) -> Scenario {
        Scenario {
            strategy,
            collusion: Collusion::new(),
            last_round: None,
        }
    }

    /// Forward the injection hook. The round cursor starts at the injection
    /// round: rounds already elapsed before the attack never fire
    /// `on_round`.
    pub fn inject(&mut self, attackers: &[usize], view: &CoordView<'_>, rng: &mut ChaCha12Rng) {
        self.last_round = Some(view.round);
        self.strategy
            .inject(attackers, &mut self.collusion, view, rng);
    }

    /// Produce the response to `probe`, advancing per-round state first.
    ///
    /// `on_round` fires once per round elapsed since the last response (or
    /// since injection), lazily at the round's first probe of a malicious
    /// node — at most a handful of iterations, since malicious nodes are
    /// probed every round in both simulators.
    pub fn respond(
        &mut self,
        probe: Probe,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let from = self.last_round.unwrap_or(view.round);
        for _ in from..view.round {
            self.strategy.on_round(&mut self.collusion, view, rng);
        }
        self.last_round = Some(view.round.max(from));
        self.strategy
            .respond(&probe, &mut self.collusion, view, rng)
    }

    /// Forward one defense-verdict observation to the strategy (the
    /// arms-race feedback seam — see [`AttackStrategy::feedback`]). The
    /// simulators call this for every sample of a malicious node that a
    /// deployed defense judged; with no defense deployed it is never
    /// called.
    pub fn feedback(&mut self, attacker: usize, victim: usize, flagged: bool) {
        if vcoord_obs::enabled() {
            vcoord_obs::event(
                vcoord_obs::metric_id!("attack.feedback"),
                self.last_round.unwrap_or(0),
                attacker as u32,
                if flagged { 1.0 } else { 0.0 },
            );
        }
        self.strategy
            .feedback(attacker, victim, flagged, &mut self.collusion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Protocol;
    use rand::SeedableRng;
    use vcoord_space::{Coord, Space};

    /// Counts hook invocations; lies with the round index as delay.
    #[derive(Default)]
    struct Counter {
        injected: usize,
        rounds: usize,
        responses: usize,
    }

    impl AttackStrategy for Counter {
        fn inject(
            &mut self,
            _attackers: &[usize],
            _collusion: &mut Collusion,
            _view: &CoordView<'_>,
            _rng: &mut ChaCha12Rng,
        ) {
            self.injected += 1;
        }

        fn on_round(
            &mut self,
            _collusion: &mut Collusion,
            _view: &CoordView<'_>,
            _rng: &mut ChaCha12Rng,
        ) {
            self.rounds += 1;
        }

        fn respond(
            &mut self,
            _probe: &Probe,
            _collusion: &mut Collusion,
            view: &CoordView<'_>,
            _rng: &mut ChaCha12Rng,
        ) -> Option<Lie> {
            self.responses += 1;
            Some(Lie {
                coord: view.space.origin(),
                error: 0.01,
                delay_ms: self.rounds as f64,
            })
        }
    }

    fn view_at<'a>(
        space: &'a Space,
        coords: &'a [Coord],
        malicious: &'a [bool],
        round: u64,
    ) -> CoordView<'a> {
        CoordView {
            space,
            coords,
            errors: &[],
            layer: &[],
            malicious,
            is_ref: &[],
            round,
            now_ms: round * 1000,
            params: Protocol::default(),
        }
    }

    #[test]
    fn on_round_fires_once_per_elapsed_round() {
        let space = Space::Euclidean(2);
        let coords = vec![Coord::origin(2); 2];
        let malicious = vec![true, false];
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut s = Scenario::new(Box::new(Counter::default()));
        let probe = Probe {
            attacker: 0,
            victim: 1,
            rtt: 10.0,
        };

        s.inject(&[0], &view_at(&space, &coords, &malicious, 5), &mut rng);
        // Same round as injection: no round hook yet.
        let l = s
            .respond(probe, &view_at(&space, &coords, &malicious, 5), &mut rng)
            .unwrap();
        assert_eq!(l.delay_ms, 0.0);
        // Two rounds later: exactly two on_round calls, then the response.
        let l = s
            .respond(probe, &view_at(&space, &coords, &malicious, 7), &mut rng)
            .unwrap();
        assert_eq!(l.delay_ms, 2.0);
        // Multiple probes within one round advance nothing.
        let l = s
            .respond(probe, &view_at(&space, &coords, &malicious, 7), &mut rng)
            .unwrap();
        assert_eq!(l.delay_ms, 2.0);
    }
}
