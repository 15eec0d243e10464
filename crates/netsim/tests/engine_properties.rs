//! Property tests pinning the engine's delivery order to a straight-line
//! reference: whatever mix of timers and messages a schedule holds —
//! events scheduled from inside callbacks, equal timestamps, times in the
//! past (clamped to "now"), non-monotone times, scheduling interleaved
//! with `run_until` horizons — events fire in ascending `(clamped at, push
//! index)` order, and `pending()` and `now()` agree with the reference at
//! every horizon. The reference is a flat list searched for its minimum,
//! so it shares nothing with the engine's queue.

use proptest::prelude::*;
use vcoord_netsim::{Engine, NodeId, Scheduler, Time, World};

/// How an event asks to be scheduled; `t` is an absolute time for the
/// `*At` kinds and a delay for the `*After` kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    TimerAt,
    TimerAfter,
    DeliverAt,
    DeliverAfter,
}

/// Event `id` of a schedule. A root is scheduled from outside the engine
/// (before the first horizon, or after it when `late`); every other event
/// is scheduled from inside the callback of the event `parent` firing.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    t: Time,
    parent: Option<usize>,
    late: bool,
}

/// `(t, kind, parent selector, late)` rows as proptest generates them. A
/// selector below the row's own index names its parent (so parents always
/// precede children and every schedule is finite); any other makes a root.
type Row = (u64, u8, usize, u8);

fn specs(rows: &[Row]) -> Vec<Spec> {
    rows.iter()
        .enumerate()
        .map(|(id, &(t, kind, sel, late))| Spec {
            kind: match kind {
                0 => Kind::TimerAt,
                1 => Kind::TimerAfter,
                2 => Kind::DeliverAt,
                _ => Kind::DeliverAfter,
            },
            t,
            parent: (sel < id).then_some(sel),
            late: late == 1,
        })
        .collect()
}

fn children(specs: &[Spec]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); specs.len()];
    for (id, spec) in specs.iter().enumerate() {
        if let Some(p) = spec.parent {
            out[p].push(id);
        }
    }
    out
}

/// Endpoints derived from the id, so a delivery can be checked on arrival.
fn endpoints(id: usize) -> (NodeId, NodeId) {
    (id % 7, id % 5)
}

fn schedule(sched: &mut Scheduler<usize>, id: usize, spec: &Spec) {
    let (from, to) = endpoints(id);
    match spec.kind {
        Kind::TimerAt => sched.timer_at(spec.t, from, id as u64),
        Kind::TimerAfter => sched.timer_after(spec.t, from, id as u64),
        Kind::DeliverAt => sched.deliver_at(spec.t, from, to, id),
        Kind::DeliverAfter => sched.deliver_after(spec.t, from, to, id),
    }
}

/// Replays a schedule on the real engine, logging `(now, id)` per event.
struct Replay<'a> {
    specs: &'a [Spec],
    children: &'a [Vec<usize>],
    log: Vec<(Time, usize)>,
}

impl Replay<'_> {
    fn fired(&mut self, sched: &mut Scheduler<usize>, id: usize) {
        self.log.push((sched.now(), id));
        for &c in &self.children[id] {
            schedule(sched, c, &self.specs[c]);
        }
    }
}

impl World for Replay<'_> {
    type Payload = usize;

    fn on_timer(&mut self, sched: &mut Scheduler<usize>, node: NodeId, tag: u64) {
        let id = tag as usize;
        assert!(matches!(
            self.specs[id].kind,
            Kind::TimerAt | Kind::TimerAfter
        ));
        assert_eq!(node, endpoints(id).0);
        self.fired(sched, id);
    }

    fn on_message(&mut self, sched: &mut Scheduler<usize>, from: NodeId, to: NodeId, id: usize) {
        assert!(matches!(
            self.specs[id].kind,
            Kind::DeliverAt | Kind::DeliverAfter
        ));
        assert_eq!((from, to), endpoints(id));
        self.fired(sched, id);
    }
}

/// The straight-line reference: a flat list of `(clamped at, push index,
/// id)`, the next event being its minimum.
struct Reference<'a> {
    specs: &'a [Spec],
    children: &'a [Vec<usize>],
    now: Time,
    pushes: u64,
    pending: Vec<(Time, u64, usize)>,
    log: Vec<(Time, usize)>,
}

impl Reference<'_> {
    fn schedule(&mut self, id: usize) {
        let spec = &self.specs[id];
        let at = match spec.kind {
            Kind::TimerAt | Kind::DeliverAt => spec.t,
            Kind::TimerAfter | Kind::DeliverAfter => self.now + spec.t,
        };
        self.pending.push((at.max(self.now), self.pushes, id));
        self.pushes += 1;
    }

    /// Fire everything due by `horizon` (`None`: until nothing is left).
    fn run(&mut self, horizon: Option<Time>) {
        while let Some(&next) = self.pending.iter().min() {
            let (at, _, id) = next;
            if horizon.is_some_and(|h| at > h) {
                break;
            }
            self.pending.retain(|e| *e != next);
            self.now = at;
            self.log.push((at, id));
            for k in 0..self.children[id].len() {
                self.schedule(self.children[id][k]);
            }
        }
        if let Some(h) = horizon {
            self.now = self.now.max(h);
        }
    }
}

/// Run `rows` through engine and reference side by side, comparing at each
/// horizon (`gaps` are the distances between successive horizons) and once
/// more after draining.
fn check(rows: &[Row], gaps: &[u64]) {
    let specs = specs(rows);
    let children = children(&specs);
    let mut engine: Engine<usize> = Engine::new();
    let mut world = Replay {
        specs: &specs,
        children: &children,
        log: Vec::new(),
    };
    let mut reference = Reference {
        specs: &specs,
        children: &children,
        now: 0,
        pushes: 0,
        pending: Vec::new(),
        log: Vec::new(),
    };

    let schedule_roots = |engine: &mut Engine<usize>, reference: &mut Reference, late| {
        for (id, spec) in specs.iter().enumerate() {
            if spec.parent.is_none() && spec.late == late {
                schedule(engine.scheduler(), id, spec);
                reference.schedule(id);
            }
        }
    };

    schedule_roots(&mut engine, &mut reference, false);
    let mut horizon = 0;
    for (k, gap) in gaps.iter().enumerate() {
        horizon += gap;
        let before = world.log.len();
        let processed = engine.run_until(&mut world, horizon);
        reference.run(Some(horizon));
        prop_assert_eq!(processed, world.log.len() - before);
        prop_assert_eq!(
            &world.log,
            &reference.log,
            "order differs by horizon {}",
            horizon
        );
        prop_assert_eq!(engine.now(), reference.now);
        prop_assert_eq!(engine.scheduler().pending(), reference.pending.len());
        if k == 0 {
            // Late roots land on a clock that has moved: absolute times
            // behind it are clamped.
            schedule_roots(&mut engine, &mut reference, true);
        }
    }
    if gaps.is_empty() {
        schedule_roots(&mut engine, &mut reference, true);
    }
    engine.run_to_completion(&mut world);
    reference.run(None);
    prop_assert_eq!(&world.log, &reference.log);
    prop_assert_eq!(
        world.log.len(),
        specs.len(),
        "every event fires exactly once"
    );
    prop_assert_eq!(engine.now(), reference.now);
    prop_assert_eq!(engine.scheduler().pending(), 0);
}

proptest! {
    /// Arbitrary schedules: times from a range small enough that equal
    /// timestamps are the rule, absolute and relative kinds mixed so
    /// pushes arrive out of time order.
    #[test]
    fn delivery_order_matches_the_reference(
        rows in prop::collection::vec((0u64..40, 0u8..4, 0usize..64, 0u8..2), 1..64),
        gaps in prop::collection::vec(0u64..30, 0..6),
    ) {
        check(&rows, &gaps);
    }

    /// Mostly periodic schedules — the shape the simulators produce: each
    /// event re-arms a child one `period` later (ascending pushes), with a
    /// few short-delay messages landing in front of the already queued
    /// timers.
    #[test]
    fn periodic_timers_with_short_messages_match_the_reference(
        period in 1u64..20,
        phases in prop::collection::vec(0u64..20, 1..12),
        rearms in prop::collection::vec((0usize..12, 0u8..4, 0u64..20), 0..60),
        gaps in prop::collection::vec(0u64..60, 0..5),
    ) {
        // One root timer per phase; each re-arm row hangs off the latest
        // event of its chain: a timer one period later (kind 0..=2, which
        // extends the chain) or a message after a short delay (kind 3).
        let mut rows: Vec<Row> = phases.iter().map(|&p| (p, 0, usize::MAX, 0)).collect();
        let mut tip: Vec<usize> = (0..phases.len()).collect();
        for &(chain, kind, delay) in &rearms {
            let chain = chain % tip.len();
            if kind < 3 {
                rows.push((period, 1, tip[chain], 0));
                tip[chain] = rows.len() - 1;
            } else {
                rows.push((delay % period, 3, tip[chain], 0));
            }
        }
        check(&rows, &gaps);
    }
}
