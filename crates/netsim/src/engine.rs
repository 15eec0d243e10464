//! The discrete-event engine: queue, scheduler and event loop.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Index of a simulated node.
pub type NodeId = usize;

/// An event delivered to a [`World`].
#[derive(Clone)]
enum Event<P> {
    /// A timer registered by the world fired at `node` with an opaque `tag`.
    Timer {
        /// Node the timer belongs to.
        node: NodeId,
        /// Caller-defined discriminator (e.g. "probe round", "reposition").
        tag: u64,
    },
    /// A message sent from `from` arrives at `to`.
    Message {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Protocol-defined payload.
        payload: P,
    },
}

#[derive(Clone)]
struct Scheduled<P> {
    at: Time,
    seq: u64,
    event: Event<P>,
}

impl<P> Scheduled<P> {
    /// The total delivery order: time, then push order among ties.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

// Order by (at, seq) only — `seq` gives deterministic FIFO among ties.
// BinaryHeap is a max-heap, so comparisons are reversed.
impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}
impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<P> Eq for Scheduled<P> {}

/// The scheduling interface handed to [`World`] callbacks.
///
/// Worlds schedule timers and message deliveries at *absolute* or *relative*
/// simulated times; the engine owns the clock. Scheduling in the past is
/// clamped to "now" rather than panicking, so adversarial arithmetic cannot
/// wedge a run.
///
/// The queue has two lanes holding disjoint events. A push whose time is
/// not before the last event of `run` is appended to it; since `seq` only
/// grows, `run` is then sorted by `(at, seq)` by construction and needs no
/// sifting. Every other push goes to `heap`. The next event is the smaller
/// `(at, seq)` of the two heads, so delivery order is the same total order
/// a single heap gives, for any schedule. Periodic timers re-armed at
/// `now + period` are monotone and ride `run`; only out-of-order events
/// (short-latency messages scheduled behind a later timer) pay for the heap.
///
/// A clone is a queue with the same events in the same lanes, so it
/// delivers them in the same order.
#[derive(Clone)]
pub struct Scheduler<P> {
    now: Time,
    seq: u64,
    run: VecDeque<Scheduled<P>>,
    heap: BinaryHeap<Scheduled<P>>,
}

impl<P> Scheduler<P> {
    fn new() -> Self {
        Scheduler {
            now: 0,
            seq: 0,
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Current simulated time (ms).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Remove and return the next event in `(at, seq)` order, unless it
    /// fires after `horizon`.
    fn pop_due(&mut self, horizon: Time) -> Option<Scheduled<P>> {
        let run_key = self.run.front().map(Scheduled::key);
        let heap_key = self.heap.peek().map(Scheduled::key);
        let from_run = match (run_key, heap_key) {
            (Some(r), Some(h)) => r < h,
            (r, _) => r.is_some(),
        };
        let (at, _) = if from_run { run_key? } else { heap_key? };
        if at > horizon {
            return None;
        }
        if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
    }

    fn push(&mut self, at: Time, event: Event<P>) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let scheduled = Scheduled { at, seq, event };
        if self.run.back().map_or(true, |back| at >= back.at) {
            self.run.push_back(scheduled);
        } else {
            self.heap.push(scheduled);
        }
    }

    /// Fire a timer for `node` at absolute time `at`.
    pub fn timer_at(&mut self, at: Time, node: NodeId, tag: u64) {
        self.push(at, Event::Timer { node, tag });
    }

    /// Fire a timer for `node` after `delay` ms.
    pub fn timer_after(&mut self, delay: Time, node: NodeId, tag: u64) {
        self.timer_at(self.now.saturating_add(delay), node, tag);
    }

    /// Deliver `payload` from `from` to `to` at absolute time `at`.
    pub fn deliver_at(&mut self, at: Time, from: NodeId, to: NodeId, payload: P) {
        self.push(at, Event::Message { from, to, payload });
    }

    /// Deliver `payload` after `delay` ms (the one-way or round-trip latency,
    /// as the protocol chooses to model it).
    pub fn deliver_after(&mut self, delay: Time, from: NodeId, to: NodeId, payload: P) {
        self.deliver_at(self.now.saturating_add(delay), from, to, payload);
    }
}

/// A protocol simulation driven by the engine.
///
/// Implementations hold all protocol state (node tables, coordinates,
/// adversaries) and react to timers and message arrivals, scheduling further
/// events through the [`Scheduler`].
pub trait World {
    /// Message payload type carried between nodes.
    type Payload;

    /// A timer fired.
    fn on_timer(&mut self, sched: &mut Scheduler<Self::Payload>, node: NodeId, tag: u64);

    /// A message arrived.
    fn on_message(
        &mut self,
        sched: &mut Scheduler<Self::Payload>,
        from: NodeId,
        to: NodeId,
        payload: Self::Payload,
    );
}

/// The event loop: a clock plus a deterministic priority queue.
///
/// ```
/// use vcoord_netsim::{Engine, NodeId, Scheduler, World};
///
/// struct PingPong { pings: u32 }
/// impl World for PingPong {
///     type Payload = &'static str;
///     fn on_timer(&mut self, s: &mut Scheduler<&'static str>, node: NodeId, _tag: u64) {
///         s.deliver_after(10, node, 1 - node, "ping");
///     }
///     fn on_message(&mut self, s: &mut Scheduler<&'static str>, from: NodeId, to: NodeId, m: &'static str) {
///         if m == "ping" {
///             self.pings += 1;
///             s.deliver_after(10, to, from, "pong");
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.scheduler().timer_at(0, 0, 0);
/// let mut world = PingPong { pings: 0 };
/// engine.run_until(&mut world, 100);
/// assert_eq!(world.pings, 1);
/// ```
///
/// A clone continues from the same clock and queue: driven through equal
/// worlds, the original and the clone process the same events in the same
/// order.
#[derive(Clone)]
pub struct Engine<P> {
    sched: Scheduler<P>,
}

impl<P> Default for Engine<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Engine<P> {
    /// A fresh engine with the clock at zero and an empty queue.
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Access the scheduler (e.g. to seed initial timers).
    pub fn scheduler(&mut self) -> &mut Scheduler<P> {
        &mut self.sched
    }

    /// Process the next event unless it fires after `horizon`; returns
    /// `false` when nothing is due.
    fn step_due<W: World<Payload = P>>(&mut self, world: &mut W, horizon: Time) -> bool {
        let Some(s) = self.sched.pop_due(horizon) else {
            return false;
        };
        debug_assert!(s.at >= self.sched.now, "time went backwards");
        self.sched.now = s.at;
        match s.event {
            Event::Timer { node, tag } => world.on_timer(&mut self.sched, node, tag),
            Event::Message { from, to, payload } => {
                world.on_message(&mut self.sched, from, to, payload)
            }
        }
        true
    }

    /// Process one event; returns `false` when the queue is empty.
    pub fn step<W: World<Payload = P>>(&mut self, world: &mut W) -> bool {
        self.step_due(world, Time::MAX)
    }

    /// Run until the clock would pass `t` (events at exactly `t` are
    /// processed). Returns the number of events processed.
    pub fn run_until<W: World<Payload = P>>(&mut self, world: &mut W, t: Time) -> usize {
        let mut processed = 0;
        while self.step_due(world, t) {
            processed += 1;
        }
        // Advance the clock to t even if the queue drained early.
        if self.sched.now < t {
            self.sched.now = t;
        }
        processed
    }

    /// Run until the queue is empty. Returns events processed.
    pub fn run_to_completion<W: World<Payload = P>>(&mut self, world: &mut W) -> usize {
        let mut processed = 0;
        while self.step(world) {
            processed += 1;
        }
        processed
    }
}

/// World state installed at the injection instant (an adversary, a defense,
/// a fault plan): an `Option` that a clean world's derived `Clone` copies
/// as empty and that refuses to be cloned once filled. A world built from
/// these slots forks by `#[derive(Clone)]` before the injection instant,
/// never after.
pub struct Injected<T>(Option<T>);

impl<T> Default for Injected<T> {
    fn default() -> Self {
        Injected(None)
    }
}

impl<T> Clone for Injected<T> {
    /// # Panics
    /// Panics if the slot is filled.
    fn clone(&self) -> Self {
        assert!(
            self.0.is_none(),
            "fork of a system an adversary, defense or fault plan has touched"
        );
        Injected(None)
    }
}

impl<T> std::ops::Deref for Injected<T> {
    type Target = Option<T>;

    fn deref(&self) -> &Option<T> {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Injected<T> {
    fn deref_mut(&mut self) -> &mut Option<T> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Records the order events were seen in.
    struct Recorder {
        log: RefCell<Vec<(Time, String)>>,
    }

    impl World for Recorder {
        type Payload = String;
        fn on_timer(&mut self, s: &mut Scheduler<String>, node: NodeId, tag: u64) {
            self.log
                .borrow_mut()
                .push((s.now(), format!("t{node}:{tag}")));
        }
        fn on_message(&mut self, s: &mut Scheduler<String>, from: NodeId, to: NodeId, p: String) {
            self.log
                .borrow_mut()
                .push((s.now(), format!("m{from}->{to}:{p}")));
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            log: RefCell::new(Vec::new()),
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<String> = Engine::new();
        e.scheduler().timer_at(30, 0, 3);
        e.scheduler().timer_at(10, 0, 1);
        e.scheduler().timer_at(20, 0, 2);
        let mut w = recorder();
        e.run_to_completion(&mut w);
        let log = w.log.into_inner();
        assert_eq!(
            log,
            vec![
                (10, "t0:1".into()),
                (20, "t0:2".into()),
                (30, "t0:3".into())
            ]
        );
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut e: Engine<String> = Engine::new();
        for tag in 0..5 {
            e.scheduler().timer_at(7, 0, tag);
        }
        let mut w = recorder();
        e.run_to_completion(&mut w);
        let tags: Vec<String> = w.log.into_inner().into_iter().map(|(_, s)| s).collect();
        assert_eq!(tags, vec!["t0:0", "t0:1", "t0:2", "t0:3", "t0:4"]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e: Engine<String> = Engine::new();
        e.scheduler().timer_at(10, 0, 0);
        e.scheduler().timer_at(50, 0, 1);
        let mut w = recorder();
        let n = e.run_until(&mut w, 20);
        assert_eq!(n, 1);
        assert_eq!(e.now(), 20);
        assert_eq!(e.scheduler().pending(), 1);
        // Resume picks up the rest.
        e.run_until(&mut w, 100);
        assert_eq!(e.now(), 100);
        assert_eq!(w.log.into_inner().len(), 2);
    }

    #[test]
    fn past_scheduling_is_clamped_to_now() {
        struct PastSched;
        impl World for PastSched {
            type Payload = ();
            fn on_timer(&mut self, s: &mut Scheduler<()>, node: NodeId, tag: u64) {
                if tag == 0 {
                    // Absolute time 5 is in the past once now=10.
                    s.timer_at(5, node, 1);
                }
            }
            fn on_message(&mut self, _: &mut Scheduler<()>, _: NodeId, _: NodeId, _: ()) {}
        }
        let mut e: Engine<()> = Engine::new();
        e.scheduler().timer_at(10, 0, 0);
        let n = e.run_to_completion(&mut PastSched);
        assert_eq!(n, 2, "clamped event still fires");
        assert_eq!(e.now(), 10);
    }

    #[test]
    fn message_roundtrip_latency() {
        struct Echo;
        impl World for Echo {
            type Payload = u32;
            fn on_timer(&mut self, s: &mut Scheduler<u32>, _: NodeId, _: u64) {
                s.deliver_after(25, 0, 1, 99);
            }
            fn on_message(&mut self, s: &mut Scheduler<u32>, from: NodeId, to: NodeId, p: u32) {
                if p == 99 {
                    s.deliver_after(25, to, from, 100);
                } else {
                    assert_eq!(s.now(), 50);
                }
            }
        }
        let mut e: Engine<u32> = Engine::new();
        e.scheduler().timer_at(0, 0, 0);
        assert_eq!(e.run_to_completion(&mut Echo), 3);
        assert_eq!(e.now(), 50);
    }

    #[test]
    fn a_clone_continues_like_the_original() {
        let mut e: Engine<String> = Engine::new();
        for i in 0..40u64 {
            e.scheduler().timer_at((i * 7) % 23, (i % 3) as NodeId, i);
        }
        e.run_until(&mut recorder(), 10);
        let mut copy = e.clone();
        let (mut a, mut b) = (recorder(), recorder());
        e.run_to_completion(&mut a);
        copy.run_to_completion(&mut b);
        assert_eq!(a.log.into_inner(), b.log.into_inner());
        assert_eq!(e.now(), copy.now());
    }

    #[test]
    fn deterministic_event_counts() {
        // Two identical runs process identical event sequences.
        let run = || {
            let mut e: Engine<String> = Engine::new();
            for i in 0..100u64 {
                e.scheduler().timer_at(i % 17, (i % 5) as NodeId, i);
            }
            let mut w = recorder();
            e.run_to_completion(&mut w);
            w.log.into_inner()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_slot_id_payload_keeps_queue_entries_at_40_bytes() {
        // Time, sequence number, and a message of two node ids and a u32.
        assert_eq!(std::mem::size_of::<Scheduled<u32>>(), 40);
    }

    #[test]
    fn an_empty_slot_clones_empty() {
        let slot: Injected<String> = Injected::default();
        assert!(slot.clone().is_none());
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn a_filled_slot_refuses_to_clone() {
        let mut slot = Injected::default();
        *slot = Some("installed");
        let _ = slot.clone();
    }
}
