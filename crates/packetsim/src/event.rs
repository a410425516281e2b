//! Time-ordered event queue of the discrete-event engine.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A data packet in flight (metadata travels with the packet so that the
/// ACK can echo it back for RTT and delivery-rate sampling, as in BBR's
/// rate-sample design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pkt {
    pub flow: u32,
    /// Packet sequence number (in packets, not bytes).
    pub seq: u64,
    /// Size in bytes.
    pub size: f64,
    /// Time this (re)transmission left the sender.
    pub sent_time: f64,
    /// Sender's `delivered` counter at send time (round/rate tracking).
    pub delivered_at_send: f64,
    /// Whether this is a retransmission (Karn's rule: no RTT sample).
    pub retx: bool,
    /// Position of the next queued link on the flow's route.
    pub hop: u16,
}

/// Events handled by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A data packet arrives at the queued link `pkt.hop` on its route.
    Arrive { pkt: Pkt },
    /// The head-of-line packet of `link` finishes transmission.
    Dequeue { link: u32 },
    /// A data packet reaches the receiver.
    Recv { pkt: Pkt },
    /// An ACK reaches the sender; echoes the data packet's metadata plus
    /// the receiver's cumulative ACK (next expected seq).
    Ack { pkt: Pkt, rcv_next: u64 },
    /// A pacing / send-opportunity wake-up for the sender.
    Wake { flow: u32 },
    /// Retransmission-timeout check; `token` is the FIFO sequence number
    /// the entry is queued under, which tells the flow's live timer entry
    /// from superseded ones.
    Rto { flow: u32, token: u64 },
    /// Periodic metrics/trace sample.
    Sample,
}

#[derive(Debug)]
struct Entry {
    time: f64,
    seq: u64,
    /// Delay line the entry belongs to, or [`DIRECT`].
    line: usize,
    ev: Ev,
}

/// `Entry::line` of an entry pushed straight into the heap (no line has
/// this index).
const DIRECT: usize = usize::MAX;

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first; FIFO tie-break by insertion seq.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One delay line: a stream of entries pushed in `(time, seq)` order.
/// Only its head sits in the heap; the rest wait here in push order.
#[derive(Debug)]
struct Line {
    waiting: VecDeque<Entry>,
    /// Whether the line's head is in the heap.
    in_heap: bool,
    /// Time of the latest push.
    last: f64,
}

/// A deterministic min-heap of timestamped events.
///
/// Events pop in `(time, seq)` order: earliest time first, ties broken
/// by the FIFO sequence number every push takes. That order is output
/// data, since every outcome bit of the engine depends on it.
///
/// Besides plain pushes the queue has *delay lines*: streams whose
/// pushes never go back in time, such as the packets a link hands on
/// after its fixed propagation delay. A line keeps only its head in the
/// heap. Merging sorted streams by the same key pops the same sequence
/// as one heap holding every entry, so lines shrink the heap without
/// moving one event.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    lines: Vec<Line>,
    counter: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue with `lines` delay lines, numbered from 0.
    pub(crate) fn with_lines(lines: usize) -> Self {
        Self {
            lines: (0..lines)
                .map(|_| Line {
                    waiting: VecDeque::new(),
                    in_heap: false,
                    last: f64::NEG_INFINITY,
                })
                .collect(),
            ..Self::default()
        }
    }

    /// Schedule `ev` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// If `time` is not finite: the heap orders entries with
    /// `partial_cmp(..).unwrap_or(Equal)`, so a NaN would otherwise sort
    /// anywhere and silently mis-order every later event.
    pub fn push(&mut self, time: f64, ev: Ev) {
        let seq = self.reserve();
        self.push_reserved(time, seq, ev);
    }

    /// Take the next FIFO sequence number without pushing, for an entry
    /// pushed later through [`EventQueue::push_reserved`].
    pub(crate) fn reserve(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// Schedule `ev` at `time` under a sequence number taken earlier with
    /// [`EventQueue::reserve`]: it pops exactly where a push made at the
    /// reservation would have. Panics as [`EventQueue::push`] does.
    pub(crate) fn push_reserved(&mut self, time: f64, seq: u64, ev: Ev) {
        assert_finite(time, &ev);
        self.heap.push(Entry {
            time,
            seq,
            line: DIRECT,
            ev,
        });
    }

    /// Schedule `ev` at `time` on delay line `line`.
    ///
    /// # Panics
    ///
    /// If `time` is not finite, or earlier than the line's previous push:
    /// a line out of order would pop its entries out of `(time, seq)`
    /// order.
    pub(crate) fn push_line(&mut self, line: usize, time: f64, ev: Ev) {
        assert_finite(time, &ev);
        let seq = self.reserve();
        let l = &mut self.lines[line];
        assert!(
            time >= l.last,
            "delay line {line} went back in time: {time} after {} for {ev:?}",
            l.last
        );
        l.last = time;
        let entry = Entry {
            time,
            seq,
            line,
            ev,
        };
        if l.in_heap {
            l.waiting.push_back(entry);
        } else {
            l.in_heap = true;
            self.heap.push(entry);
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Ev)> {
        let mut top = self.heap.peek_mut()?;
        let entry = match self.lines.get_mut(top.line) {
            // A line head: its successor takes its place in the heap.
            Some(line) => match line.waiting.pop_front() {
                Some(next) => std::mem::replace(&mut *top, next),
                None => {
                    line.in_heap = false;
                    PeekMut::pop(top)
                }
            },
            None => PeekMut::pop(top),
        };
        Some((entry.time, entry.ev))
    }

    /// Number of queued events, delay lines included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lines.iter().map(|l| l.waiting.len()).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        // A line with waiting entries always has its head in the heap.
        self.heap.is_empty()
    }
}

fn assert_finite(time: f64, ev: &Ev) {
    assert!(
        time.is_finite(),
        "event time {time} is not finite for {ev:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Ev::Sample);
        q.push(1.0, Ev::Wake { flow: 0 });
        q.push(3.0, Ev::Dequeue { link: 0 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        q.push(1.0, Ev::Wake { flow: 1 });
        q.push(1.0, Ev::Wake { flow: 2 });
        q.push(1.0, Ev::Wake { flow: 3 });
        let order: Vec<u32> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Ev::Wake { flow } => flow,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "event time NaN is not finite for Wake")]
    fn nan_event_time_is_rejected() {
        EventQueue::new().push(f64::NAN, Ev::Wake { flow: 0 });
    }

    #[test]
    #[should_panic(expected = "event time inf is not finite for Sample")]
    fn infinite_event_time_is_rejected() {
        EventQueue::new().push(f64::INFINITY, Ev::Sample);
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Ev::Sample);
        q.push(2.0, Ev::Sample);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    fn wake_flow(ev: Ev) -> u32 {
        match ev {
            Ev::Wake { flow } => flow,
            other => panic!("expected a wake-up, got {other:?}"),
        }
    }

    #[test]
    fn reserved_seq_pops_before_a_later_push_at_the_same_time() {
        let mut q = EventQueue::new();
        let early = q.reserve();
        q.push(1.0, Ev::Wake { flow: 1 });
        q.push_reserved(1.0, early, Ev::Wake { flow: 0 });
        let order: Vec<u32> = (0..2).map(|_| wake_flow(q.pop().unwrap().1)).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn len_counts_line_entries() {
        let mut q = EventQueue::with_lines(2);
        for t in [1.0, 1.0, 2.0] {
            q.push_line(0, t, Ev::Sample);
        }
        q.push_line(1, 0.5, Ev::Sample);
        q.push(3.0, Ev::Sample);
        // Two line heads and one direct entry in the heap, two waiting.
        assert_eq!(q.len(), 5);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
            assert_eq!(q.len(), 5 - popped);
        }
        assert_eq!(popped, 5);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "delay line 1 went back in time: 1.5 after 2")]
    fn line_push_going_back_in_time_is_rejected() {
        let mut q = EventQueue::with_lines(2);
        q.push_line(1, 2.0, Ev::Sample);
        q.pop();
        q.push_line(1, 1.5, Ev::Sample);
    }

    /// Random interleavings of direct, reserved and line pushes with
    /// pops, on a coarse time grid so exact ties are common, pop in
    /// exactly the order of a plain heap keyed by `(time, seq)`.
    #[test]
    fn lines_and_reservations_pop_like_one_heap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;

        const LINES: usize = 5;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let tick = |rng: &mut StdRng, max: u64| rng.gen::<u64>() % (max + 1);
        for _ in 0..200 {
            let mut q = EventQueue::with_lines(LINES);
            // Reference: every entry in one heap, keyed by (tick, seq).
            let mut reference = BinaryHeap::new();
            let mut line_last = [0u64; LINES];
            let mut reserved: Vec<u64> = Vec::new();
            let mut now = 0u64;
            let mut next_id = 0u32;
            for _ in 0..400 {
                let id = next_id;
                let ev = Ev::Wake { flow: id };
                let (at, seq) = match tick(&mut rng, 9) {
                    0..=2 => {
                        let at = now + tick(&mut rng, 3);
                        q.push(at as f64, ev);
                        (at, q.counter)
                    }
                    3..=5 => {
                        let line = (rng.gen::<u64>() % LINES as u64) as usize;
                        let at = line_last[line].max(now) + tick(&mut rng, 2);
                        line_last[line] = at;
                        q.push_line(line, at as f64, ev);
                        (at, q.counter)
                    }
                    6 => {
                        reserved.push(q.reserve());
                        continue;
                    }
                    7 if !reserved.is_empty() => {
                        let i = (rng.gen::<u64>() % reserved.len() as u64) as usize;
                        let seq = reserved.swap_remove(i);
                        let at = now + tick(&mut rng, 3);
                        q.push_reserved(at as f64, seq, ev);
                        (at, seq)
                    }
                    _ => {
                        let got = q.pop().map(|(t, ev)| (t as u64, wake_flow(ev)));
                        let want = reference.pop().map(|Reverse((t, _, id))| (t, id));
                        assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            now = t;
                        }
                        continue;
                    }
                };
                next_id += 1;
                reference.push(Reverse((at, seq, id)));
                assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse((t, _, id))) = reference.pop() {
                let (got_t, ev) = q.pop().expect("queue ran dry before the reference");
                assert_eq!((got_t as u64, wake_flow(ev)), (t, id));
            }
            assert!(q.pop().is_none());
        }
    }
}
