//! Time-ordered event queue of the discrete-event engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    pub hop: u8,
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
    /// Retransmission-timeout check; `token` guards against stale timers.
    Rto { flow: u32, token: u64 },
    /// Periodic metrics/trace sample.
    Sample,
}

#[derive(Debug, Clone)]
struct Entry {
    time: f64,
    seq: u64,
    ev: Ev,
}

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

/// A deterministic min-heap of timestamped events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    counter: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `ev` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// If `time` is not finite: the heap orders entries with
    /// `partial_cmp(..).unwrap_or(Equal)`, so a NaN would otherwise sort
    /// anywhere and silently mis-order every later event.
    pub fn push(&mut self, time: f64, ev: Ev) {
        assert!(
            time.is_finite(),
            "event time {time} is not finite for {ev:?}"
        );
        self.counter += 1;
        self.heap.push(Entry {
            time,
            seq: self.counter,
            ev,
        });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Ev)> {
        self.heap.pop().map(|e| (e.time, e.ev))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
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
}
