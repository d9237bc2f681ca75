//! A simulated-WAN transport: seeded per-link latency, reordering, and
//! probabilistic loss for in-process fabrics.
//!
//! [`SimWanTransport`] holds every delivery handle on a timer wheel instead
//! of invoking it synchronously. Each directed link (sender, destination)
//! owns an independent [`StdRng`] stream derived from the configured seed,
//! so a given `(seed, topology, workload)` triple replays the exact same
//! loss/latency schedule — fault injection stays deterministic even though
//! deliveries land from a timer thread.
//!
//! Losses are *silent*: the sender sees [`CarryStatus::InFlight`] whether
//! the message will arrive or not, exactly like UDP over a real WAN. The
//! engine's timeout/resubmit/idempotence-ledger machinery (PRs 4–5) is what
//! turns that into exactly-once behavior, and [`Transport::is_lossy`]
//! advertises that resubmits are worth attempting even with every host
//! alive.
//!
//! ```
//! use std::time::Duration;
//! use skipweb_net::{SimWanConfig, SimWanTransport};
//!
//! let wan = SimWanTransport::new(SimWanConfig {
//!     seed: 7,
//!     latency: Duration::from_micros(200),
//!     jitter: Duration::from_micros(150),
//!     loss: 0.05,
//! });
//! assert!(wan.cfg().loss > 0.0);
//! ```

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{Counter, TransportCounters, TransportStats};
use crate::runtime::{Delivery, ReplyDelivery, Sender};
use crate::transport::{CarryStatus, Transport};
use crate::HostId;

/// Fault-model parameters for a [`SimWanTransport`].
#[derive(Debug, Clone, Copy)]
pub struct SimWanConfig {
    /// Root seed; every directed link derives its own RNG stream from it.
    pub seed: u64,
    /// Mean one-way delay applied to every message and reply.
    pub latency: Duration,
    /// Uniform jitter: actual delay is `latency ± jitter` (clamped at 0).
    /// Jitter larger than the inter-send gap is what produces reordering.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that any given message or reply is silently
    /// dropped.
    pub loss: f64,
}

impl Default for SimWanConfig {
    /// A mild default: 200µs ± 150µs delay, no loss.
    fn default() -> Self {
        SimWanConfig {
            seed: 0,
            latency: Duration::from_micros(200),
            jitter: Duration::from_micros(150),
            loss: 0.0,
        }
    }
}

/// A pending delivery on the timer wheel, ordered soonest-first.
struct Delayed {
    due: Instant,
    seq: u64,
    job: Box<dyn FnOnce() + Send>,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due time
        // on top. Ties break by submission order.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-directed-link state: an independent RNG stream plus the due time of
/// the last scheduled delivery (for reorder detection).
struct Link {
    rng: StdRng,
    last_due: Option<Instant>,
}

struct Wheel {
    heap: BinaryHeap<Delayed>,
    closed: bool,
}

struct Shared {
    cfg: SimWanConfig,
    wheel: Mutex<Wheel>,
    cv: Condvar,
    links: Mutex<HashMap<(u64, u64), Link>>,
    seq: Counter,
    counters: TransportCounters,
    stopped: AtomicBool,
}

/// An in-process transport that delays, reorders, and probabilistically
/// drops messages under a deterministic seed. See the [module docs](self).
pub struct SimWanTransport {
    shared: Arc<Shared>,
    timer: Mutex<Option<thread::JoinHandle<()>>>,
}

/// SplitMix64-style mixer: derives a per-link seed from the root seed and
/// the two endpoint codes.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable code for a link endpoint: hosts occupy the low half, clients the
/// high half, so host 3 and client 3 get distinct RNG streams.
fn sender_code(s: Sender) -> u64 {
    match s {
        Sender::Host(HostId(h)) => h as u64,
        Sender::Client(c) => (1u64 << 32) + c.0,
    }
}

impl SimWanTransport {
    /// Builds the transport and starts its timer thread.
    pub fn new(cfg: SimWanConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.loss),
            "loss must be a probability in [0, 1]"
        );
        let shared = Arc::new(Shared {
            cfg,
            wheel: Mutex::new(Wheel {
                heap: BinaryHeap::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            links: Mutex::new(HashMap::new()),
            seq: Counter::default(),
            counters: TransportCounters::default(),
            stopped: AtomicBool::new(false),
        });
        let timer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("simwan-timer".into())
                .spawn(move || Self::run_timer(&shared))
                .expect("spawn simwan timer thread")
        };
        SimWanTransport {
            shared,
            timer: Mutex::new(Some(timer)),
        }
    }

    /// The fault-model parameters this transport was built with.
    pub fn cfg(&self) -> SimWanConfig {
        self.shared.cfg
    }

    fn run_timer(shared: &Shared) {
        let mut wheel = shared
            .wheel
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            let now = Instant::now();
            match wheel.heap.peek() {
                None => {
                    if wheel.closed {
                        return;
                    }
                    wheel = shared
                        .cv
                        .wait(wheel)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(head) if head.due <= now => {
                    let job = wheel.heap.pop().expect("peeked entry vanished").job;
                    drop(wheel);
                    job();
                    wheel = shared
                        .wheel
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(head) => {
                    let wait = head.due - now;
                    let (w, _) = shared
                        .cv
                        .wait_timeout(wheel, wait)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    wheel = w;
                }
            }
        }
    }

    /// Rolls the per-link fault model: returns `None` when the message is
    /// lost, otherwise the scheduled due time (recording a reorder when it
    /// lands before an already-scheduled delivery on the same link).
    fn schedule_roll(&self, from: u64, to: u64) -> Option<Instant> {
        let cfg = self.shared.cfg;
        let mut links = self
            .shared
            .links
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let link = links.entry((from, to)).or_insert_with(|| Link {
            rng: StdRng::seed_from_u64(mix(cfg.seed, from, to)),
            last_due: None,
        });
        self.shared.counters.carried.add(1);
        if cfg.loss > 0.0 && link.rng.gen_bool(cfg.loss) {
            self.shared.counters.lost.add(1);
            return None;
        }
        let jitter_us = cfg.jitter.as_micros() as u64;
        let offset_us = if jitter_us == 0 {
            0
        } else {
            link.rng.gen_range(0..=2 * jitter_us)
        };
        let delay = cfg
            .latency
            .saturating_add(Duration::from_micros(offset_us))
            .saturating_sub(cfg.jitter);
        let due = Instant::now() + delay;
        match link.last_due {
            Some(last) if due < last => {
                self.shared.counters.reordered.add(1);
            }
            _ => link.last_due = Some(due),
        }
        Some(due)
    }

    fn enqueue(&self, due: Instant, job: Box<dyn FnOnce() + Send>) {
        let seq = self.shared.seq.add(1);
        let mut wheel = self
            .shared
            .wheel
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if wheel.closed {
            return;
        }
        wheel.heap.push(Delayed { due, seq, job });
        drop(wheel);
        self.shared.cv.notify_one();
    }
}

impl<M: Send + 'static, R: Send + 'static> Transport<M, R> for SimWanTransport {
    fn carry(&self, msg: M, delivery: Delivery<M, R>) -> CarryStatus {
        let from = sender_code(delivery.from());
        let to = sender_code(Sender::Host(delivery.to()));
        let Some(due) = self.schedule_roll(from, to) else {
            // Lost in flight: the sender cannot tell.
            return CarryStatus::InFlight;
        };
        let delivered = Arc::clone(&self.shared);
        self.enqueue(
            due,
            Box::new(move || {
                if delivery.deliver(msg) == CarryStatus::Delivered {
                    delivered.counters.delivered.add(1);
                }
            }),
        );
        CarryStatus::InFlight
    }

    fn carry_reply(&self, reply: R, delivery: ReplyDelivery<M, R>) {
        let from = sender_code(Sender::Host(delivery.from()));
        let to = sender_code(Sender::Client(delivery.client()));
        let Some(due) = self.schedule_roll(from, to) else {
            return;
        };
        let delivered = Arc::clone(&self.shared);
        self.enqueue(
            due,
            Box::new(move || {
                delivery.deliver(reply);
                delivered.counters.delivered.add(1);
            }),
        );
    }

    fn is_lossy(&self) -> bool {
        self.shared.cfg.loss > 0.0
    }

    fn stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    fn shutdown(&self) {
        if self.shared.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut wheel = self
                .shared
                .wheel
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            wheel.closed = true;
            // In-flight deliveries target mailboxes that are already closed
            // at shutdown; discard them rather than draining.
            wheel.heap.clear();
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self
            .timer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for SimWanTransport {
    fn drop(&mut self) {
        Transport::<(), ()>::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::runtime::{Actor, ClientId, Context, Inbound, Runtime, RuntimeError, Sender};

    /// Echo actor: forwards to the next host until hops run out, then
    /// replies with the total hop count.
    struct Relay {
        hosts: usize,
    }
    #[derive(Debug)]
    struct Hop {
        client: ClientId,
        left: u32,
        taken: u32,
    }
    impl Hop {
        /// A walk of `left` hops that answers `client`.
        fn start(client: ClientId, left: u32) -> Self {
            Hop {
                client,
                left,
                taken: 0,
            }
        }
    }
    impl Actor for Relay {
        type Msg = Hop;
        type Reply = u32;
        fn on_message(&mut self, _from: Sender, msg: Hop, ctx: &mut Context<'_, Hop, u32>) {
            if msg.left == 0 {
                ctx.reply(msg.client, msg.taken);
            } else {
                let next = HostId((ctx.host().0 + 1) % self.hosts as u32);
                ctx.send(
                    next,
                    Hop {
                        client: msg.client,
                        left: msg.left - 1,
                        taken: msg.taken + 1,
                    },
                );
            }
        }
    }

    #[test]
    fn lossless_wan_delivers_with_latency() {
        let wan = Arc::new(SimWanTransport::new(SimWanConfig {
            seed: 42,
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(80),
            loss: 0.0,
        }));
        let rt = Runtime::spawn_with_transport(4, wan.clone(), |_| Relay { hosts: 4 });
        let client = rt.client();
        for _ in 0..8 {
            client.send(HostId(0), Hop::start(client.id(), 5)).unwrap();
            assert_eq!(client.recv_timeout(Duration::from_secs(5)).unwrap(), 5);
        }
        // Per request: 1 injection + 5 forwards + 1 reply = 7 carries.
        let expect = 8 * 7;
        // The `delivered` bump lands on the timer thread just after the
        // client sees the reply; give it a moment to settle.
        let deadline = Instant::now() + Duration::from_secs(2);
        while rt.host_traffic().transport.delivered < expect && Instant::now() < deadline {
            thread::yield_now();
        }
        let stats = rt.host_traffic().transport;
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.carried, expect);
        assert_eq!(stats.delivered, expect);
        assert!(!rt.transport_lossy());
        rt.shutdown();
    }

    /// The simulated WAN, plus the injection handle it ignores: a walk can
    /// start at a host without a client send the WAN would lose.
    struct Tapped(SimWanTransport, OnceLock<Inbound<Hop, u32>>);
    impl Transport<Hop, u32> for Tapped {
        fn carry(&self, msg: Hop, delivery: Delivery<Hop, u32>) -> CarryStatus {
            self.0.carry(msg, delivery)
        }
        fn carry_reply(&self, reply: u32, delivery: ReplyDelivery<Hop, u32>) {
            self.0.carry_reply(reply, delivery);
        }
        fn attach(&self, inbound: Inbound<Hop, u32>) {
            let _ = self.1.set(inbound);
        }
        fn is_lossy(&self) -> bool {
            Transport::<Hop, u32>::is_lossy(&self.0)
        }
        fn stats(&self) -> TransportStats {
            Transport::<Hop, u32>::stats(&self.0)
        }
        fn shutdown(&self) {
            Transport::<Hop, u32>::shutdown(&self.0);
        }
    }

    #[test]
    fn total_loss_times_out_and_counts_losses() {
        let wan = Arc::new(Tapped(
            SimWanTransport::new(SimWanConfig {
                seed: 7,
                latency: Duration::from_micros(50),
                jitter: Duration::ZERO,
                loss: 1.0,
            }),
            OnceLock::new(),
        ));
        let rt = Runtime::spawn_with_transport(2, wan.clone(), |_| Relay { hosts: 2 });
        let client = rt.client();
        // The client's injection is lost on the wire ...
        client.send(HostId(0), Hop::start(client.id(), 1)).unwrap();
        assert!(matches!(
            client.recv_timeout(Duration::from_millis(100)),
            Err(RuntimeError::Timeout)
        ));
        // ... and so is host 0's forward once the walk starts past the WAN.
        let inbound = wan.1.get().expect("the runtime attaches its transport");
        inbound.deliver_msg(
            Sender::Client(client.id()),
            HostId(0),
            crate::runtime::TrafficClass::Query,
            Hop::start(client.id(), 1),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.host_traffic().transport.carried < 2 && Instant::now() < deadline {
            thread::yield_now();
        }
        // One snapshot holds both sides: the routing layer counted the one
        // host-to-host send, the wire counted it lost.
        let traffic = rt.host_traffic();
        assert_eq!(traffic.total_sent(), 1);
        assert_eq!(traffic.received, vec![0, 0]);
        assert_eq!(traffic.transport.carried, 2);
        assert_eq!(traffic.transport.lost, traffic.transport.carried);
        assert_eq!(traffic.transport.delivered, 0);
        assert!(rt.transport_lossy());
        rt.shutdown();
    }

    #[test]
    fn same_seed_rolls_identical_loss_schedules() {
        let roll = |seed| {
            let wan = SimWanTransport::new(SimWanConfig {
                seed,
                latency: Duration::ZERO,
                jitter: Duration::ZERO,
                loss: 0.3,
            });
            let mut pattern = Vec::new();
            for _ in 0..64 {
                pattern.push(wan.schedule_roll(0, 1).is_some());
            }
            Transport::<(), ()>::shutdown(&wan);
            (pattern, Transport::<(), ()>::stats(&wan).lost)
        };
        let (a, lost_a) = roll(99);
        let (b, lost_b) = roll(99);
        let (c, _) = roll(100);
        assert_eq!(a, b);
        assert_eq!(lost_a, lost_b);
        assert!(lost_a > 0, "30% loss over 64 rolls should drop something");
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn jitter_produces_reordering() {
        let wan = SimWanTransport::new(SimWanConfig {
            seed: 3,
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(2),
            loss: 0.0,
        });
        for _ in 0..256 {
            wan.schedule_roll(0, 1);
        }
        let stats = Transport::<(), ()>::stats(&wan);
        assert!(
            stats.reordered > 0,
            "±2ms jitter on back-to-back sends must reorder some: {stats}"
        );
        Transport::<(), ()>::shutdown(&wan);
    }
}
