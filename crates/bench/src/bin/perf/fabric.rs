//! The load generator shared by the four fabric workloads: a seeded op
//! stream, a closed loop that keeps [`CLIENTS`] operations in flight over
//! one `EngineClient`, and the oracle that judges every reply.
//!
//! The op stream is a pure function of the seed. Timing decides only when
//! an op is submitted, never which op comes next: a remove whose victim's
//! insert has not been acknowledged yet waits for that acknowledgement
//! instead of being swapped for another op.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use skipweb_core::engine::{DistributedSkipWeb, EngineClient, EngineReply, ReplyBody, Routable};
use skipweb_core::skipweb::SkipWeb;
use skipweb_net::runtime::RuntimeError;
use skipweb_structures::traits::RangeDetermined;

use crate::gen::Rng;

/// Logical clients multiplexed by the one generator thread (the ISSUE's W).
pub const CLIENTS: usize = 4;
/// Actor threads of every benchmarked fabric.
pub const HOSTS: usize = 4;
/// A reply that takes longer than this counts as lost and ends the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub type Structure<S> = <S as Shape>::D;
pub type Item<S> = <<S as Shape>::D as RangeDetermined>::Item;
pub type Request<S> = <<S as Shape>::D as Routable>::Request;
pub type Answer<S> = <<S as Shape>::D as Routable>::Answer;

/// Shares of the op mix, in per cent; they sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub read: u64,
    pub insert: u64,
}

/// What one workload contributes: its structure, its seeded inputs, and the
/// sequential model that says which answers are right.
pub trait Shape: Sized + 'static {
    type D: Routable<Answer: PartialEq> + Send + Sync + 'static;

    /// Generates the inputs for `seed`; `shrink` divides the sizes (1 for a
    /// real run, 8 for `--quick`).
    fn new(seed: u64, shrink: usize) -> Self;
    fn mix(&self) -> Mix;
    /// The stored set the fabric is built over.
    fn items(&self) -> Vec<Item<Self>>;
    /// The read pool: every read op sends one of these requests.
    fn pool(&self) -> &[Request<Self>];
    /// The `serial`-th churn item: never equal to a stored item or to
    /// another churn item.
    fn fresh(&self, rng: &mut Rng, serial: u64) -> Item<Self>;
    /// The sequential model's answer to every pool request over the stored
    /// set (`web` is the simulator built from [`items`](Self::items)).
    fn model(&self, web: &SkipWeb<Self::D>) -> Vec<Answer<Self>>;
    /// Whether `got` is a right answer to `req`: the model's answer, or one
    /// that the churn items live around the op explain.
    fn check(
        &self,
        req: &Request<Self>,
        expected: &Answer<Self>,
        got: &Answer<Self>,
        churn: &ChurnWindow<'_, Item<Self>>,
    ) -> bool;
    /// The point a request routes toward, as an item (all three structures
    /// use one type for both) — the input of the structure-level probes.
    fn target_item(req: &Request<Self>) -> Item<Self>;
    /// Whether `req` is a range report, which `query_scatter` may split
    /// across hosts (every trie prefix is; a 1-D request falls back to the
    /// serial answer, which is what the probe then times).
    fn reports(_req: &Request<Self>) -> bool {
        true
    }
}

/// One operation of the stream.
#[derive(Debug, Clone)]
pub enum OpKind<S: Shape> {
    Read {
        pool: usize,
    },
    Insert {
        item: Item<S>,
        bits: u64,
        serial: u64,
    },
    Remove {
        item: Item<S>,
        serial: u64,
    },
}

#[derive(Debug, Clone)]
pub struct Op<S: Shape> {
    pub origin: usize,
    pub kind: OpKind<S>,
}

impl<S: Shape> Op<S> {
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read { .. })
    }

    pub fn label(&self) -> &'static str {
        match self.kind {
            OpKind::Read { .. } => "read",
            OpKind::Insert { .. } => "insert",
            OpKind::Remove { .. } => "remove",
        }
    }
}

/// Where ops go: the live fabric, or a stub that answers at once (which
/// prices the generator and the oracle themselves).
pub trait Port<S: Shape> {
    fn submit(&mut self, op: &Op<S>, pool: &[Request<S>]) -> Result<u64, RuntimeError>;
    fn recv(&mut self) -> Result<EngineReply<S::D>, RuntimeError>;
}

pub struct Live<'a, S: Shape> {
    pub fabric: &'a DistributedSkipWeb<S::D>,
    pub client: &'a EngineClient<S::D>,
}

impl<S: Shape> Port<S> for Live<'_, S> {
    fn submit(&mut self, op: &Op<S>, pool: &[Request<S>]) -> Result<u64, RuntimeError> {
        match &op.kind {
            OpKind::Read { pool: i } => {
                self.fabric.submit(self.client, op.origin, pool[*i].clone())
            }
            OpKind::Insert { item, bits, .. } => {
                self.fabric
                    .submit_insert(self.client, op.origin, item.clone(), *bits)
            }
            OpKind::Remove { item, .. } => {
                self.fabric
                    .submit_remove(self.client, op.origin, item.clone())
            }
        }
    }

    fn recv(&mut self) -> Result<EngineReply<S::D>, RuntimeError> {
        self.client.recv_any(REPLY_TIMEOUT)
    }
}

/// Replies with the model's own answer, immediately.
pub struct Stub<'a, S: Shape> {
    expected: &'a [Answer<S>],
    next: u64,
    queue: VecDeque<EngineReply<S::D>>,
}

impl<'a, S: Shape> Stub<'a, S> {
    pub fn new(expected: &'a [Answer<S>]) -> Self {
        Stub {
            expected,
            next: 0,
            queue: VecDeque::new(),
        }
    }
}

impl<S: Shape> Port<S> for Stub<'_, S> {
    fn submit(&mut self, op: &Op<S>, _pool: &[Request<S>]) -> Result<u64, RuntimeError> {
        let corr = self.next;
        self.next += 1;
        let body = match &op.kind {
            OpKind::Read { pool } => ReplyBody::Answer(self.expected[*pool].clone()),
            _ => ReplyBody::Updated { applied: true },
        };
        self.queue.push_back(EngineReply {
            corr,
            hops: 0,
            body,
        });
        Ok(corr)
    }

    fn recv(&mut self) -> Result<EngineReply<S::D>, RuntimeError> {
        self.queue.pop_front().ok_or(RuntimeError::Timeout)
    }
}

/// The life of one churn item on the driver's event clock (one tick per
/// submit and per reply).
#[derive(Debug, Clone)]
struct ChurnRec<I> {
    item: I,
    serial: u64,
    ins_submit: u64,
    ins_ack: Option<u64>,
    rem_submit: Option<u64>,
    rem_ack: Option<u64>,
}

/// The churn items around one read, which was submitted at tick `s` and
/// answered at tick `r`.
pub struct ChurnWindow<'a, I> {
    recs: &'a VecDeque<ChurnRec<I>>,
    s: u64,
    r: u64,
}

impl<I> ChurnWindow<'_, I> {
    /// Items the read may have seen: inserted (perhaps) before the reply,
    /// removed (for certain) no earlier than the submit.
    pub fn possible(&self) -> impl Iterator<Item = &I> {
        self.recs
            .iter()
            .filter(|c| c.ins_submit < self.r && c.rem_ack.is_none_or(|a| a > self.s))
            .map(|c| &c.item)
    }

    /// Items the read must have seen: acknowledged before the submit, and
    /// no remove submitted before the reply.
    pub fn definite(&self) -> impl Iterator<Item = &I> {
        self.recs
            .iter()
            .filter(|c| {
                c.ins_ack.is_some_and(|a| a < self.s) && c.rem_submit.is_none_or(|x| x > self.r)
            })
            .map(|c| &c.item)
    }
}

struct Flight<S: Shape> {
    corr: u64,
    op: Op<S>,
    tick: u64,
    t_submit: Instant,
    t_sent: Instant,
}

/// One completed op, as the traced replay sees it.
pub struct Done<S: Shape> {
    pub op: Op<S>,
    pub t_submit: Instant,
    pub t_sent: Instant,
    pub t_done: Instant,
    pub hops: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub read: bool,
    pub latency_ns: u64,
}

/// Generates the stream, keeps `width` ops in flight, checks every reply.
pub struct Driver<'a, S: Shape> {
    shape: &'a S,
    expected: &'a [Answer<S>],
    origins: usize,
    width: usize,
    rng: Rng,
    clock: u64,
    serial: u64,
    churn: VecDeque<ChurnRec<Item<S>>>,
    held: Option<Op<S>>,
    inflight: Vec<Flight<S>>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a, S: Shape> Driver<'a, S> {
    /// `origins` is the stored set's size: the live set never shrinks below
    /// it (removes only take churn items), so every origin below it stays
    /// in bounds under any interleaving.
    pub fn new(
        shape: &'a S,
        expected: &'a [Answer<S>],
        origins: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        Driver {
            shape,
            expected,
            origins,
            width,
            rng: Rng::stream(seed, "ops"),
            clock: 0,
            serial: 0,
            churn: VecDeque::new(),
            held: None,
            inflight: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn next_op(&mut self) -> Op<S> {
        let mix = self.shape.mix();
        let roll = self.rng.below(100);
        let origin = self.rng.index(self.origins);
        if roll < mix.read {
            let pool = self.rng.index(self.expected.len());
            return Op {
                origin,
                kind: OpKind::Read { pool },
            };
        }
        // A remove takes the oldest churn item not yet given to a remove;
        // with none outstanding it becomes an insert.
        let victim = self.churn.iter().find(|c| c.rem_submit.is_none());
        let kind = match victim {
            Some(c) if roll >= mix.read + mix.insert => OpKind::Remove {
                item: c.item.clone(),
                serial: c.serial,
            },
            _ => {
                let serial = self.serial;
                self.serial += 1;
                OpKind::Insert {
                    item: self.shape.fresh(&mut self.rng, serial),
                    bits: self.rng.next_u64(),
                    serial,
                }
            }
        };
        Op { origin, kind }
    }

    fn rec_mut(&mut self, serial: u64) -> &mut ChurnRec<Item<S>> {
        self.churn
            .iter_mut()
            .find(|c| c.serial == serial)
            .expect("a churn item is tracked until its remove is acknowledged")
    }

    /// Whether `op` may be submitted now (see the module docs).
    fn ready(&self, op: &Op<S>) -> bool {
        match &op.kind {
            OpKind::Remove { serial, .. } => self
                .churn
                .iter()
                .any(|c| c.serial == *serial && c.ins_ack.is_some()),
            _ => true,
        }
    }

    fn submit(&mut self, op: Op<S>, port: &mut impl Port<S>) -> Result<(), RuntimeError> {
        let tick = self.clock;
        self.clock += 1;
        match &op.kind {
            OpKind::Read { .. } => {}
            OpKind::Insert { item, serial, .. } => self.churn.push_back(ChurnRec {
                item: item.clone(),
                serial: *serial,
                ins_submit: tick,
                ins_ack: None,
                rem_submit: None,
                rem_ack: None,
            }),
            OpKind::Remove { serial, .. } => self.rec_mut(*serial).rem_submit = Some(tick),
        }
        self.attempted += 1;
        let t_submit = Instant::now();
        let corr = port
            .submit(&op, self.shape.pool())
            .inspect_err(|_| self.failed += 1)?;
        self.inflight.push(Flight {
            corr,
            op,
            tick,
            t_submit,
            t_sent: Instant::now(),
        });
        Ok(())
    }

    fn complete(&mut self, port: &mut impl Port<S>) -> Result<Done<S>, RuntimeError> {
        let reply = port
            .recv()
            .inspect_err(|_| self.failed += self.inflight.len() as u64)?;
        let t_done = Instant::now();
        let at = self
            .inflight
            .iter()
            .position(|f| f.corr == reply.corr)
            .ok_or(RuntimeError::Disconnected)
            .inspect_err(|_| self.failed += 1)?;
        let flight = self.inflight.swap_remove(at);
        let tick = self.clock;
        self.clock += 1;
        let ok = match (&flight.op.kind, &reply.body) {
            (OpKind::Read { pool }, ReplyBody::Answer(got)) => self.shape.check(
                &self.shape.pool()[*pool],
                &self.expected[*pool],
                got,
                &ChurnWindow {
                    recs: &self.churn,
                    s: flight.tick,
                    r: tick,
                },
            ),
            (OpKind::Insert { serial, .. }, ReplyBody::Updated { applied }) => {
                self.rec_mut(*serial).ins_ack = Some(tick);
                *applied
            }
            (OpKind::Remove { serial, .. }, ReplyBody::Updated { applied }) => {
                self.rec_mut(*serial).rem_ack = Some(tick);
                *applied
            }
            _ => false,
        };
        if !ok {
            self.failed += 1;
        }
        // A removed item stays on record while a read submitted before the
        // remove's acknowledgement is still in flight.
        let oldest = self.inflight.iter().map(|f| f.tick).min().unwrap_or(tick);
        while self
            .churn
            .front()
            .is_some_and(|c| c.rem_ack.is_some_and(|a| a < oldest))
        {
            self.churn.pop_front();
        }
        self.samples.push(Sample {
            read: flight.op.is_read(),
            latency_ns: (t_done - flight.t_submit).as_nanos() as u64,
        });
        Ok(Done {
            op: flight.op,
            t_submit: flight.t_submit,
            t_sent: flight.t_sent,
            t_done,
            hops: reply.hops,
        })
    }

    /// Runs the closed loop until `until`, leaving up to `width` ops in
    /// flight (a following call carries on; [`drain`](Self::drain) ends).
    pub fn drive(&mut self, port: &mut impl Port<S>, until: Instant) -> Result<(), RuntimeError> {
        loop {
            while self.inflight.len() < self.width {
                if Instant::now() >= until {
                    return Ok(());
                }
                let op = self.held.take().unwrap_or_else(|| self.next_op());
                if !self.ready(&op) {
                    self.held = Some(op);
                    break;
                }
                self.submit(op, port)?;
            }
            self.complete(port)?;
        }
    }

    /// One op, start to finish — the serial replay of the traced run.
    pub fn step(&mut self, port: &mut impl Port<S>) -> Result<Done<S>, RuntimeError> {
        let op = self.held.take().unwrap_or_else(|| self.next_op());
        self.submit(op, port)?;
        self.complete(port)
    }

    pub fn drain(&mut self, port: &mut impl Port<S>) -> Result<(), RuntimeError> {
        while !self.inflight.is_empty() {
            self.complete(port)?;
        }
        Ok(())
    }

    /// The set the fabric must hold once drained: the stored items and
    /// every churn item no remove was issued for, sorted.
    pub fn model_ground(&self) -> Vec<Item<S>> {
        let mut all = self.shape.items();
        all.extend(
            self.churn
                .iter()
                .filter(|c| c.rem_submit.is_none())
                .map(|c| c.item.clone()),
        );
        all.sort();
        all
    }
}

/// A built web and the fabric serving it, with the two set-up times.
pub struct Deployment<D: Routable + Send + Sync + 'static> {
    pub web: SkipWeb<D>,
    pub fabric: DistributedSkipWeb<D>,
    pub client: EngineClient<D>,
    pub build_s: f64,
    pub spawn_s: f64,
}

/// Builds the web over `items` and spawns it on `hosts` actor threads:
/// everything between "here are the items" and "the first op can be sent".
pub fn deploy<D: Routable + Send + Sync + 'static>(
    items: Vec<D::Item>,
    seed: u64,
    hosts: usize,
) -> Deployment<D> {
    let t0 = Instant::now();
    let web = SkipWeb::<D>::builder(items).seed(seed).build();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let fabric = DistributedSkipWeb::builder(&web)
        .consolidated(hosts)
        .spawn();
    let client = fabric.client();
    let spawn_s = t1.elapsed().as_secs_f64();
    Deployment {
        web,
        fabric,
        client,
        build_s,
        spawn_s,
    }
}
