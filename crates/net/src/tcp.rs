//! A loopback-TCP transport: hosts run in separate OS processes and
//! exchange length-prefixed [`wire`](crate::wire) frames over sockets.
//!
//! Each process runs one [`TcpTransport`] bound to one endpoint from a
//! shared [`TcpConfig`]; the config's `owners` table maps every host id to
//! the endpoint that runs it, so a process can tell local deliveries
//! (handed straight to the mailbox, like
//! [`ChannelTransport`](crate::transport::ChannelTransport)) from remote
//! ones (serialized with the [`TcpCodec`] closures, framed, and written to
//! the owner's socket).
//! Replies always travel to the *driver* endpoint — the process whose
//! runtime owns the external clients.
//!
//! Connections are opened lazily with a retry loop (peer processes may
//! still be starting) and accepted by a background acceptor thread that
//! spawns one reader per connection. An unexpected peer EOF flags the
//! runtime's
//! [`RuntimeError::TransportClosed`](crate::runtime::RuntimeError::TransportClosed)
//! path; an EOF after a
//! [`broadcast_shutdown`](TcpTransport::broadcast_shutdown) BYE frame is a
//! clean teardown.
//!
//! # Frame layout
//!
//! Every frame payload starts with a kind byte:
//!
//! | kind | layout after the kind byte |
//! |------|----------------------------|
//! | `0` message | `from_tag u8` (0 host / 1 client), `from_id u64`, `to u32`, `class u8`, codec-encoded message bytes |
//! | `1` reply | `client u64`, codec-encoded reply bytes |
//! | `2` BYE | nothing — the driver is tearing the deployment down |

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::metrics::{TransportCounters, TransportStats};
use crate::runtime::{ClientId, Delivery, Inbound, ReplyDelivery, Sender, TrafficClass};
use crate::transport::{CarryStatus, Transport};
use crate::wire::{read_frame, write_frame, WireReader};
use crate::HostId;

/// Deployment map shared (identically) by every process of a TCP fabric.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Socket address of every process, indexed by endpoint id.
    pub endpoints: Vec<SocketAddr>,
    /// This process's index into `endpoints`.
    pub me: usize,
    /// Host-id → endpoint-id ownership table (`owners[h]` runs host `h`).
    pub owners: Vec<usize>,
    /// The endpoint whose runtime owns the external clients; all replies
    /// are routed there.
    pub reply_endpoint: usize,
}

impl TcpConfig {
    /// The host ids this process runs, in ascending order.
    pub fn local_hosts(&self) -> Vec<usize> {
        (0..self.owners.len())
            .filter(|&h| self.owners[h] == self.me)
            .collect()
    }
}

/// A boxed thread-safe serializer from `T` to wire bytes.
pub type Encoder<T> = Box<dyn Fn(&T) -> Vec<u8> + Send + Sync>;
/// A boxed thread-safe deserializer from wire bytes to `T` (`None` on
/// malformed input).
pub type Decoder<T> = Box<dyn Fn(&[u8]) -> Option<T> + Send + Sync>;

/// Byte-level serializers for the fabric's message and reply types.
///
/// Decoders return `None` on malformed input; the transport drops such
/// frames (and counts them as lost) rather than crashing the process.
pub struct TcpCodec<M, R> {
    /// Serializes a host-to-host message.
    pub encode_msg: Encoder<M>,
    /// Deserializes a host-to-host message.
    pub decode_msg: Decoder<M>,
    /// Serializes a host-to-client reply.
    pub encode_reply: Encoder<R>,
    /// Deserializes a host-to-client reply.
    pub decode_reply: Decoder<R>,
}

struct Inner<M, R> {
    cfg: TcpConfig,
    codec: TcpCodec<M, R>,
    listener: TcpListener,
    /// Lazily-opened outbound connections, one slot per endpoint.
    peers: Vec<Mutex<Option<TcpStream>>>,
    /// Streams the acceptor has handed to reader threads, kept so shutdown
    /// can sever them.
    accepted: Mutex<Vec<TcpStream>>,
    inbound: OnceLock<Inbound<M, R>>,
    counters: TransportCounters,
    closing: AtomicBool,
    bye: Mutex<bool>,
    bye_cv: Condvar,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

/// A multi-process transport over loopback (or any) TCP. See the
/// [module docs](self) for the frame layout and lifecycle.
pub struct TcpTransport<M, R> {
    inner: Arc<Inner<M, R>>,
}

impl<M, R> Clone for TcpTransport<M, R> {
    fn clone(&self) -> Self {
        TcpTransport {
            inner: Arc::clone(&self.inner),
        }
    }
}

const FRAME_MSG: u8 = 0;
const FRAME_REPLY: u8 = 1;
const FRAME_BYE: u8 = 2;

impl<M: Send + 'static, R: Send + 'static> TcpTransport<M, R> {
    /// Binds this process's endpoint and prepares (but does not yet open)
    /// the outbound peer slots.
    ///
    /// # Errors
    ///
    /// Fails if the local endpoint cannot be bound.
    pub fn new(cfg: TcpConfig, codec: TcpCodec<M, R>) -> io::Result<Self> {
        assert!(cfg.me < cfg.endpoints.len(), "me out of range");
        assert!(
            cfg.reply_endpoint < cfg.endpoints.len(),
            "reply_endpoint out of range"
        );
        assert!(
            cfg.owners.iter().all(|&o| o < cfg.endpoints.len()),
            "owners entry out of range"
        );
        let listener = TcpListener::bind(cfg.endpoints[cfg.me])?;
        let peers = (0..cfg.endpoints.len()).map(|_| Mutex::new(None)).collect();
        Ok(TcpTransport {
            inner: Arc::new(Inner {
                cfg,
                codec,
                listener,
                peers,
                accepted: Mutex::new(Vec::new()),
                inbound: OnceLock::new(),
                counters: TransportCounters::default(),
                closing: AtomicBool::new(false),
                bye: Mutex::new(false),
                bye_cv: Condvar::new(),
                acceptor: Mutex::new(None),
            }),
        })
    }

    /// The address this process actually bound (useful with port-0 configs).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.listener.local_addr()
    }

    /// The deployment map this transport was built with.
    pub fn cfg(&self) -> &TcpConfig {
        &self.inner.cfg
    }

    /// Sends a BYE frame to every other endpoint. The driver calls this
    /// before shutting its runtime down so workers'
    /// [`wait_closed`](Self::wait_closed) unblocks and they exit cleanly.
    pub fn broadcast_shutdown(&self) {
        for ep in 0..self.inner.cfg.endpoints.len() {
            if ep != self.inner.cfg.me {
                let _ = Inner::send_to(&self.inner, ep, &[FRAME_BYE]);
            }
        }
    }

    /// Blocks until a BYE frame arrives (or local shutdown), up to
    /// `timeout`. Returns `true` when the deployment was torn down on
    /// purpose, `false` on timeout.
    pub fn wait_closed(&self, timeout: Duration) -> bool {
        // No deadline when it is past what an `Instant` can hold (say,
        // `Duration::MAX`): the wait goes on until the BYE.
        let deadline = Instant::now().checked_add(timeout);
        let mut bye = self
            .inner
            .bye
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cv = &self.inner.bye_cv;
        while !*bye {
            let now = Instant::now();
            bye = match deadline {
                Some(d) if now >= d => return false,
                Some(d) => {
                    let waited = cv.wait_timeout(bye, d - now);
                    waited.unwrap_or_else(std::sync::PoisonError::into_inner).0
                }
                None => cv
                    .wait(bye)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            };
        }
        true
    }
}

impl<M: Send + 'static, R: Send + 'static> Inner<M, R> {
    /// Writes one frame to endpoint `ep`, opening the connection on first
    /// use. The per-peer lock keeps frames atomic on the stream.
    fn send_to(inner: &Arc<Self>, ep: usize, payload: &[u8]) -> io::Result<()> {
        let mut slot = inner.peers[ep]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(Self::connect(inner, ep)?);
        }
        let stream = slot.as_mut().expect("just connected");
        match write_frame(stream, payload) {
            Ok(()) => {
                inner.counters.bytes_sent.add(payload.len() as u64 + 4);
                Ok(())
            }
            Err(e) => {
                // Drop the broken connection; a later send may retry.
                *slot = None;
                if !inner.closing.load(Ordering::Acquire) {
                    if let Some(inbound) = inner.inbound.get() {
                        inbound.note_transport_closed();
                    }
                }
                Err(e)
            }
        }
    }

    /// Connects to endpoint `ep`, retrying for ~10s while the peer process
    /// starts up.
    fn connect(inner: &Arc<Self>, ep: usize) -> io::Result<TcpStream> {
        let addr = inner.cfg.endpoints[ep];
        let mut last_err = None;
        for _ in 0..400 {
            if inner.closing.load(Ordering::Acquire) {
                return Err(io::ErrorKind::NotConnected.into());
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
            thread::sleep(Duration::from_millis(25));
        }
        Err(last_err.unwrap_or_else(|| io::ErrorKind::ConnectionRefused.into()))
    }

    /// Accept loop: one reader thread per inbound connection.
    fn run_acceptor(inner: Arc<Self>) {
        while let Ok((stream, _)) = inner.listener.accept() {
            if inner.closing.load(Ordering::Acquire) {
                return;
            }
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                inner
                    .accepted
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(clone);
            }
            let inner = Arc::clone(&inner);
            let _ = thread::Builder::new()
                .name("tcp-reader".into())
                .spawn(move || Self::run_reader(&inner, stream));
        }
    }

    fn run_reader(inner: &Arc<Self>, mut stream: TcpStream) {
        loop {
            match read_frame(&mut stream) {
                Ok(Some(payload)) => {
                    inner.counters.bytes_received.add(payload.len() as u64 + 4);
                    if !Self::dispatch(inner, &payload) {
                        inner.counters.lost.add(1);
                    }
                }
                Ok(None) | Err(_) => {
                    // EOF or stream error. Expected during a BYE teardown or
                    // local shutdown; otherwise the wire is gone.
                    let expected = inner.closing.load(Ordering::Acquire)
                        || *inner
                            .bye
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if !expected {
                        if let Some(inbound) = inner.inbound.get() {
                            inbound.note_transport_closed();
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Decodes and injects one frame; `false` means the frame was dropped
    /// (malformed, or the runtime was not attached yet).
    fn dispatch(inner: &Arc<Self>, payload: &[u8]) -> bool {
        let mut r = WireReader::new(payload);
        let Some(kind) = r.read_u8() else {
            return false;
        };
        match kind {
            FRAME_MSG => {
                let Some(inbound) = inner.inbound.get() else {
                    return false;
                };
                let (Some(from_tag), Some(from_id), Some(to), Some(class)) =
                    (r.read_u8(), r.read_u64(), r.read_u32(), r.read_u8())
                else {
                    return false;
                };
                let from = match from_tag {
                    0 => Sender::Host(HostId(from_id as u32)),
                    1 => Sender::Client(ClientId(from_id)),
                    _ => return false,
                };
                let class = match class {
                    0 => TrafficClass::Query,
                    1 => TrafficClass::Update,
                    _ => return false,
                };
                let Some(msg) = (inner.codec.decode_msg)(r.rest()) else {
                    return false;
                };
                inner.counters.delivered.add(1);
                inbound.deliver_msg(from, HostId(to), class, msg);
                true
            }
            FRAME_REPLY => {
                let Some(inbound) = inner.inbound.get() else {
                    return false;
                };
                let Some(client) = r.read_u64() else {
                    return false;
                };
                let Some(reply) = (inner.codec.decode_reply)(r.rest()) else {
                    return false;
                };
                inner.counters.delivered.add(1);
                inbound.deliver_reply(ClientId(client), reply);
                true
            }
            FRAME_BYE => {
                *inner
                    .bye
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                inner.bye_cv.notify_all();
                true
            }
            _ => false,
        }
    }
}

impl<M: Send + 'static, R: Send + 'static> Transport<M, R> for TcpTransport<M, R> {
    fn carry(&self, msg: M, delivery: Delivery<M, R>) -> CarryStatus {
        let inner = &self.inner;
        inner.counters.carried.add(1);
        let to = delivery.to();
        let owner = match inner.cfg.owners.get(to.index()) {
            Some(&o) => o,
            None => return CarryStatus::Closed,
        };
        if owner == inner.cfg.me {
            return delivery.deliver(msg);
        }
        let mut payload = Vec::with_capacity(64);
        payload.push(FRAME_MSG);
        match delivery.from() {
            Sender::Host(h) => {
                payload.push(0);
                payload.extend_from_slice(&(h.0 as u64).to_le_bytes());
            }
            Sender::Client(c) => {
                payload.push(1);
                payload.extend_from_slice(&c.0.to_le_bytes());
            }
        }
        payload.extend_from_slice(&to.0.to_le_bytes());
        payload.push(match delivery.class() {
            TrafficClass::Query => 0,
            TrafficClass::Update => 1,
        });
        payload.extend_from_slice(&(inner.codec.encode_msg)(&msg));
        match Inner::send_to(inner, owner, &payload) {
            Ok(()) => CarryStatus::InFlight,
            Err(_) => CarryStatus::Closed,
        }
    }

    fn carry_reply(&self, reply: R, delivery: ReplyDelivery<M, R>) {
        let inner = &self.inner;
        inner.counters.carried.add(1);
        if inner.cfg.reply_endpoint == inner.cfg.me {
            delivery.deliver(reply);
            return;
        }
        let mut payload = Vec::with_capacity(32);
        payload.push(FRAME_REPLY);
        payload.extend_from_slice(&delivery.client().0.to_le_bytes());
        payload.extend_from_slice(&(inner.codec.encode_reply)(&reply));
        let _ = Inner::send_to(inner, inner.cfg.reply_endpoint, &payload);
    }

    fn attach(&self, inbound: Inbound<M, R>) {
        if self.inner.inbound.set(inbound).is_err() {
            return; // Already attached; keep the first runtime's handle.
        }
        let inner = Arc::clone(&self.inner);
        let handle = thread::Builder::new()
            .name("tcp-acceptor".into())
            .spawn(move || Inner::run_acceptor(inner))
            .expect("spawn tcp acceptor thread");
        *self
            .inner
            .acceptor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(handle);
    }

    fn stats(&self) -> TransportStats {
        self.inner.counters.snapshot()
    }

    fn shutdown(&self) {
        let inner = &self.inner;
        if inner.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock wait_closed() callers on this process.
        *inner
            .bye
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        inner.bye_cv.notify_all();
        // Unblock the acceptor with a throwaway connection to ourselves.
        if let Ok(addr) = inner.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
        for slot in &inner.peers {
            if let Some(stream) = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for stream in inner
            .accepted
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = inner
            .acceptor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Actor, Context, Runtime, RuntimeError};

    fn u64_codec() -> TcpCodec<u64, u64> {
        TcpCodec {
            encode_msg: Box::new(|m| m.to_le_bytes().to_vec()),
            decode_msg: Box::new(|b| Some(u64::from_le_bytes(b.try_into().ok()?))),
            encode_reply: Box::new(|r| r.to_le_bytes().to_vec()),
            decode_reply: Box::new(|b| Some(u64::from_le_bytes(b.try_into().ok()?))),
        }
    }

    fn loopback_pair() -> (TcpConfig, TcpConfig) {
        // Bind throwaway listeners to reserve two distinct ports.
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let b = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoints = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
        drop((a, b));
        let base = TcpConfig {
            endpoints,
            me: 0,
            owners: vec![0, 1],
            reply_endpoint: 0,
        };
        let mut other = base.clone();
        other.me = 1;
        (base, other)
    }

    /// Host 0 (driver process) forwards to host 1 (worker process), which
    /// replies with the doubled value.
    struct Doubler;
    impl Actor for Doubler {
        type Msg = u64;
        type Reply = u64;
        fn on_message(&mut self, from: Sender, msg: u64, ctx: &mut Context<'_, u64, u64>) {
            if ctx.host() == HostId(0) {
                ctx.send(HostId(1), msg);
            } else if let Sender::Host(_) = from {
                // Toy fixture: reply to the driver's first client.
                ctx.reply(ClientId(0), msg * 2);
            }
        }
    }

    #[test]
    fn two_process_shaped_fabrics_exchange_frames_over_loopback() {
        // Two transports in one test process, but two *separate runtimes*
        // with disjoint local host ranges — the same topology a real
        // two-process deployment runs.
        let (cfg_a, cfg_b) = loopback_pair();
        let ta = Arc::new(TcpTransport::new(cfg_a, u64_codec()).unwrap());
        let tb = Arc::new(TcpTransport::new(cfg_b, u64_codec()).unwrap());
        let driver = Runtime::spawn_partitioned(2, 0..1, ta.clone(), |_| Doubler);
        let worker = Runtime::spawn_partitioned(2, 1..2, tb.clone(), |_| Doubler);

        let client = driver.client();
        assert_eq!(client.id(), ClientId(0));
        for v in [3u64, 9, 40] {
            client.send(HostId(0), v).unwrap();
            assert_eq!(client.recv_timeout(Duration::from_secs(10)).unwrap(), v * 2);
        }
        let sent = driver.host_traffic().transport;
        let got = worker.host_traffic().transport;
        assert!(sent.bytes_sent > 0, "driver wrote frames: {sent}");
        assert!(got.bytes_received > 0, "worker read frames: {got}");

        ta.broadcast_shutdown();
        assert!(tb.wait_closed(Duration::from_secs(5)));
        // `Duration::MAX` is no deadline, not an overflow.
        assert!(tb.wait_closed(Duration::MAX));
        driver.shutdown();
        worker.shutdown();
    }

    #[test]
    fn unexpected_peer_death_surfaces_transport_closed() {
        let (cfg_a, cfg_b) = loopback_pair();
        let ta = Arc::new(TcpTransport::new(cfg_a, u64_codec()).unwrap());
        let tb = Arc::new(TcpTransport::new(cfg_b, u64_codec()).unwrap());
        let driver = Runtime::spawn_partitioned(2, 0..1, ta.clone(), |_| Doubler);
        let worker = Runtime::spawn_partitioned(2, 1..2, tb.clone(), |_| Doubler);
        let client = driver.client();

        // Prove the wire works, then kill the worker *without* a BYE.
        client.send(HostId(0), 5).unwrap();
        assert_eq!(client.recv_timeout(Duration::from_secs(10)).unwrap(), 10);
        worker.shutdown();

        // The next frame to the dead peer (or its EOF) flags the driver.
        let err = loop {
            let _ = client.send(HostId(0), 6);
            match client.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => continue,
                Err(RuntimeError::Timeout) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err, RuntimeError::TransportClosed);
        driver.shutdown();
    }
}
