//! Stress tests for the threaded actor runtime: many hosts, message storms,
//! and interleaved clients — the substrate must stay correct and lossless
//! under load.

use std::time::Duration;

use skipweb_net::runtime::{Actor, ClientId, Context, Runtime, Sender};
use skipweb_net::HostId;

/// Forwards a token around the ring `left` times, then reports the number
/// of hops it personally handled.
struct RingHop {
    hosts: u32,
    handled: u64,
}

#[derive(Debug)]
struct Token {
    left: u32,
    client: ClientId,
}

impl Actor for RingHop {
    type Msg = Token;
    type Reply = u64;

    fn on_message(&mut self, _from: Sender, msg: Token, ctx: &mut Context<'_, Token, u64>) {
        self.handled += 1;
        if msg.left == 0 {
            ctx.reply(msg.client, self.handled);
        } else {
            let next = HostId((ctx.host().0 + 1) % self.hosts);
            ctx.send(
                next,
                Token {
                    left: msg.left - 1,
                    client: msg.client,
                },
            );
        }
    }
}

#[test]
fn two_hundred_hosts_pass_tokens_losslessly() {
    let hosts = 200u32;
    let rt = Runtime::spawn(hosts as usize, |_| RingHop { hosts, handled: 0 });
    let client = rt.client();
    let laps = 3u32;
    client
        .send(
            HostId(0),
            Token {
                left: hosts * laps,
                client: client.id(),
            },
        )
        .expect("send");
    let _ = client
        .recv_timeout(Duration::from_secs(30))
        .expect("ring completes");
    // hosts * laps forwards + 0 for the final reply (client replies are not
    // network messages).
    assert_eq!(rt.host_traffic().total_sent(), (hosts * laps) as u64);
    rt.shutdown();
}

#[test]
fn concurrent_token_storms_do_not_interfere() {
    let hosts = 64u32;
    let rt = Runtime::spawn(hosts as usize, |_| RingHop { hosts, handled: 0 });
    let clients: Vec<_> = (0..16).map(|_| rt.client()).collect();
    for (i, c) in clients.iter().enumerate() {
        c.send(
            HostId((i as u32 * 7) % hosts),
            Token {
                left: 100 + i as u32,
                client: c.id(),
            },
        )
        .expect("send");
    }
    for c in &clients {
        c.recv_timeout(Duration::from_secs(30))
            .expect("each storm completes");
    }
    // 16 tokens, each forwarded (100 + i) times.
    let expected: u64 = (0..16u64).map(|i| 100 + i).sum();
    assert_eq!(rt.host_traffic().total_sent(), expected);
    rt.shutdown();
}

/// An actor that counts everything it ever receives; used to verify queued
/// messages are drained before shutdown.
struct Counter {
    seen: u64,
}

#[derive(Debug)]
struct Ping(ClientId, bool);

impl Actor for Counter {
    type Msg = Ping;
    type Reply = u64;

    fn on_message(
        &mut self,
        _from: Sender,
        Ping(c, want_reply): Ping,
        ctx: &mut Context<'_, Ping, u64>,
    ) {
        self.seen += 1;
        if want_reply {
            ctx.reply(c, self.seen);
        }
    }
}

#[test]
fn queued_messages_are_processed_in_order_before_stop() {
    let rt = Runtime::spawn(1, |_| Counter { seen: 0 });
    let client = rt.client();
    for _ in 0..999 {
        client
            .send(HostId(0), Ping(client.id(), false))
            .expect("send");
    }
    client
        .send(HostId(0), Ping(client.id(), true))
        .expect("send");
    let seen = client.recv_timeout(Duration::from_secs(10)).expect("reply");
    assert_eq!(seen, 1000, "every queued message must be handled, in order");
    rt.shutdown();
}
