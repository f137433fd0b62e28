//! The chaos proxy's memory footprint over many connections.
//!
//! Each proxied connection runs on pump threads. A pump that has ended
//! must give its thread and stack back then, not when the proxy shuts
//! down: otherwise every connection leaves its pumps' stacks and guard
//! pages mapped, and a long soak grows the process until thread spawns
//! fail. This test relays connections one after another through a clean
//! proxy and bounds the growth of `/proc/self/maps`, which lists every
//! mapping of the process, so it lives in a test binary of its own:
//! another test's threads would be counted too.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;

use osss_jpeg2000::{ChaosConfig, ChaosProxy};

/// Connections relayed before the first count, so that allocator arenas
/// and cached thread stacks are already in place.
const WARM_UP: usize = 20;
/// Connections relayed between the two counts.
const CONNECTIONS: usize = 200;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// Sends one message through the proxy, half-closes and reads the echo.
fn relay_one(proxy: &ChaosProxy, i: usize) {
    let mut stream = TcpStream::connect(proxy.local_addr()).expect("connect to proxy");
    let message = format!("connection {i}");
    stream.write_all(message.as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut echo = String::new();
    stream.read_to_string(&mut echo).expect("read echo");
    assert_eq!(echo, message, "connection {i}");
}

#[test]
fn ended_pumps_do_not_keep_their_stacks_mapped() {
    // One connection at a time on one thread, so the echo server maps
    // nothing new as connections come and go.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = thread::spawn(move || {
        for stream in listener.incoming().take(WARM_UP + CONNECTIONS) {
            let mut stream = stream.expect("accept");
            let mut buf = Vec::new();
            stream.read_to_end(&mut buf).expect("read request");
            stream.write_all(&buf).expect("echo");
        }
    });
    let proxy = ChaosProxy::start(addr, ChaosConfig::clean(11)).expect("start proxy");
    for i in 0..WARM_UP {
        relay_one(&proxy, i);
    }
    let before = mappings();
    for i in WARM_UP..WARM_UP + CONNECTIONS {
        relay_one(&proxy, i);
    }
    let grown = mappings().saturating_sub(before);
    let stats = proxy.shutdown();
    server.join().expect("echo server");
    assert_eq!(stats.connections, (WARM_UP + CONNECTIONS) as u64);
    // Keeping every ended pump's stack would add about four mappings
    // per connection (two pumps, each a stack and a guard page).
    assert!(
        grown < CONNECTIONS / 4,
        "{grown} new mappings over {CONNECTIONS} relayed connections"
    );
}
