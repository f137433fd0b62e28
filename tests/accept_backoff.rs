//! The acceptors under descriptor exhaustion.
//!
//! With every file descriptor of the process taken and a connection
//! queued, `accept` fails with `EMFILE` at once, and again on every
//! retry until a descriptor frees. An acceptor that retried at once spun
//! a core; the server's and the chaos proxy's acceptors now wait a poll
//! interval after a failed accept. This test takes every descriptor,
//! queues one connection on each acceptor and reads each acceptor
//! thread's CPU time through `/proc`. Taking every descriptor affects
//! every thread of the process, so it lives in a test binary of its
//! own.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use osss_jpeg2000::jpeg2000::codec::{encode, EncodeParams, Mode};
use osss_jpeg2000::jpeg2000::image::Image;
use osss_jpeg2000::{
    ChaosConfig, ChaosProxy, Client, DecodeServer, DecodeService, Request, ServerConfig,
    ServiceConfig,
};

/// Above this soft descriptor limit, taking every descriptor costs too
/// much, and the test does not run.
const MAX_SOFT_LIMIT: u64 = 65_536;

/// The soft `Max open files` limit of this process.
fn soft_fd_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .expect("procfs")
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(u64::MAX)
}

/// Opens the `stat` file of the thread whose name starts with `comm`
/// (`comm` keeps the first 15 bytes), once the thread has named itself.
fn thread_stat(comm: &str) -> File {
    for _ in 0..500 {
        for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
            let path = task.expect("a task entry").path();
            if std::fs::read_to_string(path.join("comm")).is_ok_and(|c| c.trim_end() == comm) {
                return File::open(path.join("stat")).expect("the thread's stat");
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no thread named {comm}");
}

/// The clock ticks a thread has run, user and system, read again
/// through its open `stat` file.
fn ticks(stat: &mut File) -> u64 {
    let mut line = String::new();
    stat.seek(SeekFrom::Start(0)).expect("rewind");
    stat.read_to_string(&mut line).expect("read stat");
    // Past the parenthesised name, field 3 (the state) comes first, so
    // utime and stime, fields 14 and 15, are the 12th and 13th.
    let fields: Vec<u64> = line[line.rfind(')').expect("a name") + 1..]
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().expect("a tick count"))
        .collect();
    fields.iter().sum()
}

/// Takes every descriptor of the process, then gives them back one at
/// a time for connections to `addr` until one stays queued. The first
/// is accepted at once: Linux sets a descriptor aside when `accept`
/// begins to wait. Every later accept fails with `EMFILE`. Returns the
/// queued connection, once the descriptors are back, and the clock
/// ticks the acceptor's thread ran in the second before; `accepted`
/// counts the connections the acceptor took.
fn queue_out_of_descriptors(
    addr: SocketAddr,
    acceptor: &mut File,
    accepted: &dyn Fn() -> u64,
) -> (Client, u64) {
    let mut hoard = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
    }
    let mut taken = Vec::new();
    let queued = (0..20).find_map(|_| {
        let before = accepted();
        hoard.pop();
        let client = Client::connect(addr);
        std::thread::sleep(Duration::from_millis(50));
        match client {
            Ok(client) if accepted() == before => Some(client),
            other => {
                taken.push(other);
                None
            }
        }
    });
    let before = ticks(acceptor);
    std::thread::sleep(Duration::from_secs(1));
    let ran = ticks(acceptor) - before;
    drop(hoard);
    let queued = queued.expect("a connection stays queued once descriptors run out");
    (queued, ran)
}

#[test]
fn acceptors_wait_after_a_failed_accept() {
    if soft_fd_limit() > MAX_SOFT_LIMIT {
        return;
    }
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let server = DecodeServer::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    // With this seed the proxy blackholes its first connection, which
    // so holds its descriptor, and relays the second.
    let chaos = ChaosConfig {
        blackhole_rate: 0.5,
        ..ChaosConfig::clean(8)
    };
    let proxy = ChaosProxy::start(server.local_addr(), chaos).expect("bind proxy");
    let img = Image::synthetic_rgb(16, 16, 7);
    let stream = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
    // `/proc` cannot be opened once every descriptor is taken.
    let mut server_acceptor = thread_stat("decode-net-acce");
    let mut proxy_acceptor = thread_stat("chaos-accept");
    let rounds: [(&str, SocketAddr, &mut File, &dyn Fn() -> u64); 2] = [
        ("server", server.local_addr(), &mut server_acceptor, &|| {
            let stats = server.stats();
            stats.accepted + stats.conn_rejected
        }),
        ("proxy", proxy.local_addr(), &mut proxy_acceptor, &|| {
            proxy.stats().connections
        }),
    ];
    for (what, addr, acceptor, accepted) in rounds {
        let (client, ran) = queue_out_of_descriptors(addr, acceptor, accepted);
        assert!(
            ran < 10,
            "the {what}'s acceptor ran {ran} clock ticks in one second out of descriptors"
        );
        // With the descriptors back, the queued connection is served.
        let mut client = client.op_deadline(Duration::from_secs(10));
        let resp = client
            .request(&Request::strict(), &stream)
            .unwrap_or_else(|e| panic!("through the {what}: {e}"));
        assert_eq!(resp.image, img);
        // The round's connections and handlers end before the next
        // round, so no descriptor frees while it runs.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            server.active_connections(),
            0,
            "the {what}'s handlers ended"
        );
    }
    let stats = proxy.shutdown();
    assert_eq!((stats.connections, stats.blackholed), (2, 1), "{stats:?}");
    server.shutdown();
}
