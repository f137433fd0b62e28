//! The server's busy path under a connection flood.
//!
//! The server answers a connection past `handler_threads` with a busy
//! frame and drains that connection's unread bytes before it closes,
//! so the frame is not lost to a TCP reset. The drains run on threads
//! named `decode-net-reject`, at most 16 at once, each joined when the
//! server shuts down. This test counts them by name in
//! `/proc/self/task`, which lists every thread of the process, so it
//! lives in a test binary of its own: another server's drains would be
//! counted too.

#![cfg(target_os = "linux")]

use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use osss_jpeg2000::jpeg2000::codec::{encode, EncodeParams, Mode};
use osss_jpeg2000::jpeg2000::image::Image;
use osss_jpeg2000::jpeg2000::net::{
    decode_response, encode_request, read_frame, write_frame, MAX_FRAME_BYTES,
};
use osss_jpeg2000::{
    DecodeServer, DecodeService, NetError, Request, ServerConfig, ServiceConfig, WireError,
};

/// The server's bound on concurrent drains (crate-private there).
const MAX_DRAINS: usize = 16;

/// Threads of this process whose name starts `decode-net-reject`
/// (`comm` keeps the first 15 bytes).
fn drain_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "decode-net-reje")
        .count()
}

#[test]
fn a_connection_flood_never_holds_more_than_the_drain_bound() {
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let server = DecodeServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            handler_threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let img = Image::synthetic_rgb(24, 16, 31);
    let request = encode_request(
        &Request::strict(),
        &encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap(),
    );

    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let (mut ok, mut busy, mut closed) = (0, 0, 0);
    // The connections stay open until the server has shut down, so the
    // drains end by the shutdown flag, not by the clients hanging up.
    let _conns = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(drain_threads(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // One thread opens every connection and sends a request on
        // each, keeping them all open: the first holds the only
        // handler, the other 63 are turned away.
        let mut conns: Vec<TcpStream> = (0..64)
            .map(|_| {
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                // A turned-away connection may already be closed.
                let _ = write_frame(&mut conn, &request);
                peak.fetch_max(drain_threads(), Ordering::SeqCst);
                conn
            })
            .collect();
        for (i, conn) in conns.iter_mut().enumerate() {
            match read_frame(conn, MAX_FRAME_BYTES) {
                Ok(Some(payload)) => match decode_response(&payload) {
                    Ok(resp) => {
                        assert_eq!(resp.image, img, "connection {i}");
                        ok += 1;
                    }
                    Err(NetError::Busy) => busy += 1,
                    Err(e) => panic!("connection {i}: {e:?}"),
                },
                Ok(None) => closed += 1,
                Err(WireError::Io(e)) if e.kind() == ErrorKind::ConnectionReset => closed += 1,
                // A read timeout lands here: a hang.
                Err(e) => panic!("connection {i}: {e:?}"),
            }
        }
        stop.store(true, Ordering::SeqCst);
        conns
    });
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= MAX_DRAINS, "{peak} drain threads at once");
    assert!(peak > 0, "the flood was drained");
    assert_eq!(ok + busy + closed, 64);
    assert_eq!(ok, 1, "the first connection holds the handler");

    let stopping = Instant::now();
    let stats = server.shutdown();
    assert!(
        stopping.elapsed() < Duration::from_secs(1),
        "the drains watch the shutdown flag, not only their 2-s deadline"
    );
    // A thread leaves /proc a moment after the scope has seen its
    // closure return; 200 ms is far below the 2-s drain deadline that
    // a drain blind to the shutdown would wait out.
    let joined = Instant::now();
    while drain_threads() > 0 && joined.elapsed() < Duration::from_millis(200) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(drain_threads(), 0, "shutdown ends and joins every drain");
    assert_eq!(stats.conn_rejected, 63, "{stats:?}");
    let svc = Arc::try_unwrap(service)
        .ok()
        .expect("the stopped server released the service")
        .shutdown();
    assert!(stats.reconciles_with(&svc), "{stats:?} vs {svc:?}");
    assert!(svc.reconciles(), "{svc:?}");
}
