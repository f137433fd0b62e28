//! The wire world: the client's protocol rules ([`ClientRules`]) and the
//! server's (the admit rule and the handler's phases on [`Meters`])
//! driven against each other by [`crate::explore`], over a frame-level
//! network, with no sockets and no threads.
//!
//! Each client runs a script of calls, one socket at a time. A
//! connection is a FIFO of frame pieces and a FIN flag each way, and a
//! request may arrive head first, so the frame deadline can fall inside
//! it. The acceptor admits at most one handler. The service's outcome,
//! OK or busy, is the explorer's choice, and so are the events: each
//! client's operation deadline, the frame deadline (either way), the
//! idle reaper and the shutdown, each with a budget of firings. The
//! circuit breaker stays out: its own unit test covers it.
//!
//! After every step the world checks that a client accepts a reply
//! only to the request it is awaiting, that no request ends in a wire
//! error on a connection whose close the server announced with a frame,
//! that the server rejects no frame (every client sends whole ones), and
//! that the handler and drain gauges match the handlers and drains
//! within their bounds. At the drain it checks that every script is
//! done, every connection is closed both ways and the server's books
//! reconcile.

use super::{encode_busy, refused, Admit, Meters, Phase, Slot, MAX_DRAINS};
use crate::explore::{explore, World};
use crate::image::Image;
use crate::net::{decode_response, encode_request, ClientRules, NetError, NetResponse, WireError};
use crate::service::{Request, ServedFrom, ServiceError, ServiceResponse};
use osss_sim::probe::{Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::sync::Arc;
use std::time::Duration;

/// The handler cap the world runs with.
const CAP: usize = 1;

/// The request a frame carries or answers: (client, sequence number).
type Tag = (usize, u32);

/// A whole frame as read: its tag and its payload.
type Frame = (Option<Tag>, Vec<u8>);

/// One call of a client's script.
#[derive(Clone, Copy, Debug)]
enum Call {
    /// `Client::request`, its frame sent whole.
    Request,
    /// `Client::request`, its body sent after its head.
    Slow,
    /// `Client::decode_retry` with this many busy retries.
    Retry(u32),
}

/// A client that keeps its socket after one kind of error, as an
/// earlier version of the reuse rule did.
#[derive(Clone, Copy, Debug)]
enum Keep {
    /// After `Timeout`, as before the late-reply fix.
    Timeout,
    /// After `Busy`, as before the busy-then-FIN fix.
    Busy,
    /// After `Protocol`, as the rule that listed three errors did.
    Protocol,
}

/// What the explorer enumerates.
#[derive(Clone)]
struct Bound {
    clients: Vec<Vec<Call>>,
    /// Steps whose every ordering is explored.
    depth: usize,
    /// Operation deadlines that may fire, per client.
    timeouts: u32,
    /// Frame-deadline evictions, either way.
    evictions: u32,
    /// Idle reaps.
    reaps: u32,
    keep: Option<Keep>,
    /// The handler aborts the read of a begun frame at shutdown, as it
    /// did before a begun request was read and answered like any in
    /// flight.
    abort_begun: bool,
}

/// Two clients against the one handler: client 0 sends a slow request
/// and then a plain one, client 1 retries busy answers once. One
/// operation deadline per client, one eviction and one reap may fire.
fn bound(depth: usize) -> Bound {
    Bound {
        clients: vec![vec![Call::Slow, Call::Request], vec![Call::Retry(1)]],
        depth,
        timeouts: 1,
        evictions: 1,
        reaps: 1,
        keep: None,
        abort_begun: false,
    }
}

/// What crosses a connection: frames, each a head and then a body.
enum Piece {
    /// A frame's first bytes, and the request it carries or answers
    /// (`None`: a frame to the connection, not to a request).
    Head(Option<Tag>),
    /// The rest of the frame.
    Body(Vec<u8>),
}

/// One direction of a connection.
#[derive(Default)]
struct Pipe {
    pieces: VecDeque<Piece>,
    fin: bool,
}

impl Pipe {
    fn frame(&mut self, tag: Option<Tag>, payload: Vec<u8>) {
        self.pieces.push_back(Piece::Head(tag));
        self.pieces.push_back(Piece::Body(payload));
    }

    fn whole(&self) -> bool {
        matches!(self.pieces.get(1), Some(Piece::Body(_)))
    }

    /// Whether a frame read would return now.
    fn readable(&self) -> bool {
        self.whole() || self.fin
    }

    /// Whether a peek would return now: a byte or a FIN.
    fn peekable(&self) -> bool {
        !self.pieces.is_empty() || self.fin
    }

    /// A frame read, as `read_frame` returns it: a whole frame, `None`
    /// at a FIN between frames, `Truncated` at one inside a frame.
    fn read(&mut self) -> Result<Option<Frame>, WireError> {
        if !self.whole() {
            return match self.pieces.pop_front() {
                None => Ok(None),
                Some(_) => Err(WireError::Truncated),
            };
        }
        match (self.pieces.pop_front(), self.pieces.pop_front()) {
            (Some(Piece::Head(tag)), Some(Piece::Body(payload))) => Ok(Some((tag, payload))),
            _ => unreachable!("a whole frame is a head and a body"),
        }
    }
}

#[derive(Default)]
struct Conn {
    /// Client to server; its FIN is the client's close.
    up: Pipe,
    /// Server to client.
    down: Pipe,
    /// The server has closed its side.
    server_closed: bool,
    /// ...right after a frame.
    announced: bool,
}

enum Stage {
    /// The next request goes out, dialling first when the socket is
    /// retired.
    Send,
    /// The head of request `Tag` is out; its body is next.
    Body(Tag),
    /// Awaiting the answer to request `Tag`.
    Await(Tag),
    Done,
}

struct Client {
    calls: Vec<Call>,
    next: usize,
    rules: ClientRules,
    conn: usize,
    sent: u32,
    stage: Stage,
    timeouts: u32,
    /// How each call ended.
    ended: Vec<Result<(), NetError>>,
    /// The current call backed off after a busy answer.
    backed_off: bool,
    /// A call answered OK after a busy retry.
    retried_ok: bool,
}

struct Handler {
    conn: usize,
    phase: Phase,
    /// The request whose frame began at the handler's last wait.
    tag: Option<Tag>,
    _slot: Slot,
}

/// In how many schedules each path was taken.
#[derive(Debug, Default)]
struct Explored {
    schedules: u64,
    ok: u64,
    turned_away: u64,
    service_busy: u64,
    retried_ok: u64,
    timed_out: u64,
    evicted: u64,
    reaped: u64,
    refused: u64,
    wire: u64,
}

/// The frames the world's clients and service send.
struct Fixture {
    request: Vec<u8>,
    image: Arc<Image>,
}

/// Shared by every step of one schedule, in the footprints' bits.
const BACKLOG: u32 = 1;
const HANDLER: u32 = 2;
const DRAINS: u32 = 4;
const SHUTDOWN: u32 = 8;

fn client_bit(i: usize) -> u32 {
    1 << (4 + i.min(3))
}

/// Connection `k`'s client-to-server half: its pieces and its FIN.
fn up_bit(k: usize) -> u32 {
    1 << (8 + 2 * k.min(11))
}

/// Its server-to-client half, and whether the server announced its
/// close.
fn down_bit(k: usize) -> u32 {
    up_bit(k) << 1
}

fn err(kind: ErrorKind) -> io::Error {
    io::Error::from(kind)
}

struct Wire<'a> {
    bound: &'a Bound,
    fixture: &'a Fixture,
    meters: Meters,
    draining: Gauge,
    conns: Vec<Conn>,
    backlog: VecDeque<usize>,
    /// The acceptor has stopped; the listener closes once every handler
    /// and drain it started has ended.
    stopped: bool,
    listening: bool,
    shutdown: bool,
    handler: Option<Handler>,
    drains: Vec<(usize, Slot)>,
    clients: Vec<Client>,
    evictions: u32,
    reaps: u32,
    violation: Option<String>,
}

impl<'a> Wire<'a> {
    fn new(bound: &'a Bound, fixture: &'a Fixture) -> Self {
        let n = bound.clients.len();
        let clients = bound.clients.iter().enumerate().map(|(i, calls)| Client {
            calls: calls.clone(),
            next: 0,
            rules: ClientRules::default(),
            conn: i,
            sent: 0,
            stage: Stage::Send,
            timeouts: bound.timeouts,
            ended: Vec::new(),
            backed_off: false,
            retried_ok: false,
        });
        Wire {
            bound,
            fixture,
            meters: Meters::new(&MetricsRegistry::new()),
            draining: Gauge::default(),
            // Each `Client::connect` dialled before the scripts start.
            conns: (0..n).map(|_| Conn::default()).collect(),
            backlog: (0..n).collect(),
            stopped: false,
            listening: true,
            shutdown: false,
            handler: None,
            drains: Vec::new(),
            clients: clients.collect(),
            evictions: bound.evictions,
            reaps: bound.reaps,
            violation: None,
        }
    }

    fn client_step(&mut self, i: usize) {
        let c = &mut self.clients[i];
        let tag = match c.stage {
            Stage::Send => {
                if c.rules.retired {
                    if !self.listening {
                        let refused = err(ErrorKind::ConnectionRefused);
                        return self.finish(i, Err(refused.into()));
                    }
                    c.conn = self.conns.len();
                    c.rules.retired = false;
                    self.conns.push(Conn::default());
                    self.backlog.push_back(c.conn);
                }
                c.sent += 1;
                let tag = (i, c.sent);
                self.conns[c.conn]
                    .up
                    .pieces
                    .push_back(Piece::Head(Some(tag)));
                if matches!(c.calls[c.next], Call::Slow) {
                    c.stage = Stage::Body(tag);
                    return;
                }
                tag
            }
            Stage::Body(tag) => tag,
            Stage::Await(tag) => {
                let result = match self.conns[c.conn].down.read() {
                    Ok(Some((answers, payload))) => {
                        if answers.is_some_and(|a| a != tag) {
                            self.violation = Some(format!(
                                "client {i} read the reply to {answers:?} as its answer to {tag:?}"
                            ));
                        }
                        decode_response(&payload)
                    }
                    Ok(None) => Err(WireError::Truncated.into()),
                    Err(e) => Err(e.into()),
                };
                return self.answered(i, tag, result);
            }
            Stage::Done => unreachable!("a finished client is never enabled"),
        };
        let payload = self.fixture.request.clone();
        self.conns[c.conn].up.pieces.push_back(Piece::Body(payload));
        c.stage = Stage::Await(tag);
    }

    /// The end of `Client::request`'s exchange, and the reuse rule.
    fn answered(&mut self, i: usize, tag: Tag, result: Result<NetResponse, NetError>) {
        let c = &mut self.clients[i];
        let conn = &mut self.conns[c.conn];
        let keeps = matches!(
            (self.bound.keep, &result),
            (Some(Keep::Timeout), Err(NetError::Timeout))
                | (Some(Keep::Busy), Err(NetError::Busy))
                | (Some(Keep::Protocol), Err(NetError::Protocol(_)))
        );
        if c.rules.answered(result.is_ok()) {
            if keeps {
                c.rules.retired = false;
            } else {
                conn.up.fin = true;
            }
        }
        if let Err(e @ NetError::Wire(_)) = &result {
            if conn.announced {
                self.violation = Some(format!(
                    "client {i}'s request {tag:?} ended in `{e}` on a connection \
                     the server closed with a frame"
                ));
            }
        }
        self.finish(i, result.map(drop));
    }

    /// The end of `Client::request`, and the retry rule.
    fn finish(&mut self, i: usize, mut result: Result<(), NetError>) {
        let c = &mut self.clients[i];
        if let Call::Retry(max) = c.calls[c.next] {
            if c.rules.retry(&mut result, max).is_some() {
                c.backed_off = true;
                c.stage = Stage::Send;
                return;
            }
        }
        c.retried_ok |= std::mem::take(&mut c.backed_off) && result.is_ok();
        c.ended.push(result);
        c.next += 1;
        c.stage = if c.next < c.calls.len() {
            Stage::Send
        } else {
            // The client drops, and with it its socket.
            self.conns[c.conn].up.fin = true;
            Stage::Done
        };
    }

    /// Sends `payload` and a FIN down `k`: the server's last word.
    fn respond_and_close(&mut self, k: usize, tag: Option<Tag>, payload: Vec<u8>) {
        let conn = &mut self.conns[k];
        conn.down.frame(tag, payload);
        conn.down.fin = true;
        conn.announced = true;
    }

    fn accept(&mut self) {
        let admit = self.meters.admit(self.shutdown, CAP, &self.draining);
        let next = self.backlog.pop_front();
        match (admit, next) {
            (Admit::Refuse, next) => {
                if let Some(k) = next {
                    self.respond_and_close(k, None, refused());
                    self.conns[k].server_closed = true;
                }
                self.stopped = true;
            }
            (Admit::Serve(slot), Some(k)) => {
                assert!(self.handler.is_none(), "the cap admitted a second handler");
                self.handler = Some(Handler {
                    conn: k,
                    phase: Phase::Wait,
                    tag: None,
                    _slot: slot,
                });
            }
            (Admit::Busy(drain), Some(k)) => {
                self.respond_and_close(k, None, encode_busy());
                match drain {
                    Some(slot) => self.drains.push((k, slot)),
                    None => self.conns[k].server_closed = true,
                }
            }
            (_, None) => unreachable!("a running acceptor steps only with a connection queued"),
        }
    }

    fn handler_mut(&mut self) -> &mut Handler {
        self.handler.as_mut().expect("the handler is running")
    }

    fn handler_step(&mut self) {
        let shutdown = self.shutdown;
        let h = self.handler.as_mut().expect("the handler is running");
        let up = &mut self.conns[h.conn].up;
        // The adapter checks the shutdown flag before each peek; the read
        // of a begun frame does not watch it.
        let aborted = || err(ErrorKind::ConnectionAborted);
        let next = match std::mem::replace(&mut h.phase, Phase::Wait) {
            Phase::Wait => {
                h.tag = match up.pieces.front() {
                    Some(Piece::Head(tag)) => *tag,
                    _ => None,
                };
                let peeked = if shutdown {
                    Err(aborted())
                } else {
                    Ok(up.pieces.len())
                };
                self.meters.waited(peeked, shutdown)
            }
            Phase::Read if shutdown && self.bound.abort_begun => {
                self.meters.read(Err(WireError::Io(aborted())))
            }
            Phase::Read => self.meters.read(up.read().map(|f| f.map(|(_, p)| p))),
            Phase::Answer(answer) => {
                self.conns[h.conn].down.frame(h.tag, answer);
                self.meters.wrote(Ok(()))
            }
            Phase::Serve(_) | Phase::Close(_) => unreachable!("not a handler step"),
        };
        self.advance(next);
    }

    /// The service answers the handler's request with `outcome`.
    fn serve(&mut self, outcome: Result<ServiceResponse, ServiceError>) {
        let Phase::Serve(payload) = std::mem::replace(&mut self.handler_mut().phase, Phase::Wait)
        else {
            unreachable!("the service steps only for a request");
        };
        let next = self.meters.served(&payload, |_| outcome);
        self.advance(next);
    }

    /// The frame deadline elapses mid-request or mid-answer.
    fn evict(&mut self) {
        self.evictions -= 1;
        let timed_out = err(ErrorKind::TimedOut);
        let h = self.handler.as_mut().expect("the handler is running");
        let next = match std::mem::replace(&mut h.phase, Phase::Wait) {
            Phase::Read => self.meters.read(Err(WireError::Io(timed_out))),
            Phase::Answer(_) => {
                self.conns[h.conn].down.pieces.push_back(Piece::Head(h.tag));
                self.meters.wrote(Err(timed_out))
            }
            _ => unreachable!("the frame deadline runs only mid-frame"),
        };
        self.advance(next);
    }

    /// The handler's next phase; a close runs at once.
    fn advance(&mut self, phase: Phase) {
        let Phase::Close(last) = phase else {
            self.handler_mut().phase = phase;
            return;
        };
        let h = self.handler.take().expect("the handler is running");
        match last {
            Some(frame) => self.respond_and_close(h.conn, h.tag, frame),
            None => self.conns[h.conn].down.fin = true,
        }
        self.conns[h.conn].server_closed = true;
    }

    fn drain_step(&mut self) {
        let conns = &self.conns;
        let i = (0..self.drains.len())
            .find(|&i| self.shutdown || conns[self.drains[i].0].up.peekable())
            .expect("a drain is ready");
        let up = &mut self.conns[self.drains[i].0].up;
        if !self.shutdown && up.pieces.pop_front().is_some() {
            return;
        }
        // The client hung up or the server shuts down: the drain ends.
        let (k, _slot) = self.drains.remove(i);
        self.conns[k].server_closed = true;
    }

    /// Closes the listener once the stopped acceptor's scope has joined
    /// every handler and drain: connections still queued are reset.
    fn close_listener(&mut self) {
        if self.stopped && self.listening && self.handler.is_none() && self.drains.is_empty() {
            self.listening = false;
            for k in std::mem::take(&mut self.backlog) {
                self.conns[k].down.fin = true;
                self.conns[k].server_closed = true;
            }
        }
    }

    /// Bits for a step that may end the last handler or drain of a
    /// stopped acceptor, and so close the listener.
    fn closing(&self) -> u32 {
        if !self.stopped {
            return 0;
        }
        self.backlog
            .iter()
            .fold(BACKLOG, |bits, &k| bits | down_bit(k))
    }

    fn handler_phase(&self) -> Option<&Phase> {
        self.handler.as_ref().map(|h| &h.phase)
    }

    fn handler_up(&self) -> Option<&Pipe> {
        self.handler.as_ref().map(|h| &self.conns[h.conn].up)
    }

    fn n(&self) -> usize {
        self.clients.len()
    }
}

// Actor ids, after the `n` clients: the progress actors first, so a
// drain runs them before any event.
const ACCEPT: usize = 0;
const HANDLE: usize = 1;
const DRAIN: usize = 2;
const SERVE_OK: usize = 3;
const SERVE_BUSY: usize = 4;
/// Then one operation deadline per client, and the server's events.
const DEADLINES: usize = 5;

impl World for Wire<'_> {
    type Seen = Explored;

    fn enabled(&self) -> u32 {
        let n = self.n();
        let phase = self.handler_phase();
        let up = self.handler_up();
        let clients = self.clients.iter().map(|c| match c.stage {
            Stage::Send | Stage::Body(_) => true,
            Stage::Await(_) => self.conns[c.conn].down.readable(),
            Stage::Done => false,
        });
        let handler = match (phase, up) {
            (Some(Phase::Wait), Some(up)) => up.peekable() || self.shutdown,
            (Some(Phase::Read), Some(up)) => {
                up.readable() || (self.shutdown && self.bound.abort_begun)
            }
            (Some(Phase::Answer(_)), _) => true,
            _ => false,
        };
        let drain = self
            .drains
            .iter()
            .any(|&(k, _)| self.shutdown || self.conns[k].up.peekable());
        let serving = matches!(phase, Some(Phase::Serve(_)));
        let deadlines = self
            .clients
            .iter()
            .map(|c| matches!(c.stage, Stage::Await(_)) && c.timeouts > 0);
        let evict = self.evictions > 0
            && match (phase, up) {
                (Some(Phase::Read), Some(up)) => !up.readable(),
                (Some(Phase::Answer(_)), _) => true,
                _ => false,
            };
        let reap = self.reaps > 0
            && !self.shutdown
            && matches!((phase, up), (Some(Phase::Wait), Some(up)) if !up.peekable());
        let accept = !self.stopped && (!self.backlog.is_empty() || self.shutdown);
        let ready: Vec<bool> = clients
            .chain([accept, handler, drain, serving, serving])
            .chain(deadlines)
            .chain([evict, reap, !self.shutdown])
            .collect();
        debug_assert_eq!(ready.len(), 2 * n + DEADLINES + 3);
        ready
            .iter()
            .enumerate()
            .fold(0, |set, (id, &r)| set | (u32::from(r) << id))
    }

    fn step(&mut self, actor: usize) {
        let n = self.n();
        match actor {
            i if i < n => self.client_step(i),
            a if a == n + ACCEPT => self.accept(),
            a if a == n + HANDLE => self.handler_step(),
            a if a == n + DRAIN => self.drain_step(),
            a if a == n + SERVE_OK => {
                let response = ServiceResponse {
                    image: Arc::clone(&self.fixture.image),
                    report: None,
                    served_from: ServedFrom::Cold,
                    queue_wait: Duration::ZERO,
                    service_time: Duration::ZERO,
                };
                self.serve(Ok(response));
            }
            a if a == n + SERVE_BUSY => self.serve(Err(ServiceError::QueueFull)),
            a if a < 2 * n + DEADLINES => {
                let i = a - n - DEADLINES;
                let Stage::Await(tag) = self.clients[i].stage else {
                    unreachable!("a deadline fires only on an awaited request");
                };
                self.clients[i].timeouts -= 1;
                self.answered(i, tag, Err(NetError::Timeout));
            }
            a if a == 2 * n + DEADLINES => self.evict(),
            a if a == 2 * n + DEADLINES + 1 => {
                self.reaps -= 1;
                let next = self.meters.waited(Err(err(ErrorKind::TimedOut)), false);
                self.advance(next);
            }
            _ => self.shutdown = true,
        }
        self.close_listener();
    }

    fn footprint(&self, actor: usize) -> u32 {
        let n = self.n();
        // The handler's connection, and what closing it touches.
        let (k, up) = self
            .handler
            .as_ref()
            .map_or((0, None), |h| (h.conn, Some(&self.conns[h.conn].up)));
        let closes = HANDLER | up_bit(k) | down_bit(k) | self.closing();
        match actor {
            i if i < n => {
                let c = &self.clients[i];
                let bits = client_bit(i) | up_bit(c.conn);
                match c.stage {
                    Stage::Send if c.rules.retired => bits | BACKLOG,
                    Stage::Await(_) => bits | down_bit(c.conn),
                    _ => bits,
                }
            }
            a if a == n + ACCEPT => {
                // A stopping acceptor may close the listener, which
                // resets every queued connection.
                let answered = match self.backlog.front() {
                    _ if self.shutdown => self.backlog.iter().fold(0, |b, &k| b | down_bit(k)),
                    Some(&k) => down_bit(k),
                    None => 0,
                };
                BACKLOG | HANDLER | DRAINS | SHUTDOWN | answered
            }
            a if a == n + HANDLE => match (self.handler_phase(), up) {
                (Some(Phase::Wait), Some(up)) if !self.shutdown && !up.pieces.is_empty() => {
                    HANDLER | up_bit(k) | SHUTDOWN
                }
                (Some(Phase::Read), Some(up)) if self.bound.abort_begun => {
                    if !self.shutdown && up.whole() {
                        HANDLER | up_bit(k) | SHUTDOWN
                    } else {
                        closes | SHUTDOWN
                    }
                }
                // A begun frame is read whatever the shutdown flag says.
                (Some(Phase::Read), Some(up)) if up.whole() => HANDLER | up_bit(k),
                (Some(Phase::Read), _) => closes,
                (Some(Phase::Answer(_)), _) => HANDLER | down_bit(k),
                _ => closes | SHUTDOWN,
            },
            a if a == n + DRAIN => {
                let drained = self.drains.iter().fold(0, |bits, &(k, _)| bits | up_bit(k));
                DRAINS | SHUTDOWN | drained | self.closing()
            }
            a if a == n + SERVE_OK || a == n + SERVE_BUSY => HANDLER,
            a if a < 2 * n + DEADLINES => {
                let i = a - n - DEADLINES;
                client_bit(i) | up_bit(self.clients[i].conn)
            }
            a if a == 2 * n + DEADLINES => closes,
            a if a == 2 * n + DEADLINES + 1 => closes | SHUTDOWN,
            _ => SHUTDOWN,
        }
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(v) = self.violation.take() {
            return Err(v);
        }
        let active = self.meters.active.get();
        if active != i64::from(self.handler.is_some()) || active > CAP as i64 {
            return Err(format!("{active} active handlers, cap {CAP}"));
        }
        let rejects = self.meters.frame_rejects.get();
        if rejects > 0 {
            return Err(format!(
                "the handler rejected {rejects} frame(s) that a client sent whole"
            ));
        }
        let draining = self.draining.get();
        if draining != self.drains.len() as i64 || draining > MAX_DRAINS as i64 {
            return Err(format!(
                "{draining} drains counted, {} running",
                self.drains.len()
            ));
        }
        Ok(())
    }

    fn drained(&self, seen: &mut Explored) -> Result<(), String> {
        if let Some(i) = self
            .clients
            .iter()
            .position(|c| !matches!(c.stage, Stage::Done))
        {
            return Err(format!("client {i} is stuck"));
        }
        if let Some(k) = self
            .conns
            .iter()
            .position(|c| !c.up.fin || !c.server_closed)
        {
            return Err(format!("connection {k} was left open"));
        }
        let stats = self.meters.stats();
        if !stats.reconciles() {
            return Err(format!("the books do not reconcile: {stats:?}"));
        }
        let ended = || self.clients.iter().flat_map(|c| &c.ended);
        let any = |f: fn(&Result<(), NetError>) -> bool| u64::from(ended().any(f));
        seen.schedules += 1;
        seen.ok += any(Result::is_ok);
        seen.turned_away += u64::from(stats.conn_rejected > 0);
        seen.service_busy += u64::from(stats.busy > 0);
        seen.retried_ok += u64::from(self.clients.iter().any(|c| c.retried_ok));
        seen.timed_out += any(|r| matches!(r, Err(NetError::Timeout)));
        seen.evicted += u64::from(stats.frame_timeouts > 0);
        seen.reaped += u64::from(stats.idle_reaped > 0);
        seen.refused += any(|r| matches!(r, Err(NetError::Refused)));
        seen.wire += any(|r| matches!(r, Err(NetError::Wire(_))));
        Ok(())
    }

    fn name(&self, actor: usize) -> String {
        let n = self.n();
        match actor {
            i if i < n => format!("c{i}"),
            a if a == n + ACCEPT => "accept".into(),
            a if a == n + HANDLE => "h".into(),
            a if a == n + DRAIN => "drain".into(),
            a if a == n + SERVE_OK => "ok".into(),
            a if a == n + SERVE_BUSY => "busy".into(),
            a if a < 2 * n + DEADLINES => format!("timeout{}", a - n - DEADLINES),
            a if a == 2 * n + DEADLINES => "evict".into(),
            a if a == 2 * n + DEADLINES + 1 => "reap".into(),
            _ => "stop".into(),
        }
    }
}

/// Runs every schedule within `bound`; returns the paths they took, or
/// the first violation and its schedule.
fn explore_wire(bound: &Bound) -> Result<Explored, String> {
    let fixture = Fixture {
        request: encode_request(&Request::strict(), b"x"),
        image: Arc::new(Image::synthetic_rgb(2, 2, 1)),
    };
    explore(bound.depth, || Wire::new(bound, &fixture))
}

/// Every path the bound promises is taken in some schedule; the
/// operation deadline only when the bound lets one fire.
fn assert_covered(seen: &Explored, bound: &Bound) {
    let paths = [
        seen.ok,
        seen.turned_away,
        seen.service_busy,
        seen.retried_ok,
        seen.evicted,
        seen.reaped,
        seen.refused,
        seen.wire,
        if bound.timeouts > 0 {
            seen.timed_out
        } else {
            1
        },
    ];
    assert!(paths.iter().all(|&n| n > 0), "{seen:?}");
}

/// The default bound: every ordering of the first 11 steps of the
/// two-client world, each drained: 26 534 schedules, about 3 s in a
/// debug build.
#[test]
fn wire_world_checks_every_interleaving_to_depth_11() {
    let bound = bound(11);
    let seen = explore_wire(&bound).unwrap_or_else(|e| panic!("{e}"));
    assert_covered(&seen, &bound);
    assert_eq!(seen.schedules, 26_534, "{seen:?}");
}

/// The first violation the default bound finds with a client that
/// keeps its socket after `keep`.
fn refind(keep: Keep) -> String {
    explore_wire(&Bound {
        keep: Some(keep),
        ..bound(11)
    })
    .map(|seen| seen.schedules)
    .unwrap_err()
}

/// Regression: a client that kept its socket after `Timeout` read the
/// late answer to the timed-out request as the answer to its next one.
#[test]
fn wire_world_refinds_the_late_reply() {
    let err = refind(Keep::Timeout);
    assert!(
        err.starts_with("client 0 read the reply to Some((0, 1)) as its answer to (0, 2)"),
        "{err}"
    );
}

/// Regression: a client that kept its socket after a busy answer from
/// the acceptor, which closes the connection, failed its retry
/// `Wire(Truncated)`.
#[test]
fn wire_world_refinds_the_retry_on_a_closed_busy_socket() {
    let err = refind(Keep::Busy);
    let wire = "client 1's request (1, 2) ended in `connection closed mid-frame`";
    assert!(err.starts_with(wire), "{err}");
}

/// Regression: a client that kept its socket after a protocol error,
/// which the server follows with a close when it evicts a late frame,
/// failed its next request `Wire(Truncated)`.
#[test]
fn wire_world_refinds_the_request_after_an_eviction() {
    let err = refind(Keep::Protocol);
    let wire = "client 0's request (0, 2) ended in `connection closed mid-frame`";
    assert!(err.starts_with(wire) && err.contains("evict"), "{err}");
}

/// Regression: a handler that had seen a request's first byte when
/// shutdown began aborted the frame's read, counted a frame reject and
/// closed without a word, so the client read `Wire(Truncated)` where a
/// handler still waiting answers `Refused`.
#[test]
fn wire_world_refinds_the_request_dropped_at_shutdown() {
    let err = explore_wire(&Bound {
        abort_begun: true,
        ..bound(11)
    })
    .map(|seen| seen.schedules)
    .unwrap_err();
    let schedule = "schedule: c0 c0 c1 accept accept c1 c1 accept c1 h stop accept h";
    assert!(
        err.starts_with("the handler rejected 1 frame(s)") && err.contains(schedule),
        "{err}"
    );
}

/// Every interleaving, with no depth bound, of a smaller world: a slow
/// request against a client that retries busy answers once, with one
/// eviction and one reap and no operation deadline: 1 689 102
/// schedules, about 30 s in a release build.
#[test]
#[ignore = "exhaustive; run in release"]
fn wire_world_deep_checks_every_interleaving_unbounded() {
    let deep = Bound {
        clients: vec![vec![Call::Slow], vec![Call::Retry(1)]],
        timeouts: 0,
        ..bound(usize::MAX)
    };
    let seen = explore_wire(&deep).unwrap_or_else(|e| panic!("{e}"));
    assert_covered(&seen, &deep);
    assert_eq!(seen.schedules, 1_689_102, "{seen:?}");
}
