//! The readiness-driven reactor (Linux): every connection multiplexed onto
//! one event-loop thread.
//!
//! The listener and every connection socket are non-blocking and registered
//! with one `epoll` instance, which the event-loop thread owns together with
//! the per-connection state machines.  A wake services ready connections
//! round-robin under the [`FairnessPolicy`] budgets: read up to the byte
//! budget, feed complete lines through the [`ConnState`] protocol machine up
//! to the batch budget, queue responses in a bounded write buffer, flush what
//! the socket accepts, and re-register interest to match what the connection
//! is waiting for.  `epoll` is used level-triggered, so kernel-side readiness
//! re-reports itself; *user-space* pending work (complete lines already
//! buffered when a budget ran out, or a connection unpaused by a drain) is
//! tracked in an explicit backlog queue that forces the next wake to poll
//! with a zero timeout.
//!
//! The syscall surface is three thin `extern "C"` declarations over the libc
//! that `std` already links (`epoll_create1`/`epoll_ctl`/`epoll_wait`) — no
//! new dependencies.
//!
//! There is no waker fd: the loop polls with a 10 ms tick, and the tick is
//! where cross-thread signals are observed — the stop flag, drain-generation
//! changes that unpause pipelining-limited connections, idle reaping, write
//! stall detection, and the peak-buffer gauge.
//!
//! [`FairnessPolicy`]: super::server::FairnessPolicy
//! [`ConnState`]: super::conn::ConnState

use super::conn::ConnState;
use super::protocol::Response;
use super::server::{DisconnectReason, Shared};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Thin safe wrappers over the `epoll` syscalls.
mod sys {
    use std::io;
    use std::os::raw::c_int;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    const EPOLL_CLOEXEC: c_int = 0o200_0000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;

    /// `struct epoll_event` with the kernel ABI layout — packed on x86-64,
    /// where the kernel declares it `__attribute__((packed))`.
    ///
    /// Fields stay private and are only moved by value (never referenced),
    /// which keeps the packed layout from ever producing a misaligned
    /// reference.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub(super) fn zeroed() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }

        pub(super) fn token(self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An owned `epoll` instance.  Registered fds deregister themselves when
    /// their last descriptor closes, so the only cleanup is closing our own
    /// fd on drop.
    pub(super) struct Epoll {
        fd: c_int,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `event` lives across the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn add(&self, fd: c_int, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub(super) fn modify(&self, fd: c_int, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Waits for readiness events, retrying on `EINTR`.
        pub(super) fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            loop {
                // SAFETY: the kernel writes at most `events.len()` entries
                // into the buffer we hand it.
                let rc = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd this instance owns.
            unsafe { close(self.fd) };
        }
    }
}

/// Poll timeout when nothing is pending: the reactor's heartbeat, bounding
/// how stale the tick-observed signals (stop, drain generation, idle) get.
const TICK: Duration = Duration::from_millis(10);
const TICK_MS: i32 = 10;
/// Readiness events fetched per `epoll_wait`.
const MAX_EVENTS: usize = 64;
/// Token reserved for the listener (connection tokens are slab indices).
const LISTENER_TOKEN: u64 = u64::MAX;
/// How long live connections get to flush queued responses at shutdown.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);

/// One connection's reactor-side state: the socket, its buffers, and the
/// scheduling flags around the shared [`ConnState`] protocol machine.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Received-but-unparsed bytes; `consumed` marks how far line extraction
    /// has eaten (compacted after every service pass).
    read_buf: Vec<u8>,
    consumed: usize,
    /// Queued-but-unsent response bytes; `written` marks flush progress.
    write_buf: Vec<u8>,
    written: usize,
    /// Event mask currently registered with `epoll`.
    interest: u32,
    /// The client half-closed; any buffered trailing line is still processed
    /// and queued responses still flush before the server closes its side.
    eof: bool,
    /// Pipelining limit hit: reads stay off until the next drain completes.
    paused: bool,
    /// Already queued in the event loop's backlog (dedup flag).
    in_backlog: bool,
    /// Drain generation the pipelining window was opened in.
    gen_seen: u64,
    /// Batches admitted in the current pipelining window.
    admitted_in_gen: usize,
    /// Last socket progress in either direction (idle reaping).
    last_activity: Instant,
    /// When the oldest unflushed response byte started waiting (write-stall
    /// detection); `None` while the write buffer is empty or moving.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn has_complete_line(&self) -> bool {
        self.read_buf[self.consumed..].contains(&b'\n')
    }

    fn has_unprocessed_input(&self) -> bool {
        self.has_complete_line() || (self.eof && self.consumed < self.read_buf.len())
    }

    fn write_pending(&self) -> bool {
        self.written < self.write_buf.len()
    }

    fn queue_response(&mut self, response: &Response) {
        use std::fmt::Write as _;
        let mut line = String::new();
        let _ = writeln!(line, "{response}");
        self.write_buf.extend_from_slice(line.as_bytes());
    }
}

/// What a service pass decided about a connection.
enum Verdict {
    Keep,
    /// Close it; `Some` reasons are server-initiated disconnects worth
    /// counting, `None` is a normal EOF/error close.
    Close(Option<DisconnectReason>),
}

/// Spawns the event-loop thread, which owns the (non-blocking) listener.
pub(super) fn spawn_event_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let epoll = sys::Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
    let scratch_len = shared
        .config
        .fairness
        .read_budget_bytes
        .clamp(4096, 1 << 20);
    let event_loop = EventLoop {
        shared,
        epoll,
        listener: Some(listener),
        conns: Vec::new(),
        free: Vec::new(),
        backlog: VecDeque::new(),
        scratch: vec![0u8; scratch_len],
    };
    std::thread::Builder::new()
        .name("pdmm-net-loop".into())
        .spawn(move || event_loop.run())
}

struct EventLoop {
    shared: Arc<Shared>,
    epoll: sys::Epoll,
    /// Dropped (closed) as soon as shutdown starts.
    listener: Option<TcpListener>,
    /// Slab of connections; the vector index is the `epoll` token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections with user-space pending work (buffered complete lines or
    /// a fresh unpause) that kernel readiness alone would not re-report
    /// promptly.  Serviced round-robin, one backlog generation per wake.
    backlog: VecDeque<usize>,
    /// Read scratch shared by every connection.
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = [sys::EpollEvent::zeroed(); MAX_EVENTS];
        let mut grace_deadline: Option<Instant> = None;
        let mut last_tick = Instant::now();
        loop {
            if grace_deadline.is_none() && self.shared.stop.load(Ordering::Acquire) {
                // Stop accepting immediately; give live connections a short
                // grace window to finish parsing and flush responses.
                self.listener = None;
                grace_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
            }
            if let Some(deadline) = grace_deadline {
                if self.quiescent() || Instant::now() >= deadline {
                    break;
                }
            }
            let timeout: i32 = if !self.backlog.is_empty() {
                0
            } else if grace_deadline.is_some() {
                1
            } else {
                TICK_MS
            };
            let ready = match self.epoll.wait(&mut events, timeout) {
                Ok(ready) => ready,
                Err(_) => break,
            };
            for event in &events[..ready] {
                let token = event.token();
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.enqueue(token as usize);
                }
            }
            // Service exactly the tokens enqueued so far: each serviced
            // connection may re-enqueue itself at the *back*, giving
            // round-robin progress instead of one connection spinning.
            let rounds = self.backlog.len();
            for _ in 0..rounds {
                let Some(token) = self.backlog.pop_front() else {
                    break;
                };
                if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                    conn.in_backlog = false;
                } else {
                    continue;
                }
                self.service(token);
            }
            if grace_deadline.is_some() || last_tick.elapsed() >= TICK {
                last_tick = Instant::now();
                self.tick();
            }
        }
        // Whatever is still open dies with the loop; release its slots.
        for slot in &mut self.conns {
            if slot.take().is_some() {
                self.shared.connection_closed();
            }
        }
    }

    /// Queues a connection for service (deduplicated).
    fn enqueue(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            if !conn.in_backlog {
                conn.in_backlog = true;
                self.backlog.push_back(token);
            }
        }
    }

    /// Accepts everything currently pending on the listener (none once
    /// shutdown has closed it).
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if self.shared.stop.load(Ordering::Acquire) {
                        continue;
                    }
                    if !self.shared.try_accept_connection() {
                        self.shared.reject_connection(stream);
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Registers a freshly accepted socket with the loop.  The
    /// live-connection slot is already claimed; failure paths release it.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.connection_closed();
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .epoll
            .add(stream.as_raw_fd(), sys::EPOLLIN, token as u64)
            .is_err()
        {
            self.free.push(token);
            self.shared.connection_closed();
            return;
        }
        self.conns[token] = Some(Conn {
            stream,
            state: ConnState::new(),
            read_buf: Vec::new(),
            consumed: 0,
            write_buf: Vec::new(),
            written: 0,
            interest: sys::EPOLLIN,
            eof: false,
            paused: false,
            in_backlog: false,
            gen_seen: self.shared.drain_gen.load(Ordering::Relaxed),
            admitted_in_gen: 0,
            last_activity: Instant::now(),
            stalled_since: None,
        });
        // Service immediately: bytes may already be waiting.
        self.enqueue(token);
    }

    /// Runs one budgeted service pass over a connection, then either
    /// re-registers its interest (and backlog membership) or closes it.
    fn service(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        match self.service_conn(&mut conn) {
            Verdict::Keep => {
                let mut want = 0u32;
                if !conn.paused && !conn.eof {
                    want |= sys::EPOLLIN;
                }
                if conn.write_pending() {
                    want |= sys::EPOLLOUT;
                }
                if want != conn.interest {
                    if self
                        .epoll
                        .modify(conn.stream.as_raw_fd(), want, token as u64)
                        .is_err()
                    {
                        self.close(token, conn, None);
                        return;
                    }
                    conn.interest = want;
                }
                let pending = !conn.paused && conn.has_unprocessed_input();
                self.conns[token] = Some(conn);
                if pending {
                    self.enqueue(token);
                }
            }
            Verdict::Close(reason) => self.close(token, conn, reason),
        }
    }

    /// The per-connection state machine: read → parse/admit → flush, each
    /// stage bounded by the fairness budgets.
    fn service_conn(&mut self, conn: &mut Conn) -> Verdict {
        let shared = Arc::clone(&self.shared);
        let fairness = shared.config.fairness.clone();

        // A completed drain opens a fresh pipelining window.
        let gen = shared.drain_gen.load(Ordering::Relaxed);
        if gen != conn.gen_seen {
            conn.gen_seen = gen;
            conn.admitted_in_gen = 0;
            conn.paused = false;
        }

        // 1. Read up to the byte budget — but not while a full budget's
        //    worth of *processable* input already sits buffered: user-space
        //    buffering stays bounded (≈ 2× the budget, + one line) and TCP
        //    backpressure reaches a client that outruns its own batch
        //    budget.  When no complete line is buffered the gate must stay
        //    open regardless (a single line longer than the budget would
        //    otherwise never finish arriving); the `max_line_bytes` guard
        //    below bounds that path instead.
        let buffered = conn.read_buf.len() - conn.consumed;
        if !conn.paused
            && !conn.eof
            && (buffered < fairness.read_budget_bytes.max(1) || !conn.has_complete_line())
        {
            let mut budget = fairness.read_budget_bytes.max(1);
            while budget > 0 {
                let want = budget.min(self.scratch.len());
                match conn.stream.read(&mut self.scratch[..want]) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(read) => {
                        conn.read_buf.extend_from_slice(&self.scratch[..read]);
                        conn.last_activity = Instant::now();
                        budget -= read;
                        if read < want {
                            break; // socket drained
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Verdict::Close(None),
                }
            }
            // A newline-free run past the line cap can never complete, only
            // grow: resource protection, disconnect.
            if conn.read_buf.len() - conn.consumed > fairness.max_line_bytes
                && !conn.has_complete_line()
            {
                return Verdict::Close(Some(DisconnectReason::SlowClient));
            }
        }

        // 2. Feed complete lines through the protocol machine, up to the
        //    batch (response) budget.
        let mut responses = 0usize;
        while !conn.paused && responses < fairness.batch_budget.max(1) {
            let Some(newline) = conn.read_buf[conn.consumed..]
                .iter()
                .position(|&b| b == b'\n')
            else {
                break;
            };
            let line_end = conn.consumed + newline;
            conn.state.lineno += 1;
            let response = {
                let line = String::from_utf8_lossy(&conn.read_buf[conn.consumed..line_end]);
                conn.state.process_line(line.trim(), &shared)
            };
            conn.consumed = line_end + 1;
            if let Some(response) = response {
                responses += 1;
                if matches!(response, Response::Ok { .. }) {
                    conn.admitted_in_gen += 1;
                    if conn.admitted_in_gen >= fairness.max_pipeline.max(1) {
                        conn.paused = true;
                    }
                }
                conn.queue_response(&response);
            }
        }

        // A half-closed client's trailing unterminated line is still
        // processed (an `ERR` it provokes still goes out before the close).
        if conn.eof
            && !conn.paused
            && !conn.has_complete_line()
            && conn.consumed < conn.read_buf.len()
        {
            conn.state.lineno += 1;
            let response = {
                let line = String::from_utf8_lossy(&conn.read_buf[conn.consumed..]);
                conn.state.process_line(line.trim(), &shared)
            };
            conn.consumed = conn.read_buf.len();
            if let Some(response) = response {
                conn.queue_response(&response);
            }
        }

        // Compact lazily: always when fully consumed (free), otherwise only
        // once enough is eaten to be worth the memmove.
        if conn.consumed == conn.read_buf.len() {
            conn.read_buf.clear();
            conn.consumed = 0;
        } else if conn.consumed >= 4096 {
            conn.read_buf.drain(..conn.consumed);
            conn.consumed = 0;
        }

        // 3. Flush what the socket will take; police the write bound.
        if flush_writes(conn).is_err() {
            return Verdict::Close(None);
        }
        if conn.write_buf.len() - conn.written > fairness.write_buffer_limit {
            return Verdict::Close(Some(DisconnectReason::SlowClient));
        }

        if conn.eof && !conn.write_pending() && !conn.has_unprocessed_input() {
            return Verdict::Close(None); // fully drained: normal close
        }
        Verdict::Keep
    }

    /// The 10 ms heartbeat: unpause connections whose drain completed, reap
    /// idle ones, disconnect stalled writers, and sample the buffer gauge.
    fn tick(&mut self) {
        let gen = self.shared.drain_gen.load(Ordering::Relaxed);
        let idle_timeout = self.shared.config.idle_timeout;
        let write_timeout = self.shared.config.write_timeout;
        let mut total_buffered = 0u64;
        let mut to_resume: Vec<usize> = Vec::new();
        let mut to_close: Vec<(usize, DisconnectReason)> = Vec::new();
        for (token, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            total_buffered += (conn.read_buf.capacity() + conn.write_buf.capacity()) as u64;
            if conn.gen_seen != gen {
                conn.gen_seen = gen;
                conn.admitted_in_gen = 0;
                if conn.paused {
                    conn.paused = false;
                    to_resume.push(token);
                }
            }
            if let Some(limit) = write_timeout {
                if conn
                    .stalled_since
                    .is_some_and(|since| since.elapsed() > limit)
                {
                    to_close.push((token, DisconnectReason::SlowClient));
                    continue;
                }
            }
            if let Some(limit) = idle_timeout {
                // A stalled write is the slow-client path's business, not
                // idleness.
                if !conn.write_pending() && conn.last_activity.elapsed() > limit {
                    to_close.push((token, DisconnectReason::IdleTimeout));
                }
            }
        }
        self.shared.record_peak_buffer_bytes(total_buffered);
        for token in to_resume {
            self.enqueue(token);
        }
        for (token, reason) in to_close {
            if let Some(conn) = self.conns.get_mut(token).and_then(Option::take) {
                self.close(token, conn, Some(reason));
            }
        }
    }

    /// Whether shutdown can complete early: no buffered work anywhere.
    fn quiescent(&self) -> bool {
        self.backlog.is_empty()
            && self
                .conns
                .iter()
                .flatten()
                .all(|conn| !conn.write_pending() && !conn.has_unprocessed_input())
    }

    fn close(&mut self, token: usize, conn: Conn, reason: Option<DisconnectReason>) {
        if let Some(reason) = reason {
            self.shared.note_disconnect(reason);
        }
        drop(conn); // closing the fd deregisters it from epoll
        self.free.push(token);
        self.shared.connection_closed();
    }
}

/// Writes as much of the pending response bytes as the socket will take.
/// `Err` means a fatal socket error (the connection should close).
fn flush_writes(conn: &mut Conn) -> Result<(), ()> {
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => break,
            Ok(wrote) => {
                conn.written += wrote;
                conn.last_activity = Instant::now();
                conn.stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if conn.stalled_since.is_none() {
                    conn.stalled_since = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
        conn.stalled_since = None;
    }
    Ok(())
}
