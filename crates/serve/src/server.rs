//! The `oasd-serve` server: a wire listener speaking the [`crate::proto`]
//! binary protocol and an ops listener speaking minimal HTTP/1.1, both
//! multiplexing onto one shared [`rl4oasd::IngestEngine`].
//!
//! Threading model (all `std::net` + `std::thread`, zero external deps):
//! one accept thread per listener; per wire connection a **reader**
//! thread (decodes request frames, performs opens/submits/closes against
//! the ingest handle, answers `Opened`/`Rejected` inline) and a **pump**
//! thread. The reader opens every session of the connection onto one
//! [`traj::LabelSink`]; the shard workers push labels, faults and close
//! results into it and wake the pump once per flush; the pump blocks on
//! that sink alone — no timer, no per-session sweep, zero wake-ups while
//! the connection is idle — encodes what it took into
//! `Label`/`Fault`/`Closed` frames and writes them in one `write_all`.
//! Both threads write through one mutex-held socket clone, each frame in
//! a single `write_all`, so frames never interleave mid-frame.
//!
//! Multi-tenancy: each `Open` frame names a tenant; the server enforces
//! per-tenant session quotas and maps the tenant id onto an engine
//! **scope** ([`traj::SessionEngine::open_scoped`]), so
//! [`Server::swap_tenant_model`] retargets one tenant's future sessions
//! without touching any other tenant — isolation is property-tested in
//! `tests/serve.rs`.

use crate::proto::{encode_frame, fault_code, Frame, FrameReader, WireError, MAX_FRAME, PREAMBLE};
use bytes::BytesMut;
use obs::{names, Obs, Stage};
use rl4oasd::{IngestEngine, IngestReport, StreamEngine, SwapModel, TrainedModel};
use rnet::{RoadNetwork, SegmentId};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use traj::{
    IngestConfig, IngestHandle, LabelSink, Priority, RetryPolicy, SdPair, SessionId, SinkConsumer,
    SinkEvent, SubmitError,
};

/// One tenant the server will admit: sessions opened under `id` count
/// against `max_sessions` and are pinned to the tenant's model scope.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id carried in `Open` frames (also the engine scope id).
    pub id: u32,
    /// Human-readable name, surfaced in `/stats`.
    pub name: String,
    /// Concurrent-session quota; `0` means unlimited.
    pub max_sessions: usize,
}

impl TenantSpec {
    /// An unlimited tenant.
    pub fn unlimited(id: u32, name: &str) -> TenantSpec {
        TenantSpec {
            id,
            name: name.to_string(),
            max_sessions: 0,
        }
    }
}

/// Server construction options.
pub struct ServerConfig {
    /// Shard count of the backing [`rl4oasd::IngestEngine`].
    pub shards: usize,
    /// Front-door tuning (flush policy, queue/outbox capacities,
    /// telemetry handle).
    pub ingest: IngestConfig,
    /// Admitted tenants. Empty (the default) runs **open admission**:
    /// any tenant id is accepted with an unlimited quota, auto-registered
    /// on first open — the right mode for single-tenant loopback use.
    pub tenants: Vec<TenantSpec>,
    /// Server-side retry policy for `QueueFull` on submits and opens.
    /// The lossless default (unbounded, jittered) makes the wire path
    /// accounting-identical to an in-process caller retrying forever;
    /// a bounded policy surfaces exhaustion as [`WireError::QueueFull`].
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            ingest: IngestConfig::default(),
            tenants: Vec::new(),
            retry: RetryPolicy::unbounded(0x0A5D_5EA5),
        }
    }
}

struct TenantState {
    name: String,
    /// Session quota; 0 = unlimited.
    max: usize,
    live: usize,
    opened: u64,
    quota_shed: u64,
    /// Model-epoch swap sequence the tenant's *next* open pins: `Some`
    /// once the tenant received a scoped swap, otherwise it follows the
    /// engine-wide current epoch.
    scoped_seq: Option<u32>,
    /// `{tenant}`-labelled counters, resolved once per tenant (inert
    /// when telemetry is off) so an open formats and looks up nothing.
    obs_opens: obs::Counter,
    obs_quota_shed: obs::Counter,
}

impl TenantState {
    fn new(id: u32, name: String, max: usize, obs: &Obs) -> TenantState {
        let id = id.to_string();
        let labels: &[(&str, &str)] = &[("tenant", &id)];
        TenantState {
            name,
            max,
            live: 0,
            opened: 0,
            quota_shed: 0,
            scoped_seq: None,
            obs_opens: obs.counter(names::SERVE_OPENS, labels),
            obs_quota_shed: obs.counter(names::SERVE_QUOTA_SHED, labels),
        }
    }
}

/// Tenant admission registry. Also the bookkeeping mirror of the
/// engine's epoch swap sequence: every install (engine-wide or scoped)
/// broadcast through this server increments `swap_counter`, matching the
/// per-shard `epoch_log` sequence numbering.
struct Tenants {
    inner: Mutex<TenantTable>,
    /// Open admission: unknown tenants are auto-registered (unlimited).
    open_admission: bool,
    obs: Obs,
}

struct TenantTable {
    tenants: HashMap<u32, TenantState>,
    /// Swap seq of the engine-wide current epoch (0 = construction).
    global_seq: u32,
    /// Total epochs ever installed (= the next install's seq).
    swap_counter: u32,
}

impl Tenants {
    fn new(specs: &[TenantSpec], obs: &Obs) -> Tenants {
        let tenants = specs
            .iter()
            .map(|s| {
                (
                    s.id,
                    TenantState::new(s.id, s.name.clone(), s.max_sessions, obs),
                )
            })
            .collect();
        Tenants {
            inner: Mutex::new(TenantTable {
                tenants,
                global_seq: 0,
                swap_counter: 0,
            }),
            open_admission: specs.is_empty(),
            obs: obs.clone(),
        }
    }

    /// An auto-registered (open-admission) tenant: unlimited quota.
    fn auto(&self, tenant: u32) -> TenantState {
        TenantState::new(tenant, format!("tenant-{tenant}"), 0, &self.obs)
    }

    /// Admits one open for `tenant`, charging its quota. Returns the
    /// epoch swap seq the session will pin and the tenant's opens
    /// counter, to be bumped once the door has accepted the open.
    fn admit(&self, tenant: u32) -> Result<(u32, obs::Counter), WireError> {
        let mut t = self.inner.lock().expect("tenant registry poisoned");
        let global_seq = t.global_seq;
        let state = match t.tenants.get_mut(&tenant) {
            Some(state) => state,
            None if self.open_admission => {
                t.tenants.entry(tenant).or_insert_with(|| self.auto(tenant))
            }
            None => return Err(WireError::UnknownTenant),
        };
        if state.max != 0 && state.live >= state.max {
            state.quota_shed += 1;
            state.obs_quota_shed.inc();
            return Err(WireError::QuotaExhausted);
        }
        state.live += 1;
        state.opened += 1;
        Ok((
            state.scoped_seq.unwrap_or(global_seq),
            state.obs_opens.clone(),
        ))
    }

    /// Returns one session of `tenant`'s quota.
    fn release(&self, tenant: u32) {
        let mut t = self.inner.lock().expect("tenant registry poisoned");
        if let Some(state) = t.tenants.get_mut(&tenant) {
            state.live = state.live.saturating_sub(1);
        }
    }

    /// Records an engine-wide swap; returns the new epoch's seq.
    fn record_global_swap(&self) -> u32 {
        let mut t = self.inner.lock().expect("tenant registry poisoned");
        t.swap_counter += 1;
        t.global_seq = t.swap_counter;
        t.global_seq
    }

    /// Records a scoped swap for `tenant`; returns the new epoch's seq.
    fn record_scoped_swap(&self, tenant: u32) -> u32 {
        let mut t = self.inner.lock().expect("tenant registry poisoned");
        t.swap_counter += 1;
        let seq = t.swap_counter;
        if self.open_admission {
            t.tenants.entry(tenant).or_insert_with(|| self.auto(tenant));
        }
        if let Some(state) = t.tenants.get_mut(&tenant) {
            state.scoped_seq = Some(seq);
        }
        seq
    }

    /// `/stats` rows: `(id, name, live, opened, quota_shed, max, seq)`.
    fn rows(&self) -> Vec<(u32, String, usize, u64, u64, usize, u32)> {
        let t = self.inner.lock().expect("tenant registry poisoned");
        let mut rows: Vec<_> = t
            .tenants
            .iter()
            .map(|(id, s)| {
                (
                    *id,
                    s.name.clone(),
                    s.live,
                    s.opened,
                    s.quota_shed,
                    s.max,
                    s.scoped_seq.unwrap_or(t.global_seq),
                )
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }
}

/// Pre-resolved hot-path telemetry handles (all no-ops when the server
/// runs with a disabled [`Obs`]).
struct ServeMetrics {
    connections: obs::Counter,
    frames_open: obs::Counter,
    frames_submit: obs::Counter,
    frames_close: obs::Counter,
    /// Times a pump came back from its sink with something to do.
    pump_wakeups: obs::Counter,
    /// `Label` frames written by pumps.
    label_frames: obs::Counter,
    /// Sink take → `write_all` returned, per pump wake-up.
    pump_write: obs::StageHandle,
}

impl ServeMetrics {
    fn resolve(obs: &Obs) -> ServeMetrics {
        ServeMetrics {
            connections: obs.counter(names::SERVE_CONNECTIONS, &[]),
            frames_open: obs.counter(names::SERVE_FRAMES, &[("op", "open")]),
            frames_submit: obs.counter(names::SERVE_FRAMES, &[("op", "submit")]),
            frames_close: obs.counter(names::SERVE_FRAMES, &[("op", "close")]),
            pump_wakeups: obs.counter(names::SERVE_PUMP_WAKEUPS, &[]),
            label_frames: obs.counter(names::SERVE_LABEL_FRAMES, &[]),
            pump_write: obs.stage(Stage::PumpWrite, 0),
        }
    }
}

pub(crate) struct Shared {
    stop: AtomicBool,
    handle: IngestHandle<StreamEngine>,
    tenants: Tenants,
    retry: RetryPolicy,
    num_segments: u32,
    obs: Obs,
    metrics: ServeMetrics,
    start: Instant,
    connections: AtomicU64,
    /// Clones of live connection sockets, for shutdown interrupts.
    conn_socks: Mutex<Vec<TcpStream>>,
    /// Connection (reader) + ops threads, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Models registered for the `/swap` ops trigger, by index.
    shelf: Mutex<Vec<Arc<TrainedModel>>>,
}

impl Shared {
    fn count_wire_error(&self, error: WireError) {
        // Errors are rare; resolving the labelled counter on demand is
        // fine (and free when telemetry is disabled).
        self.obs
            .counter(
                names::SERVE_WIRE_ERRORS,
                &[("error", &format!("{error:?}"))],
            )
            .inc();
    }
}

/// A running `oasd-serve` instance: wire + ops listeners over one ingest
/// engine. Dropping without [`Server::shutdown`] leaks the listener
/// threads; always shut down explicitly.
pub struct Server {
    engine: Option<IngestEngine>,
    shared: Arc<Shared>,
    wire_addr: SocketAddr,
    ops_addr: SocketAddr,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds both listeners on loopback (ephemeral ports) and starts
    /// serving `model` over `net` with `config`.
    pub fn start(
        model: Arc<TrainedModel>,
        net: Arc<RoadNetwork>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let ServerConfig {
            shards,
            ingest,
            tenants,
            retry,
        } = config;
        let obs = ingest.obs.clone();
        let num_segments = net.num_segments() as u32;
        let engine = IngestEngine::new(model, net, shards, ingest);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            handle: engine.handle(),
            tenants: Tenants::new(&tenants, &obs),
            retry,
            num_segments,
            metrics: ServeMetrics::resolve(&obs),
            obs,
            start: Instant::now(),
            connections: AtomicU64::new(0),
            conn_socks: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            shelf: Mutex::new(Vec::new()),
        });
        let wire = TcpListener::bind("127.0.0.1:0")?;
        let ops = TcpListener::bind("127.0.0.1:0")?;
        let wire_addr = wire.local_addr()?;
        let ops_addr = ops.local_addr()?;
        let accept_threads = vec![
            spawn_accept("serve-wire-accept", wire, Arc::clone(&shared), |sh, s| {
                serve_wire_conn(sh, s)
            }),
            spawn_accept("serve-ops-accept", ops, Arc::clone(&shared), |sh, s| {
                crate::http::serve_ops_conn(sh, s)
            }),
        ];
        Ok(Server {
            engine: Some(engine),
            shared,
            wire_addr,
            ops_addr,
            accept_threads,
        })
    }

    /// Address of the binary wire-protocol listener.
    pub fn wire_addr(&self) -> SocketAddr {
        self.wire_addr
    }

    /// Address of the HTTP ops listener.
    pub fn ops_addr(&self) -> SocketAddr {
        self.ops_addr
    }

    /// The engine's telemetry handle (disabled unless the server was
    /// started with an enabled [`IngestConfig::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// A producer handle onto the backing ingest engine — the same door
    /// the wire sessions go through.
    pub fn handle(&self) -> IngestHandle<StreamEngine> {
        self.shared.handle.clone()
    }

    /// Registers `model` on the swap shelf for the `/swap` ops trigger,
    /// returning its shelf index.
    pub fn add_shelf_model(&self, model: Arc<TrainedModel>) -> usize {
        let mut shelf = self.shared.shelf.lock().expect("model shelf poisoned");
        shelf.push(model);
        shelf.len() - 1
    }

    /// Engine-wide hot swap (every tenant without a scoped model follows
    /// it). Returns the new epoch's swap sequence number.
    pub fn swap_model(&self, model: Arc<TrainedModel>) -> Result<u32, SubmitError> {
        self.shared.handle.swap_model(model)?;
        Ok(self.shared.tenants.record_global_swap())
    }

    /// Hot-swaps the model for **one tenant only**: sessions the tenant
    /// opens after this run `model`; every other tenant — and the
    /// tenant's own already-open sessions — is untouched. Returns the
    /// new epoch's swap sequence number.
    pub fn swap_tenant_model(
        &self,
        tenant: u32,
        model: Arc<TrainedModel>,
    ) -> Result<u32, SubmitError> {
        self.shared.handle.swap_scope_model(tenant, model)?;
        Ok(self.shared.tenants.record_scoped_swap(tenant))
    }

    /// Stops accepting, interrupts every live connection (their sessions
    /// are closed into the engine first — no session is leaked), joins
    /// all serving threads, then drains and shuts down the engine.
    pub fn shutdown(mut self) -> IngestReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loops with one throwaway connection each.
        let _ = TcpStream::connect(self.wire_addr);
        let _ = TcpStream::connect(self.ops_addr);
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Interrupt live connections: readers see EOF, close their
        // sessions into the engine and exit.
        for sock in self
            .shared
            .conn_socks
            .lock()
            .expect("socket registry poisoned")
            .drain(..)
        {
            let _ = sock.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(
            &mut *self
                .shared
                .threads
                .lock()
                .expect("thread registry poisoned"),
        );
        for t in threads {
            let _ = t.join();
        }
        self.engine
            .take()
            .expect("engine taken only by shutdown")
            .shutdown()
    }
}

fn spawn_accept(
    name: &str,
    listener: TcpListener,
    shared: Arc<Shared>,
    serve: fn(Arc<Shared>, TcpStream),
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || loop {
            let conn = listener.accept();
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok((stream, _)) = conn else { continue };
            let shared2 = Arc::clone(&shared);
            let t = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || serve(shared2, stream))
                .expect("spawn connection thread");
            shared
                .threads
                .lock()
                .expect("thread registry poisoned")
                .push(t);
        })
        .expect("spawn accept thread")
}

/// Writes pre-encoded frames in one syscall; errors are ignored (the
/// peer may already be gone — bookkeeping must still complete).
fn write_frames(writer: &Mutex<TcpStream>, out: &mut BytesMut) {
    if out.is_empty() {
        return;
    }
    let mut w = writer.lock().expect("connection writer poisoned");
    let _ = w.write_all(out);
    out.clear();
}

/// A connection's label pump: blocks on the connection's sink, turns
/// each batch it takes into frames and writes them at once. `hangup` is
/// set (then the sink poked) by the reader when the connection is over,
/// to the number of closes it issued; the pump leaves once it has
/// answered that many — or the sink disconnected under it.
fn pump_loop(
    shared: Arc<Shared>,
    writer: Arc<Mutex<TcpStream>>,
    sink: SinkConsumer,
    hangup: Arc<OnceLock<u64>>,
) {
    let mut events = VecDeque::new();
    let mut out = BytesMut::new();
    let mut closed = 0u64;
    loop {
        let connected = sink.recv_into(&mut events);
        shared.metrics.pump_wakeups.inc();
        let span = shared.metrics.pump_write.start();
        let mut labels = 0u64;
        for event in events.drain(..) {
            let frame = match event {
                SinkEvent::Label { key, label } => {
                    labels += 1;
                    Frame::Label {
                        session: key,
                        label,
                    }
                }
                SinkEvent::Fault { key, fault } => Frame::Fault {
                    session: key,
                    fault: fault_code(fault),
                },
                SinkEvent::Closed { key, result } => {
                    closed += 1;
                    match result {
                        // The ticket's final labels are authoritative.
                        // MAX_FRAME bounds the label payload;
                        // trajectories are far shorter in practice.
                        Ok(mut labels) => {
                            labels.truncate(MAX_FRAME - 32);
                            Frame::Closed {
                                session: key,
                                labels,
                            }
                        }
                        Err(fault) => Frame::Fault {
                            session: key,
                            fault: fault_code(fault),
                        },
                    }
                }
            };
            encode_frame(&frame, &mut out);
        }
        shared.metrics.label_frames.add(labels);
        write_frames(&writer, &mut out);
        shared.metrics.pump_write.finish(span);
        if !connected || hangup.get().is_some_and(|&closes| closed >= closes) {
            return;
        }
    }
}

/// The reader's view of its connection.
struct Conn {
    /// cid → (engine session, tenant). Entries leave on close.
    sessions: HashMap<u64, (SessionId, u32)>,
    /// The sink every session of the connection is opened onto.
    sink: LabelSink,
    /// Closes the door accepted — what the pump must answer.
    closes: u64,
}

impl Conn {
    /// Closes a session (already off `sessions`) into the engine; its
    /// result reaches the client through the pump. The tenant's quota
    /// slot returns here: a close the door has taken is ahead, in the
    /// session's shard queue, of any open admitted after it.
    fn close(
        &mut self,
        shared: &Shared,
        cid: u64,
        sid: SessionId,
        tenant: u32,
    ) -> Result<(), SubmitError> {
        shared.tenants.release(tenant);
        // Closes retry `QueueFull` like submits do: a close racing a
        // full shard queue must not leak the session (and strand its
        // undelivered tail labels) just because the queue was busy.
        shared
            .retry
            .run(cid, || shared.handle.close_onto(&self.sink, cid, sid))
            .map(|()| self.closes += 1)
    }
}

/// One wire connection: preamble check, then request frames until
/// `Goodbye`, EOF, error or server shutdown.
fn serve_wire_conn(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if let Ok(clone) = stream.try_clone() {
        shared
            .conn_socks
            .lock()
            .expect("socket registry poisoned")
            .push(clone);
    }
    shared.connections.fetch_add(1, Ordering::Relaxed);
    shared.metrics.connections.inc();
    let writer = Arc::new(Mutex::new(write_half));
    let mut stream = stream;

    // Preamble: reject cross-protocol garbage with one typed error.
    let mut preamble = [0u8; 4];
    if stream.read_exact(&mut preamble).is_err() || preamble != PREAMBLE {
        let mut out = BytesMut::new();
        encode_frame(
            &Frame::Rejected {
                session: 0,
                error: WireError::Malformed,
            },
            &mut out,
        );
        shared.count_wire_error(WireError::Malformed);
        write_frames(&writer, &mut out);
        return;
    }

    let (sink, consumer) = shared.handle.label_sink();
    let hangup = Arc::new(OnceLock::new());
    let pump = {
        let shared = Arc::clone(&shared);
        let writer = Arc::clone(&writer);
        let hangup = Arc::clone(&hangup);
        std::thread::Builder::new()
            .name("serve-pump".to_string())
            .spawn(move || pump_loop(shared, writer, consumer, hangup))
            .expect("spawn label pump")
    };

    let mut conn = Conn {
        sessions: HashMap::new(),
        sink,
        closes: 0,
    };
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut out = BytesMut::new();
    let mut graceful = false;

    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break 'conn,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break 'conn,
        };
        reader.push(&buf[..n]);
        loop {
            let frame = match reader.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    encode_frame(
                        &Frame::Rejected {
                            session: 0,
                            error: WireError::Malformed,
                        },
                        &mut out,
                    );
                    shared.count_wire_error(WireError::Malformed);
                    write_frames(&writer, &mut out);
                    break 'conn;
                }
            };
            let is_open = matches!(frame, Frame::Open { .. });
            match handle_frame(&shared, frame, &mut conn, &mut out) {
                FrameOutcome::Continue => {}
                FrameOutcome::Goodbye => {
                    graceful = true;
                    break 'conn;
                }
                FrameOutcome::Protocol => {
                    write_frames(&writer, &mut out);
                    break 'conn;
                }
            }
            if is_open {
                // The pump answers a point tens of microseconds after it
                // is submitted: send `Opened` before the session's first
                // submit is even looked at, so it precedes every label.
                write_frames(&writer, &mut out);
            }
        }
        write_frames(&writer, &mut out);
    }

    // Close every session still open on this connection so engine state
    // and tenant quotas never leak, whatever way the connection ended.
    for (cid, (sid, tenant)) in std::mem::take(&mut conn.sessions) {
        let _ = conn.close(&shared, cid, sid, tenant);
    }
    let _ = hangup.set(conn.closes);
    conn.sink.wake();
    drop(conn);
    let _ = pump.join();
    if graceful {
        encode_frame(&Frame::Bye, &mut out);
        write_frames(&writer, &mut out);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

enum FrameOutcome {
    Continue,
    /// Clean `Goodbye`: close remaining sessions, answer `Bye`.
    Goodbye,
    /// Protocol violation (a response opcode from a client): drop the
    /// connection after flushing the error.
    Protocol,
}

fn handle_frame(
    shared: &Shared,
    frame: Frame,
    conn: &mut Conn,
    out: &mut BytesMut,
) -> FrameOutcome {
    match frame {
        Frame::Open {
            session: cid,
            tenant,
            source,
            dest,
            start_time,
            priority,
        } => {
            shared.metrics.frames_open.inc();
            let reject = |out: &mut BytesMut, error: WireError| {
                encode_frame(
                    &Frame::Rejected {
                        session: cid,
                        error,
                    },
                    out,
                );
                shared.count_wire_error(error);
            };
            if conn.sessions.contains_key(&cid) {
                reject(out, WireError::DuplicateSession);
                return FrameOutcome::Continue;
            }
            // Opens bypass the engine's per-event `admit` pre-screen, so
            // bounds-check the SD pair here: a garbage endpoint must be a
            // typed error, not a worker panic.
            if source >= shared.num_segments
                || dest >= shared.num_segments
                || !start_time.is_finite()
            {
                reject(out, WireError::Malformed);
                return FrameOutcome::Continue;
            }
            let (epoch_seq, opens) = match shared.tenants.admit(tenant) {
                Ok(admitted) => admitted,
                Err(e) => {
                    reject(out, e);
                    return FrameOutcome::Continue;
                }
            };
            let sd = SdPair {
                source: SegmentId(source),
                dest: SegmentId(dest),
            };
            let prio = if priority == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            // Retry QueueFull under the server policy (salted by cid);
            // Degraded/ShutDown are surfaced immediately.
            let opened = shared.retry.run(cid, || {
                shared
                    .handle
                    .open_onto(&conn.sink, cid, tenant, sd, start_time, prio)
            });
            match opened {
                Ok(sid) => {
                    conn.sessions.insert(cid, (sid, tenant));
                    opens.inc();
                    encode_frame(
                        &Frame::Opened {
                            session: cid,
                            epoch_seq,
                        },
                        out,
                    );
                }
                Err(e) => {
                    shared.tenants.release(tenant);
                    reject(out, e.into());
                }
            }
            FrameOutcome::Continue
        }
        Frame::Submit {
            session: cid,
            segment,
        } => {
            shared.metrics.frames_submit.inc();
            let Some(&(sid, _)) = conn.sessions.get(&cid) else {
                encode_frame(
                    &Frame::Rejected {
                        session: cid,
                        error: WireError::UnknownSession,
                    },
                    out,
                );
                shared.count_wire_error(WireError::UnknownSession);
                return FrameOutcome::Continue;
            };
            // Poison segments pass through: the engine's `admit`
            // pre-screen quarantines the session and the pump surfaces
            // the fault as a typed frame.
            if let Err(e) = shared
                .handle
                .submit_with_retry(sid, SegmentId(segment), &shared.retry)
            {
                let error = WireError::from(e);
                encode_frame(
                    &Frame::Rejected {
                        session: cid,
                        error,
                    },
                    out,
                );
                shared.count_wire_error(error);
            }
            FrameOutcome::Continue
        }
        Frame::Close { session: cid } => {
            shared.metrics.frames_close.inc();
            let Some((sid, tenant)) = conn.sessions.remove(&cid) else {
                encode_frame(
                    &Frame::Rejected {
                        session: cid,
                        error: WireError::UnknownSession,
                    },
                    out,
                );
                shared.count_wire_error(WireError::UnknownSession);
                return FrameOutcome::Continue;
            };
            if let Err(e) = conn.close(shared, cid, sid, tenant) {
                let error = WireError::from(e);
                encode_frame(
                    &Frame::Rejected {
                        session: cid,
                        error,
                    },
                    out,
                );
                shared.count_wire_error(error);
            }
            FrameOutcome::Continue
        }
        Frame::Goodbye => FrameOutcome::Goodbye,
        // A client sending response opcodes is off-protocol.
        Frame::Opened { .. }
        | Frame::Label { .. }
        | Frame::Closed { .. }
        | Frame::Rejected { .. }
        | Frame::Fault { .. }
        | Frame::Bye => {
            encode_frame(
                &Frame::Rejected {
                    session: 0,
                    error: WireError::Malformed,
                },
                out,
            );
            shared.count_wire_error(WireError::Malformed);
            FrameOutcome::Protocol
        }
    }
}

// Accessors for the ops (HTTP) surface, kept on Shared so `http.rs`
// stays free of serving internals.
impl Shared {
    pub(crate) fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    pub(crate) fn obs_handle(&self) -> &Obs {
        &self.obs
    }

    pub(crate) fn http_request(&self, path: &str) {
        self.obs
            .counter(names::SERVE_HTTP_REQUESTS, &[("path", path)])
            .inc();
    }

    /// `/stats` body (manual JSON: integers and escaped names only).
    pub(crate) fn stats_json(&self) -> String {
        let mut tenants = String::new();
        for (i, (id, name, live, opened, shed, max, seq)) in
            self.tenants.rows().into_iter().enumerate()
        {
            if i > 0 {
                tenants.push(',');
            }
            let name = name.replace('\\', "\\\\").replace('"', "\\\"");
            tenants.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{name}\",\"live_sessions\":{live},\
                 \"opened\":{opened},\"quota_shed\":{shed},\"max_sessions\":{max},\
                 \"epoch_seq\":{seq}}}"
            ));
        }
        format!(
            "{{\"uptime_secs\":{},\"connections\":{},\"shards\":{},\
             \"accepted_events\":{},\"rejected_events\":{},\"degraded\":{},\
             \"tenants\":[{tenants}]}}",
            self.start.elapsed().as_secs(),
            self.connections.load(Ordering::Relaxed),
            self.handle.num_shards(),
            self.handle.accepted_events(),
            self.handle.rejected_events(),
            self.handle.any_degraded(),
        )
    }

    /// `/swap` trigger: installs shelf model `model_idx` engine-wide or,
    /// with `Some(tenant)`, for that tenant only. `Ok` is the new swap
    /// seq.
    pub(crate) fn swap_from_shelf(
        &self,
        model_idx: usize,
        tenant: Option<u32>,
    ) -> Result<u32, String> {
        let model = {
            let shelf = self.shelf.lock().expect("model shelf poisoned");
            shelf
                .get(model_idx)
                .cloned()
                .ok_or_else(|| format!("no shelf model {model_idx}"))?
        };
        match tenant {
            Some(t) => self
                .handle
                .swap_scope_model(t, model)
                .map(|()| self.tenants.record_scoped_swap(t))
                .map_err(|e| e.to_string()),
            None => self
                .handle
                .swap_model(model)
                .map(|()| self.tenants.record_global_swap())
                .map_err(|e| e.to_string()),
        }
    }
}
