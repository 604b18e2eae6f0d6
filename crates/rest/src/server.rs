//! HTTP server with a bounded connection worker pool and a method+path
//! router.
//!
//! The reproduction's FastAPI: handlers register under `(method, path)`
//! where path segments may be `{param}` placeholders (`/jobs/{id}`).
//! Unmatched paths get 404, unmatched methods 405, panicking handlers
//! 500.
//!
//! ## Serving model
//!
//! Accepted connections are pushed onto a **bounded queue** drained by a
//! **fixed pool** of worker threads ([`ServerConfig::workers`]): at most
//! `workers` connections are served concurrently, and when both the pool
//! and the queue ([`ServerConfig::accept_backlog`]) are saturated the
//! accept loop itself blocks — backpressure lands in the listener's OS
//! backlog instead of an unbounded `thread::spawn` per connection.
//!
//! Each worker speaks **HTTP/1.1 keep-alive**: it serves requests off
//! one connection until the peer (or an explicit `Connection: close`)
//! ends it, the per-connection request cap is reached, or the idle
//! timeout expires — so a dashboard poll loop pays one TCP connect for
//! its whole session instead of one per poll.
//!
//! With a [`Registry`] attached ([`ServerConfig::metrics`]) the server
//! records per-route request counts, latency histograms, and status
//! counters, plus connection-level gauges; mount [`metrics_router`] to
//! expose them at `GET /metrics`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use datalens_health::{HealthGate, Verdict};
use datalens_obs::{labeled, Counter, Gauge, Registry};

use crate::http::{
    sse_comment, urldecode_segment, Body, HttpError, Method, Request, Response, StreamChunk,
    StreamSource, MAX_BODY,
};

/// Path parameters captured by `{param}` route segments.
pub type PathParams = BTreeMap<String, String>;

/// A request handler. The second argument holds the values captured by
/// the route's `{param}` segments (empty for literal routes).
pub type Handler = Arc<dyn Fn(&Request, &PathParams) -> Response + Send + Sync>;

/// One compiled route-pattern segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(String),
}

struct Route {
    method: Method,
    /// The pattern as registered (`/jobs/{id}`) — the low-cardinality
    /// label for per-route metrics.
    pattern: String,
    segments: Vec<Segment>,
    handler: Handler,
}

/// Route table builder.
#[derive(Default, Clone)]
pub struct Router {
    routes: Vec<Arc<Route>>,
}

fn compile(path: &str) -> Vec<Segment> {
    path.split('/')
        .filter(|s| !s.is_empty())
        .map(
            |s| match s.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
                Some(name) => Segment::Param(name.to_string()),
                None => Segment::Literal(s.to_string()),
            },
        )
        .collect()
}

/// Does pattern `a` beat pattern `b` for the same path? Literal segments
/// are more specific than `{param}` segments, compared left to right
/// (`/jobs/stats` beats `/jobs/{id}`). Equal specificity keeps the
/// earlier registration.
fn more_specific(a: &[Segment], b: &[Segment]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match (
            matches!(x, Segment::Literal(_)),
            matches!(y, Segment::Literal(_)),
        ) {
            (true, false) => return true,
            (false, true) => return false,
            _ => {}
        }
    }
    false
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Register a handler (builder style). `path` may contain `{param}`
    /// segments, captured into the handler's [`PathParams`].
    pub fn route(
        mut self,
        method: Method,
        path: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push(Arc::new(Route {
            method,
            pattern: path.to_string(),
            segments: compile(path),
            handler: Arc::new(handler),
        }));
        self
    }

    /// Append every route of `other`. Dispatch prefers the most specific
    /// matching pattern (literal over `{param}`), so merging routers
    /// with disjoint literal/param overlaps is order-independent.
    pub fn merge(mut self, other: Router) -> Router {
        self.routes.extend(other.routes);
        self
    }

    /// Match `segments` against a pattern, capturing parameters.
    fn matches(pattern: &[Segment], segments: &[&str]) -> Option<PathParams> {
        if pattern.len() != segments.len() {
            return None;
        }
        let mut params = PathParams::new();
        for (p, s) in pattern.iter().zip(segments) {
            match p {
                Segment::Literal(lit) if lit == s => {}
                Segment::Literal(_) => return None,
                Segment::Param(name) => {
                    params.insert(name.clone(), (*s).to_string());
                }
            }
        }
        Some(params)
    }

    /// Dispatch one request. The route lookup borrows `req.path` — the
    /// request is never cloned.
    pub fn dispatch(&self, req: &Request) -> Response {
        self.dispatch_traced(req).0
    }

    /// [`Router::dispatch`] that also reports which route pattern
    /// handled the request (`None` for 404/405), for per-route metrics.
    pub fn dispatch_traced(&self, req: &Request) -> (Response, Option<String>) {
        // Percent-decode each path segment *before* matching, so
        // `POST /sessions/my%20session/jobs` matches `{id}` with the
        // decoded id (`split_query` leaves the path verbatim). Decoding
        // per segment — after splitting — means an encoded `%2F` stays
        // inside its segment and cannot change the route arity.
        let decoded: Vec<String> = req
            .path
            .split('/')
            .filter(|s| !s.is_empty())
            .map(urldecode_segment)
            .collect();
        let segments: Vec<&str> = decoded.iter().map(String::as_str).collect();
        let mut path_matched = false;
        // Most-specific match wins: a literal route is never shadowed by
        // a `{param}` route registered (or merged in) before it.
        let mut best: Option<(&Route, PathParams)> = None;
        for route in &self.routes {
            let Some(params) = Router::matches(&route.segments, &segments) else {
                continue;
            };
            if route.method != req.method {
                path_matched = true;
                continue;
            }
            match &best {
                Some((incumbent, _)) if !more_specific(&route.segments, &incumbent.segments) => {}
                _ => best = Some((route, params)),
            }
        }
        if let Some((route, params)) = best {
            // Contain handler panics to a 500 for this request.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (route.handler)(req, &params)
            }));
            let resp = match outcome {
                Ok(resp) => resp,
                Err(_) => Response::error(500, "handler panicked"),
            };
            return (resp, Some(route.pattern.clone()));
        }
        if path_matched {
            (Response::error(405, "method not allowed"), None)
        } else {
            (Response::error(404, "no such route"), None)
        }
    }
}

/// Per-listener limits, timeouts, pool sizing, and instrumentation.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Read timeout while parsing a request (a stalled client cannot pin
    /// a pool worker forever).
    pub read_timeout: Option<Duration>,
    /// Deadline for each *write* of a buffered response, armed
    /// immediately before the response is serialised — not a blanket
    /// socket option set at accept time, which would also kill
    /// legitimately long-lived streaming responses. Streams use
    /// [`ServerConfig::stream_write_timeout`] instead.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently open streaming responses (the SSE lane).
    /// A stream request beyond the cap is answered `429` so streams can
    /// never exhaust connection capacity for request/response traffic.
    pub max_streams: usize,
    /// Interval between `:` heartbeat comments on an idle stream. The
    /// heartbeat doubles as disconnect detection: writing to a closed
    /// peer fails, which reaps the stream and frees its lane slot.
    pub heartbeat_interval: Option<Duration>,
    /// Per-chunk write deadline on streaming responses: a consumer that
    /// stops reading long enough to stall one chunk write (slow-loris)
    /// is reaped, while any number of timely chunks may span an
    /// arbitrarily long wall-clock window.
    pub stream_write_timeout: Option<Duration>,
    /// Largest accepted request body; bigger declared `Content-Length`s
    /// are rejected with 413 before any buffering.
    pub max_body: usize,
    /// Connection worker-pool size: the hard bound on concurrently
    /// served connections (≥ 1).
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before the
    /// accept loop blocks (backpressure into the OS listen backlog).
    pub accept_backlog: usize,
    /// Requests served on one keep-alive connection before the server
    /// closes it (guards a worker against a monopolizing client).
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle between requests.
    ///
    /// `None` disables keep-alive idling entirely: the server answers
    /// with `Connection: close` and closes after each response, rather
    /// than pinning a pool worker on an idle socket for the full
    /// [`ServerConfig::read_timeout`].
    pub keep_alive_timeout: Option<Duration>,
    /// Metrics registry for per-route and connection instrumentation.
    pub metrics: Option<Arc<Registry>>,
    /// Health gate for admission control. When set, the streaming lane
    /// publishes its occupancy to the gate, and while the gate holds,
    /// new stream subscriptions are refused with `429` + `Retry-After`
    /// (existing streams keep draining).
    pub health_gate: Option<Arc<HealthGate>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_streams: 32,
            heartbeat_interval: Some(Duration::from_secs(10)),
            stream_write_timeout: Some(Duration::from_secs(10)),
            max_body: MAX_BODY,
            workers: 8,
            accept_backlog: 32,
            max_requests_per_conn: 1_000,
            keep_alive_timeout: Some(Duration::from_secs(5)),
            metrics: None,
            health_gate: None,
        }
    }
}

/// The bounded hand-off between the accept loop and the worker pool.
struct ConnQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    capacity: usize,
    stop: AtomicBool,
    /// Workers wait here for connections.
    ready: Condvar,
    /// The accept loop waits here for queue space.
    space: Condvar,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        let capacity = capacity.max(1);
        ConnQueue {
            conns: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            stop: AtomicBool::new(false),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Block until there is room, then enqueue. Returns `false` when the
    /// server is stopping.
    fn push(&self, stream: TcpStream) -> bool {
        let mut q = self.conns.lock();
        while q.len() >= self.capacity {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            self.space.wait(&mut q);
        }
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// Block until a connection is available; `None` when stopping.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.conns.lock();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(stream) = q.pop_front() {
                drop(q);
                self.space.notify_one();
                return Some(stream);
            }
            self.ready.wait(&mut q);
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut q = self.conns.lock();
        q.clear(); // drop queued, never-served connections
        drop(q);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// The streaming lane: accounting and lifecycle for long-lived
/// streaming responses, kept separate from the request/response worker
/// pool so open streams can never starve normal traffic.
///
/// A pool worker that dispatches a [`Body::Stream`] response *hands the
/// connection off* to a dedicated pump thread and immediately returns
/// to serving queued connections; the lane caps how many pump threads
/// may exist at once ([`ServerConfig::max_streams`]) and answers `429`
/// beyond the cap.
struct StreamLane {
    active: AtomicUsize,
    max: usize,
    stop: AtomicBool,
    /// Pump threads, joined at shutdown. Finished handles are swept on
    /// each spawn so the list stays proportional to open streams.
    pumps: Mutex<Vec<JoinHandle<()>>>,
    /// (`sse_streams_active`, `sse_events_sent_total`,
    /// `sse_disconnects_total`) — registered eagerly so the dashboard
    /// renders them as 0 before the first stream opens.
    metrics: Option<(Arc<Gauge>, Arc<Counter>, Arc<Counter>)>,
    /// Health gate fed with lane occupancy on every acquire/release, so
    /// `stream_lane_saturated` reflects the live subscription count.
    gate: Option<Arc<HealthGate>>,
}

impl StreamLane {
    fn new(max: usize, registry: Option<&Registry>, gate: Option<Arc<HealthGate>>) -> StreamLane {
        let lane = StreamLane {
            active: AtomicUsize::new(0),
            max: max.max(1),
            stop: AtomicBool::new(false),
            pumps: Mutex::new(Vec::with_capacity(max.max(1))),
            metrics: registry.map(|m| {
                (
                    m.gauge("sse_streams_active"),
                    m.counter("sse_events_sent_total"),
                    m.counter("sse_disconnects_total"),
                )
            }),
            gate,
        };
        lane.publish_gate();
        lane
    }

    /// Push the lane's occupancy into the health gate and re-evaluate.
    fn publish_gate(&self) {
        if let Some(gate) = &self.gate {
            gate.set_streams(self.active.load(Ordering::SeqCst) as u64, self.max as u64);
            gate.evaluate();
        }
    }

    /// Claim a stream slot; `false` when the lane is full (→ 429).
    fn try_acquire(&self) -> bool {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= self.max {
                return false;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    if let Some((gauge, _, _)) = &self.metrics {
                        gauge.add(1);
                    }
                    self.publish_gate();
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Release a slot claimed by [`StreamLane::try_acquire`].
    fn release(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        if let Some((gauge, _, _)) = &self.metrics {
            gauge.sub(1);
        }
        self.publish_gate();
    }

    /// Hand a connection whose stream head is already written to a pump
    /// thread. Consumes the acquired slot (released when the pump
    /// ends, or immediately if the spawn fails).
    fn spawn_pump(
        self: &Arc<Self>,
        stream: TcpStream,
        source: Box<dyn StreamSource>,
        config: &ServerConfig,
    ) {
        let lane = Arc::clone(self);
        let heartbeat = config.heartbeat_interval;
        let write_timeout = config.stream_write_timeout;
        let spawned = std::thread::Builder::new()
            .name("datalens-http-stream".into())
            .spawn(move || pump_stream(&lane, stream, source, heartbeat, write_timeout));
        match spawned {
            Ok(handle) => {
                let mut pumps = self.pumps.lock();
                pumps.retain(|h| !h.is_finished());
                pumps.push(handle);
            }
            Err(_) => {
                // Could not spawn: the dropped closure closes the
                // connection and unsubscribes the source; give the
                // slot back here.
                self.release();
            }
        }
    }

    /// Stop all pump loops and join their threads.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.pumps.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Drive one streaming response to completion: pull chunks from
/// `source`, write each with its own deadline, heartbeat while idle,
/// and tear the connection down when the source ends, the peer
/// disconnects, or the server stops.
///
/// Dropping `source` on every exit path is what unsubscribes the
/// stream from its broadcast (sources release registrations in
/// `Drop`), so a mid-stream client disconnect frees both the lane slot
/// and the producer-side subscription.
fn pump_stream(
    lane: &StreamLane,
    stream: TcpStream,
    mut source: Box<dyn StreamSource>,
    heartbeat: Option<Duration>,
    write_timeout: Option<Duration>,
) {
    const POLL: Duration = Duration::from_millis(50);
    let mut last_write = Instant::now();
    loop {
        if lane.stop.load(Ordering::SeqCst) {
            break;
        }
        match source.next_chunk(POLL) {
            StreamChunk::Data(bytes) => {
                let _ = stream.set_write_timeout(write_timeout);
                let mut w = &stream;
                if w.write_all(&bytes).and_then(|()| w.flush()).is_err() {
                    if let Some((_, _, disconnects)) = &lane.metrics {
                        disconnects.inc();
                    }
                    break;
                }
                if let Some((_, sent, _)) = &lane.metrics {
                    sent.inc();
                }
                last_write = Instant::now();
            }
            StreamChunk::Pending => {
                let Some(interval) = heartbeat else { continue };
                if last_write.elapsed() < interval {
                    continue;
                }
                let _ = stream.set_write_timeout(write_timeout);
                let mut w = &stream;
                if w.write_all(&sse_comment("hb"))
                    .and_then(|()| w.flush())
                    .is_err()
                {
                    if let Some((_, _, disconnects)) = &lane.metrics {
                        disconnects.inc();
                    }
                    break;
                }
                last_write = Instant::now();
            }
            StreamChunk::End => break,
        }
    }
    drop(source); // unsubscribe before the slot is released
    lane.release();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop and the worker pool.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<ConnQueue>,
    lane: Arc<StreamLane>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to 127.0.0.1 on an ephemeral port and start serving with the
    /// default limits.
    pub fn start(router: Router) -> Result<Server, HttpError> {
        Server::start_with(router, ServerConfig::default())
    }

    /// [`Server::start`] with explicit limits and timeouts.
    pub fn start_with(router: Router, config: ServerConfig) -> Result<Server, HttpError> {
        Server::start_on("127.0.0.1:0", router, config)
    }

    /// Bind to an explicit address (`"127.0.0.1:8080"`); port 0 picks an
    /// ephemeral port.
    pub fn start_on(addr: &str, router: Router, config: ServerConfig) -> Result<Server, HttpError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(ConnQueue::new(config.accept_backlog));
        let lane = Arc::new(StreamLane::new(
            config.max_streams,
            config.metrics.as_deref(),
            config.health_gate.clone(),
        ));
        let router = Arc::new(router);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_queue = Arc::clone(&queue);
            let worker_lane = Arc::clone(&lane);
            let router = Arc::clone(&router);
            let config = config.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("datalens-http-{i}"))
                .spawn(move || {
                    while let Some(stream) = worker_queue.pop() {
                        serve_connection(
                            stream,
                            &router,
                            &config,
                            &worker_lane,
                            &worker_queue.stop,
                        );
                    }
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Wind down the partial pool before reporting.
                    queue.shutdown();
                    for t in workers {
                        let _ = t.join();
                    }
                    return Err(HttpError::Io(e));
                }
            }
        }

        let accept_queue = Arc::clone(&queue);
        let accepted = config
            .metrics
            .as_ref()
            .map(|m| m.counter("http_connections_total"));
        let spawned = std::thread::Builder::new()
            .name("datalens-http-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_queue.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Some(c) = &accepted {
                        c.inc();
                    }
                    if !accept_queue.push(stream) {
                        break;
                    }
                }
            });
        let accept_thread = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                queue.shutdown();
                for t in workers {
                    let _ = t.join();
                }
                return Err(HttpError::Io(e));
            }
        };

        Ok(Server {
            addr,
            queue,
            lane,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and wind down the worker pool. Workers
    /// finish the request they are writing; idle keep-alive connections
    /// are closed at their next read timeout.
    pub fn shutdown(&mut self) {
        if self.queue.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.shutdown();
        // Kick the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Stop stream pumps last: they run outside the worker pool.
        self.lane.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection until the peer closes, keep-alive is exhausted,
/// or the server stops.
/// Serve requests off one connection until the client closes, a
/// protocol error occurs, or the per-connection limits are hit.
///
/// TCP_NODELAY is set once up front: a keep-alive exchange is a
/// ping-pong of small writes, and Nagle batching against the peer's
/// delayed ACKs would add ~40 ms to every round trip.
fn serve_connection(
    stream: TcpStream,
    router: &Router,
    config: &ServerConfig,
    lane: &Arc<StreamLane>,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let active = config
        .metrics
        .as_ref()
        .map(|m| m.gauge("http_connections_active"));
    if let Some(g) = &active {
        g.add(1);
    }
    let mut reader = BufReader::new(read_half);
    let mut served = 0usize;
    loop {
        // The first request gets the full read timeout; between requests
        // the (typically shorter) keep-alive idle timeout applies.
        // `keep_alive_timeout: None` never reaches a second iteration —
        // `keep` below forces `Connection: close` after each response.
        let timeout = if served == 0 {
            config.read_timeout
        } else {
            config.keep_alive_timeout
        };
        let _ = stream.set_read_timeout(timeout);
        // Wait for the request's first byte before starting the clock:
        // `http_request_ms` measures the request, not keep-alive idle
        // time before it.
        match reader.fill_buf() {
            Ok([]) => break, // clean close between requests
            Ok(_) => {}
            Err(_) => break, // idle timeout / reset
        }
        let started = Instant::now();
        let (mut response, keep_alive) =
            match Request::read_from_buffered(&mut reader, config.max_body) {
                Ok(None) => break, // clean close between requests
                Ok(Some(req)) => {
                    served += 1;
                    let keep = req.wants_keep_alive()
                        && served < config.max_requests_per_conn
                        && config.keep_alive_timeout.is_some()
                        && !stop.load(Ordering::SeqCst);
                    let (resp, route) = router.dispatch_traced(&req);
                    record_request(config, &req, route.as_deref(), &resp, started);
                    (resp, keep)
                }
                Err(HttpError::BodyTooLarge(_)) => (Response::error(413, "body too large"), false),
                Err(HttpError::Malformed(m)) => (Response::error(400, &m), false),
                Err(HttpError::Io(_)) => break, // timeout / reset mid-read
            };
        if response.body.is_stream() {
            // Admission control: while the health gate holds, the lane
            // refuses *new* subscriptions so existing streams can drain
            // — shed before a slot is even attempted.
            let held = config
                .health_gate
                .as_ref()
                .filter(|g| g.verdict() == Verdict::Hold);
            if let Some(gate) = held {
                response = Response::error(429, "service under load: new streams refused")
                    .with_retry_after(gate.retry_after_secs());
            } else if lane.try_acquire() {
                // Hand the connection off to a pump thread and return
                // this worker to the pool: a long-lived stream must
                // never occupy a request/response worker slot. The
                // connection gauge drops here — `sse_streams_active`
                // accounts for it from now on.
                if let Some(g) = &active {
                    g.sub(1);
                }
                let _ = stream.set_write_timeout(config.stream_write_timeout);
                if response.write_stream_head(&stream).is_err() {
                    lane.release();
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                match response.body {
                    Body::Stream(stream_body) => {
                        lane.spawn_pump(stream, stream_body.source, config);
                    }
                    // Unreachable (is_stream() held above); close out
                    // rather than panicking an HTTP worker.
                    Body::Bytes(_) => {
                        lane.release();
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    }
                }
                return;
            } else {
                // Lane full: fail *this request* but keep the connection
                // usable — normal traffic must not be collateral damage.
                // The Retry-After hint comes from the gate's drain-rate
                // estimate when one is attached (floor 1s otherwise).
                let retry = config
                    .health_gate
                    .as_ref()
                    .map(|g| g.retry_after_secs())
                    .unwrap_or(1);
                response =
                    Response::error(429, "too many concurrent streams").with_retry_after(retry);
            }
        }
        // Per-write deadline, scoped to this response. (A blanket
        // accept-time timeout would also cover stream chunks written
        // long after accept; streams arm their own deadline per chunk.)
        let _ = stream.set_write_timeout(config.write_timeout);
        if response.write_to_conn(&stream, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
    if let Some(g) = &active {
        g.sub(1);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn record_request(
    config: &ServerConfig,
    req: &Request,
    route: Option<&str>,
    resp: &Response,
    started: Instant,
) {
    let Some(metrics) = &config.metrics else {
        return;
    };
    let route = route.unwrap_or("unmatched");
    metrics
        .counter(&labeled(
            "http_requests_total",
            &[
                ("route", route),
                ("method", req.method.as_str()),
                ("status", &resp.status.to_string()),
            ],
        ))
        .inc();
    metrics
        .latency_histogram(&labeled("http_request_ms", &[("route", route)]))
        .observe(started.elapsed().as_secs_f64() * 1e3);
}

/// A router exposing `registry` at `GET /metrics`: JSON by default, the
/// Prometheus text exposition format with `?format=prometheus` (or an
/// `Accept: text/plain` header). Merge it onto the service router.
pub fn metrics_router(registry: Arc<Registry>) -> Router {
    Router::new().route(Method::Get, "/metrics", move |req, _| {
        let wants_text = req.query.get("format").is_some_and(|f| {
            f.eq_ignore_ascii_case("prometheus") || f.eq_ignore_ascii_case("text")
        }) || req
            .headers
            .get("accept")
            .is_some_and(|a| a.contains("text/plain"));
        if wants_text {
            let mut resp = Response::new(200, registry.to_prometheus().into_bytes());
            resp.headers
                .insert("content-type".into(), "text/plain; version=0.0.4".into());
            resp
        } else {
            Response::json(&registry.to_json())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn demo_router() -> Router {
        Router::new()
            .route(Method::Get, "/ping", |_, _| {
                Response::json(&serde_json::json!({"pong": true}))
            })
            .route(Method::Post, "/echo", |req, _| {
                Response::new(200, req.body.clone())
            })
            .route(Method::Get, "/boom", |_, _| panic!("kaboom"))
            .route(Method::Put, "/query", |req, _| {
                Response::json(&serde_json::json!({"q": req.query.get("x")}))
            })
            .route(Method::Get, "/jobs/{id}", |_, params| {
                Response::json(&serde_json::json!({"job": params["id"]}))
            })
            .route(Method::Delete, "/jobs/{id}", |_, params| {
                Response::json(&serde_json::json!({"cancelled": params["id"]}))
            })
            .route(Method::Get, "/jobs/{id}/result", |_, params| {
                Response::json(&serde_json::json!({"result_for": params["id"]}))
            })
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let r = client.get("/ping").unwrap();
        assert_eq!(r.status, 200);
        let v: serde_json::Value = r.json_body().unwrap();
        assert_eq!(v["pong"], true);

        let r = client.post("/echo", b"hello".to_vec()).unwrap();
        assert_eq!(r.body_bytes(), b"hello");
    }

    #[test]
    fn unknown_route_is_404_wrong_method_is_405() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        assert_eq!(client.get("/nope").unwrap().status, 404);
        assert_eq!(client.post("/ping", Vec::new()).unwrap().status, 405);
    }

    #[test]
    fn path_parameters_are_captured() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let v: serde_json::Value = client.get("/jobs/42").unwrap().json_body().unwrap();
        assert_eq!(v["job"], "42");
        let v: serde_json::Value = client.get("/jobs/42/result").unwrap().json_body().unwrap();
        assert_eq!(v["result_for"], "42");
        let r = client.delete("/jobs/abc").unwrap();
        let v: serde_json::Value = r.json_body().unwrap();
        assert_eq!(v["cancelled"], "abc");
        // Wrong arity does not match the parameterised route.
        assert_eq!(client.get("/jobs").unwrap().status, 404);
        assert_eq!(client.get("/jobs/1/2/3").unwrap().status, 404);
        // Matching path, unregistered method → 405.
        assert_eq!(client.post("/jobs/42", Vec::new()).unwrap().status, 405);
    }

    #[test]
    fn literal_routes_beat_param_routes_regardless_of_order() {
        // Regression: `/jobs/{id}` registered first used to permanently
        // shadow `/jobs/stats`.
        let router = Router::new()
            .route(Method::Get, "/jobs/{id}", |_, params| {
                Response::json(&serde_json::json!({"job": params["id"]}))
            })
            .route(Method::Get, "/jobs/stats", |_, _| {
                Response::json(&serde_json::json!({"stats": true}))
            });
        let server = Server::start(router).unwrap();
        let client = Client::new(server.addr());
        let v: serde_json::Value = client.get("/jobs/stats").unwrap().json_body().unwrap();
        assert_eq!(v["stats"], true);
        let v: serde_json::Value = client.get("/jobs/7").unwrap().json_body().unwrap();
        assert_eq!(v["job"], "7");
    }

    #[test]
    fn merge_is_order_independent_for_literal_param_overlaps() {
        let param = Router::new().route(Method::Get, "/jobs/{id}", |_, params| {
            Response::json(&serde_json::json!({"job": params["id"]}))
        });
        let literal = Router::new().route(Method::Get, "/jobs/stats", |_, _| {
            Response::json(&serde_json::json!({"stats": true}))
        });
        for router in [param.clone().merge(literal.clone()), literal.merge(param)] {
            let req = Request::new(Method::Get, "/jobs/stats", Vec::new());
            let (resp, route) = router.dispatch_traced(&req);
            let v: serde_json::Value = resp.json_body().unwrap();
            assert_eq!(v["stats"], true);
            assert_eq!(route.as_deref(), Some("/jobs/stats"));
        }
    }

    #[test]
    fn deeper_literal_prefix_wins_at_first_divergence() {
        let router = Router::new()
            .route(Method::Get, "/a/{x}/c", |_, _| {
                Response::json(&serde_json::json!({"which": "param-first"}))
            })
            .route(Method::Get, "/a/b/{y}", |_, _| {
                Response::json(&serde_json::json!({"which": "literal-first"}))
            });
        let req = Request::new(Method::Get, "/a/b/c", Vec::new());
        let v: serde_json::Value = router.dispatch(&req).json_body().unwrap();
        assert_eq!(v["which"], "literal-first");
    }

    #[test]
    fn path_segments_are_percent_decoded_before_matching() {
        // Regression: `/sessions/my%20session/jobs` used to reach the
        // handler with the literal encoded id.
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let v: serde_json::Value = client.get("/jobs/my%20job").unwrap().json_body().unwrap();
        assert_eq!(v["job"], "my job");
        // An encoded slash stays inside its segment: still arity 2, one
        // param containing a literal `/` — it cannot splice into the
        // three-segment `/jobs/{id}/result` route.
        let v: serde_json::Value = client.get("/jobs/a%2Fb").unwrap().json_body().unwrap();
        assert_eq!(v["job"], "a/b");
        // Literal segments match their decoded form too.
        let v: serde_json::Value = client.get("/%6Aobs/7").unwrap().json_body().unwrap();
        assert_eq!(v["job"], "7");
    }

    #[test]
    fn handler_panic_becomes_500() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let r = client.get("/boom").unwrap();
        assert_eq!(r.status, 500);
    }

    #[test]
    fn query_parameters_reach_handlers() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let r = client.put("/query?x=a%20b", Vec::new()).unwrap();
        let v: serde_json::Value = r.json_body().unwrap();
        assert_eq!(v["q"], "a b");
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = Server::start(demo_router()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = Client::new(addr);
                    let body = format!("msg-{i}").into_bytes();
                    let r = client.post("/echo", body.clone()).unwrap();
                    assert_eq!(r.body_bytes(), body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn body_cap_is_enforced_per_server() {
        let server = Server::start_with(
            demo_router(),
            ServerConfig {
                max_body: 8,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = Client::new(server.addr());
        let r = client.post("/echo", vec![b'x'; 64]).unwrap();
        assert_eq!(r.status, 413);
        let r = client.post("/echo", b"tiny".to_vec()).unwrap();
        assert_eq!(r.status, 200);
    }

    #[test]
    fn merged_routers_serve_both_route_sets() {
        let extra = Router::new().route(Method::Get, "/extra", |_, _| {
            Response::json(&serde_json::json!({"extra": true}))
        });
        let server = Server::start(demo_router().merge(extra)).unwrap();
        let client = Client::new(server.addr());
        assert_eq!(client.get("/ping").unwrap().status, 200);
        assert_eq!(client.get("/extra").unwrap().status, 200);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = Server::start(demo_router()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // After shutdown, requests fail (connection refused or reset).
        let client = Client::new(addr);
        assert!(client.get("/ping").is_err());
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        let server = Server::start(demo_router()).unwrap();
        let client = Client::new(server.addr());
        let mut conn = client.connect().unwrap();
        for i in 0..10 {
            let body = format!("round-{i}").into_bytes();
            let r = conn.post("/echo", body.clone()).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body_bytes(), body);
            assert_eq!(
                r.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
        }
        drop(conn);
    }

    #[test]
    fn request_cap_closes_keep_alive_connections() {
        let server = Server::start_with(
            demo_router(),
            ServerConfig {
                max_requests_per_conn: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = Client::new(server.addr());
        let mut conn = client.connect().unwrap();
        for _ in 0..2 {
            let r = conn.get("/ping").unwrap();
            assert_eq!(
                r.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
        }
        // The capped request is answered but the server closes after it.
        let r = conn.get("/ping").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            r.headers.get("connection").map(String::as_str),
            Some("close")
        );
        assert!(conn.get("/ping").is_err());
    }

    #[test]
    fn connection_close_is_honored() {
        let server = Server::start(demo_router()).unwrap();
        // The plain client sends `connection: close` on every request.
        let client = Client::new(server.addr());
        let r = client.get("/ping").unwrap();
        assert_eq!(
            r.headers.get("connection").map(String::as_str),
            Some("close")
        );
    }

    #[test]
    fn malformed_content_length_is_answered_400_and_closed() {
        let server = Server::start(demo_router()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        (&stream)
            .write_all(b"POST /echo HTTP/1.1\r\ncontent-length: -5\r\n\r\n")
            .unwrap();
        let resp = Response::read_from(&stream).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(
            resp.headers.get("connection").map(String::as_str),
            Some("close")
        );
    }

    #[test]
    fn pool_bounds_concurrent_connections() {
        use std::sync::atomic::AtomicUsize;

        // Every handler parks long enough that all in-flight requests
        // overlap; the observed high-water mark of concurrently running
        // handlers must not exceed the pool size.
        let in_flight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let (inf, hw) = (Arc::clone(&in_flight), Arc::clone(&high_water));
        let router = Router::new().route(Method::Get, "/slow", move |_, _| {
            let now = inf.fetch_add(1, Ordering::SeqCst) + 1;
            hw.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            inf.fetch_sub(1, Ordering::SeqCst);
            Response::json(&serde_json::json!({"ok": true}))
        });
        let workers = 3;
        let server = Server::start_with(
            router,
            ServerConfig {
                workers,
                accept_backlog: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..16)
            .map(|_| {
                std::thread::spawn(move || {
                    let r = Client::new(addr).get("/slow").unwrap();
                    assert_eq!(r.status, 200);
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(
            high_water.load(Ordering::SeqCst) <= workers,
            "high-water {} exceeded pool of {workers}",
            high_water.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn per_route_metrics_are_recorded() {
        let registry = Arc::new(Registry::new());
        let server = Server::start_with(
            demo_router().merge(metrics_router(Arc::clone(&registry))),
            ServerConfig {
                metrics: Some(Arc::clone(&registry)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = Client::new(server.addr());
        client.get("/ping").unwrap();
        client.get("/ping").unwrap();
        client.get("/jobs/9").unwrap();
        client.get("/definitely-not-a-route").unwrap();

        let v: serde_json::Value = client.get("/metrics").unwrap().json_body().unwrap();
        let c = &v["counters"];
        assert_eq!(
            c["http_requests_total{route=\"/ping\",method=\"GET\",status=\"200\"}"],
            2
        );
        assert_eq!(
            c["http_requests_total{route=\"/jobs/{id}\",method=\"GET\",status=\"200\"}"],
            1
        );
        assert_eq!(
            c["http_requests_total{route=\"unmatched\",method=\"GET\",status=\"404\"}"],
            1
        );
        let h = &v["histograms"]["http_request_ms{route=\"/ping\"}"];
        assert_eq!(h["count"], 2);

        // Prometheus rendering of the same registry.
        let r = client.get("/metrics?format=prometheus").unwrap();
        let text = String::from_utf8(r.body_bytes().to_vec()).unwrap();
        assert!(text.contains("# TYPE http_requests_total counter"));
        assert!(text.contains("http_request_ms_bucket{route=\"/ping\",le=\"+Inf\"}"));
    }

    #[test]
    fn request_timer_excludes_keep_alive_idle_time() {
        // Regression: the clock used to start before the blocking read
        // for the next request, so idle time between two requests on a
        // keep-alive connection was billed to the second one.
        let registry = Arc::new(Registry::new());
        let server = Server::start_with(
            demo_router(),
            ServerConfig {
                metrics: Some(Arc::clone(&registry)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut conn = Client::new(server.addr()).connect().unwrap();
        conn.get("/ping").unwrap();
        std::thread::sleep(Duration::from_millis(300));
        conn.get("/ping").unwrap();
        let h = registry.latency_histogram(&labeled("http_request_ms", &[("route", "/ping")]));
        assert_eq!(h.count(), 2);
        assert!(h.sum() < 100.0, "idle time counted: {} ms", h.sum());
    }
}
