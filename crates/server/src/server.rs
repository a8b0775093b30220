//! The TCP server: a blocking thread-per-connection front-end over a shared
//! [`PathService`].
//!
//! Each accepted connection performs the protocol handshake and then splits into a
//! *reader* and a *writer* thread joined by a bounded channel:
//!
//! * the reader decodes statement frames, parses them, and admits them into the
//!   service through the **fallible** surface ([`PathService::try_submit_spec`] /
//!   [`PathService::try_update`]) — every refusal becomes an error *frame*, never a
//!   panic inside the serving process;
//! * the writer waits on the admitted handles in request order and streams the
//!   response frames, so responses per connection are FIFO with their requests.
//!
//! The channel's bound is the per-connection in-flight window: once that many requests
//! are admitted but unanswered, the reader blocks and TCP backpressure pushes back on
//! the client. A configurable accept cap bounds the total number of live connections;
//! over-cap connections get a handshake plus one `Busy` error frame, then close.

use crate::frame::{
    read_frame_opt, response_frames, server_handshake, write_frame, ErrorCode, FrameError, Request,
    Response, MAX_FRAME_LEN,
};
use crate::lang::{parse, Statement};
use hcsp_service::{AdmissionError, PathService, SpecHandle, UpdateHandle};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long, and for how many bytes, an over-cap connection is drained after its `Busy`
/// frame before it closes.
const BUSY_LINGER: Duration = Duration::from_secs(1);
const BUSY_DRAIN_BYTES: u64 = 64 << 10;

/// Tuning knobs of a [`PathServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; further clients are greeted with a
    /// `Busy` error frame and closed.
    pub max_connections: usize,
    /// Per-connection in-flight window: requests admitted into the service but not yet
    /// answered. Once full, the connection's reader blocks (TCP backpressure).
    pub inflight_window: usize,
    /// Cap on a single frame's payload length.
    pub max_frame_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            inflight_window: 32,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

impl ServerConfig {
    /// Returns the config with a connection cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// Returns the config with a per-connection in-flight window.
    pub fn inflight_window(mut self, window: usize) -> Self {
        self.inflight_window = window.max(1);
        self
    }
}

/// What the reader hands the writer for one request, in admission order.
enum Work {
    /// An admitted query; the writer waits and streams its response frames.
    Spec { id: u64, handle: SpecHandle },
    /// An admitted update; the writer waits and reports the summary.
    Update { id: u64, handle: UpdateHandle },
    /// A request refused before admission (parse error, invalid endpoint, …).
    Fail {
        id: u64,
        code: ErrorCode,
        message: String,
    },
}

/// A running TCP front-end over a shared [`PathService`].
///
/// Bind with [`PathServer::bind`], connect clients to [`PathServer::local_addr`], stop
/// with [`PathServer::shutdown`] (dropping the server also shuts it down).
pub struct PathServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// State shared between the server handle, the accept loop and every connection.
struct Shared {
    service: Arc<PathService>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    live: AtomicUsize,
    next_conn: AtomicU64,
    /// Read-half clones of live connections, so shutdown can unblock blocking reads.
    streams: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl PathServer {
    /// Binds `addr` and starts accepting connections against `service`.
    pub fn bind(
        service: Arc<PathService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<PathServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            service,
            config,
            stop: Arc::clone(&stop),
            live: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            streams: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("hcsp-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(PathServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            shared,
        })
    }

    /// The bound address (with the OS-chosen port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, unblocks and joins every connection thread, and returns.
    /// In-flight requests already admitted into the service still complete service-side;
    /// their connections close without a response.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock readers parked in a blocking read.
        for stream in self.shared.streams.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(&mut *self.shared.conn_threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for PathServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("hcsp-conn-{conn_id}"))
            .spawn(move || serve_connection(stream, conn_id, conn_shared));
        match thread {
            Ok(handle) => shared.conn_threads.lock().unwrap().push(handle),
            Err(_) => continue, // spawn failed; the dropped stream closes the socket
        }
    }
}

/// Runs one connection to completion: handshake, cap check, then the reader loop with
/// a writer thread alongside.
fn serve_connection(mut stream: TcpStream, conn_id: u64, shared: Arc<Shared>) {
    if server_handshake(&mut stream).is_err() {
        return;
    }
    // The cap counts connections that passed the handshake; over-cap clients get one
    // well-formed Busy frame so they can tell refusal from failure.
    if shared.live.fetch_add(1, Ordering::SeqCst) >= shared.config.max_connections {
        shared.live.fetch_sub(1, Ordering::SeqCst);
        let busy = Response::Error {
            id: 0,
            code: ErrorCode::Busy,
            message: "server connection cap reached; retry later".to_string(),
        };
        let _ = write_frame(&mut stream, &busy.encode());
        let _ = stream.flush();
        // Close gracefully: closing with the client's request still unread here would
        // reset the connection, and the reset can destroy the Busy frame in flight.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(BUSY_LINGER));
        let _ = io::copy(&mut (&stream).take(BUSY_DRAIN_BYTES), &mut io::sink());
        return;
    }
    if let Ok(read_half) = stream.try_clone() {
        shared.streams.lock().unwrap().insert(conn_id, read_half);
    }
    run_connection(stream, &shared);
    shared.streams.lock().unwrap().remove(&conn_id);
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

fn run_connection(stream: TcpStream, shared: &Shared) {
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let (tx, rx) = sync_channel::<Work>(shared.config.inflight_window.max(1));
    let writer = std::thread::Builder::new()
        .name("hcsp-conn-writer".to_string())
        .spawn(move || write_loop(write_half, rx));
    let writer = match writer {
        Ok(handle) => handle,
        Err(_) => return,
    };
    read_loop(stream, shared, &tx);
    // Dropping the sender lets the writer drain the in-flight window and exit.
    drop(tx);
    let _ = writer.join();
}

/// Decodes and admits requests until the client hangs up, the stream dies, or a frame
/// arrives damaged (after damage the stream cannot be re-synchronised, so the
/// connection closes after a best-effort `Malformed` report).
fn read_loop(stream: TcpStream, shared: &Shared, tx: &SyncSender<Work>) {
    let max_len = shared.config.max_frame_len;
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame_opt(&mut reader, max_len) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean close at a frame boundary
            Err(FrameError::Io(_)) => return,
            Err(err) => {
                let _ = tx.send(Work::Fail {
                    id: 0,
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                });
                return;
            }
        };
        let (id, text) = match Request::decode(&payload) {
            Ok(Request::Statement { id, text }) => (id, text),
            Err(err) => {
                let _ = tx.send(Work::Fail {
                    id: 0,
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                });
                return;
            }
        };
        let work = admit(&shared.service, id, &text);
        if tx.send(work).is_err() {
            return; // the writer died (client stopped reading); nothing left to do
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Parses one statement and admits it into the service, mapping every refusal to the
/// error frame the writer will send.
fn admit(service: &PathService, id: u64, text: &str) -> Work {
    let statement = match parse(text) {
        Ok(statement) => statement,
        Err(err) => {
            return Work::Fail {
                id,
                code: ErrorCode::Parse,
                message: err.to_string(),
            }
        }
    };
    match statement {
        Statement::Query(query) => match service.try_submit_spec(query.to_spec()) {
            Ok(handle) => Work::Spec { id, handle },
            Err(err) => refusal(id, err),
        },
        Statement::Update(update) => match service.try_update(vec![update.to_update()]) {
            Ok(handle) => Work::Update { id, handle },
            Err(err) => refusal(id, err),
        },
    }
}

fn refusal(id: u64, err: AdmissionError) -> Work {
    let code = match err {
        AdmissionError::InvalidEndpoint { .. } => ErrorCode::InvalidEndpoint,
        AdmissionError::ShuttingDown => ErrorCode::ShuttingDown,
        AdmissionError::Poisoned => ErrorCode::Poisoned,
    };
    Work::Fail {
        id,
        code,
        message: err.to_string(),
    }
}

/// Streams response frames in request order until the work channel closes or the
/// socket dies.
fn write_loop(stream: TcpStream, rx: Receiver<Work>) {
    let mut writer = BufWriter::new(stream);
    for work in rx {
        let frames = match work {
            Work::Spec { id, handle } => match handle.wait_result() {
                Ok(result) => response_frames(id, &result.response),
                Err(_) => vec![Response::Error {
                    id,
                    code: ErrorCode::Abandoned,
                    message: "the worker executing this query died".to_string(),
                }],
            },
            Work::Update { id, handle } => match handle.wait_result() {
                Ok(summary) => vec![Response::UpdateDone {
                    id,
                    applied: summary.applied as u64,
                    ignored: summary.ignored as u64,
                }],
                Err(_) => vec![Response::Error {
                    id,
                    code: ErrorCode::Abandoned,
                    message: "the service failed while publishing this update".to_string(),
                }],
            },
            Work::Fail { id, code, message } => vec![Response::Error { id, code, message }],
        };
        for frame in frames {
            if write_frame(&mut writer, &frame.encode()).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
    }
}
