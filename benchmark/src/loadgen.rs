//! The benchmark's own load generator, on the wire functions of `hcsp_server::frame`.
//!
//! Open loop: every statement has a *due* instant fixed before the run, and its latency
//! is counted from that instant — not from when its bytes left. A server that stalls
//! (its 32-frame in-flight window turns into TCP backpressure) delays the sends behind
//! it; timing from the send instant would hide exactly that queue. How late the
//! generator itself ran is reported beside the latencies.

use hcsp_server::frame::{client_handshake, read_frame, write_frame, MAX_FRAME_LEN};
use hcsp_server::{Request, Response};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Replies are expected within this long; a connection silent for longer is dead and
/// everything outstanding on it counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub fn encode_request(id: u64, text: &str) -> Vec<u8> {
    Request::Statement {
        id,
        text: text.to_string(),
    }
    .encode()
}

/// One pipelined connection, handshake done.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        client_handshake(&mut stream)?;
        Ok(Connection {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
    }
}

/// Every frame answering one request, and when its terminal frame arrived.
#[derive(Debug)]
pub struct Answer {
    pub frames: Vec<Response>,
    pub done: Instant,
}

/// What one generator run observed, per request in send order.
pub struct LoadResult {
    pub due: Vec<Instant>,
    pub sent: Vec<Instant>,
    /// `None` for a request that was never answered.
    pub answers: Vec<Option<Answer>>,
    pub started: Instant,
    pub finished: Instant,
}

impl LoadResult {
    /// Due instant to terminal frame, in ms; `None` where no answer came.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        self.answers[i]
            .as_ref()
            .map(|a| a.done.saturating_duration_since(self.due[i]).as_secs_f64() * 1e3)
    }

    /// How long after its due instant each request was actually sent, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(due, sent)| sent.saturating_duration_since(*due).as_secs_f64() * 1e3)
            .collect()
    }

    pub fn wall(&self) -> Duration {
        self.finished - self.started
    }
}

/// Reads the frames of the next request's answer. Replies on one connection are FIFO
/// with their requests; a frame carrying another id is a protocol failure.
fn read_answer(reader: &mut impl Read, expect_id: u64) -> Option<Answer> {
    let mut frames = Vec::new();
    loop {
        let payload = read_frame(reader, MAX_FRAME_LEN).ok()?;
        let frame = Response::decode(&payload).ok()?;
        if frame.id() != expect_id {
            return None;
        }
        let terminal = frame.is_terminal();
        frames.push(frame);
        if terminal {
            return Some(Answer {
                frames,
                done: Instant::now(),
            });
        }
    }
}

/// Sends `payloads[i]` at `start + offsets[i]` regardless of replies, one sender thread
/// and one receiver thread.
pub fn open_loop_on<R: Read + Send, W: Write + Send>(
    reader: &mut R,
    writer: &mut W,
    payloads: &[Vec<u8>],
    offsets: &[Duration],
) -> LoadResult {
    assert_eq!(payloads.len(), offsets.len());
    let n = payloads.len();
    // A short lead so the first requests are not late by thread start-up.
    let started = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = offsets.iter().map(|&o| started + o).collect();
    let (sent, answers) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (payload, &due) in payloads.iter().zip(&due) {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // A failed write leaves the rest unsent; their missing answers count.
                if write_frame(writer, payload)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                sent.push(Instant::now());
            }
            sent
        });
        let receiver = scope.spawn(|| {
            let mut answers: Vec<Option<Answer>> = Vec::with_capacity(n);
            for i in 0..n {
                match read_answer(reader, i as u64 + 1) {
                    Some(answer) => answers.push(Some(answer)),
                    None => break,
                }
            }
            answers.resize_with(n, || None);
            answers
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let finished = Instant::now();
    let mut sent = sent;
    // Unsent requests were, at best, sent "now": maximally late.
    sent.resize(n, finished);
    LoadResult {
        due,
        sent,
        answers,
        started,
        finished,
    }
}

pub fn open_loop(conn: &mut Connection, payloads: &[Vec<u8>], offsets: &[Duration]) -> LoadResult {
    open_loop_on(&mut conn.reader, &mut conn.writer, payloads, offsets)
}

/// Keeps `window` requests in flight — the next is sent when an answer completes — until
/// `duration` has passed and at least `min` statements were sent, then finishes the
/// current unit of `unit` statements and drains.
/// `payload(i)` encodes request `i` (id `i + 1`). One thread: 32 small frames never fill
/// a socket buffer, so the write cannot block the read.
pub fn closed_loop(
    conn: &mut Connection,
    payload: impl Fn(usize) -> Vec<u8>,
    window: usize,
    duration: Duration,
    min: usize,
    unit: usize,
) -> LoadResult {
    let started = Instant::now();
    let deadline = started + duration;
    let mut sent: Vec<Instant> = Vec::new();
    let mut answers: Vec<Option<Answer>> = Vec::new();
    let send_one = |sent: &mut Vec<Instant>, writer: &mut BufWriter<TcpStream>| -> bool {
        let ok = write_frame(writer, &payload(sent.len()))
            .and_then(|()| writer.flush())
            .is_ok();
        sent.push(Instant::now());
        ok
    };
    let mut alive = true;
    loop {
        let stop = !alive
            || (Instant::now() >= deadline
                && sent.len() >= min
                && sent.len().is_multiple_of(unit.max(1)));
        while alive && !stop && sent.len() - answers.len() < window {
            alive = send_one(&mut sent, &mut conn.writer);
        }
        if answers.len() == sent.len() {
            break;
        }
        match read_answer(&mut conn.reader, answers.len() as u64 + 1) {
            Some(answer) => answers.push(Some(answer)),
            None => {
                alive = false;
                answers.resize_with(sent.len(), || None);
            }
        }
    }
    LoadResult {
        due: sent.clone(),
        sent,
        answers,
        started,
        finished: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_server::frame::server_handshake;
    use std::net::TcpListener;

    /// A server that answers every statement with `Count(id)` at once, except that on
    /// receiving request `stall_at` it first stops reading and answering for `stall`.
    fn stub_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            server_handshake(&mut stream).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            while let Ok(payload) = read_frame(&mut reader, MAX_FRAME_LEN) {
                let Request::Statement { id, .. } = Request::decode(&payload).unwrap();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = Response::Count { id, count: id };
                write_frame(&mut stream, &reply.encode()).unwrap();
                stream.flush().unwrap();
            }
        });
        (addr, handle)
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| encode_request(i as u64 + 1, "COUNT FROM 0 TO 1 WITHIN 3"))
            .collect()
    }

    #[test]
    fn latency_counts_from_the_due_instant_through_a_server_stall() {
        // 40 requests 2 ms apart; the server stalls 50 ms on request 11 (due at 20 ms),
        // so requests due at 20..70 ms are all answered at ~70 ms.
        let stall = Duration::from_millis(50);
        let (addr, server) = stub_server(11, stall);
        let mut conn = Connection::open(addr).unwrap();
        let offsets: Vec<Duration> = (0..40).map(|i| Duration::from_millis(2 * i)).collect();
        let result = open_loop(&mut conn, &payloads(40), &offsets);
        drop(conn);
        server.join().unwrap();

        assert!(result.answers.iter().all(Option::is_some));
        let stall_end = result.due[10] + stall;
        for i in 10..40 {
            if result.due[i] < stall_end {
                let must_wait = (stall_end - result.due[i]).as_secs_f64() * 1e3;
                let latency = result.latency_ms(i).unwrap();
                assert!(
                    latency >= must_wait - 0.5,
                    "request {i} due during the stall waited {latency} ms < {must_wait} ms"
                );
            }
        }
        // Before the stall nothing waits.
        assert!(result.latency_ms(3).unwrap() < 25.0);
        match &result.answers[39].as_ref().unwrap().frames[..] {
            [Response::Count { id: 40, count: 40 }] => {}
            other => panic!("unexpected final answer {other:?}"),
        }
    }

    /// A writer that blocks once, as a full socket buffer would.
    struct StallingWriter<W> {
        inner: W,
        frames: usize,
        stall_at: usize,
        stall: Duration,
    }

    impl<W: Write> Write for StallingWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.frames += 1;
            if self.frames == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.inner.flush()
        }
    }

    #[test]
    fn a_blocked_sender_shows_as_lateness_and_still_counts_in_latency() {
        let (addr, server) = stub_server(u64::MAX, Duration::ZERO);
        let conn = Connection::open(addr).unwrap();
        let Connection { mut reader, writer } = conn;
        let stall = Duration::from_millis(50);
        let mut writer = StallingWriter {
            inner: writer,
            frames: 0,
            stall_at: 5,
            stall,
        };
        let offsets: Vec<Duration> = (0..20).map(|i| Duration::from_millis(2 * i)).collect();
        let result = open_loop_on(&mut reader, &mut writer, &payloads(20), &offsets);
        drop((reader, writer));
        server.join().unwrap();

        // Request 5 (index 4) blocked for 50 ms; request 6 was due 2 ms after it and
        // could only leave ~48 ms late. Its latency counts from when it was due.
        let late = result.lateness_ms();
        assert!(late[5] >= 45.0, "lateness {late:?}");
        assert!(result.latency_ms(5).unwrap() >= 45.0);
        assert!(late[2] < 20.0);
        // Measured from its send instant the same request looks fast: the hidden queue.
        let answer = result.answers[5].as_ref().unwrap();
        assert!((answer.done - result.sent[5]).as_secs_f64() * 1e3 < 20.0);
    }

    #[test]
    fn closed_loop_sends_whole_units_and_answers_everything() {
        let (addr, server) = stub_server(u64::MAX, Duration::ZERO);
        let mut conn = Connection::open(addr).unwrap();
        let result = closed_loop(
            &mut conn,
            |i| encode_request(i as u64 + 1, "EXISTS FROM 0 TO 1 WITHIN 2"),
            8,
            Duration::from_millis(30),
            25,
            10,
        );
        drop(conn);
        server.join().unwrap();
        assert!(result.sent.len() >= 30);
        assert_eq!(result.sent.len() % 10, 0);
        assert_eq!(result.answers.len(), result.sent.len());
        assert!(result.answers.iter().all(Option::is_some));
    }
}
