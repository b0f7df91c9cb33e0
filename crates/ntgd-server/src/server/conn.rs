//! One evented connection: a non-blocking socket, a read-accumulation
//! buffer with line framing, a pending-write buffer, and the [`Session`]
//! state machine they feed.
//!
//! [`Conn`] is the unit the event loop schedules: the poller reports the
//! socket readable → [`Conn::fill`] accumulates bytes; the scheduler picks
//! runnable connections → [`Conn::run_ready`] executes buffered lines
//! through the session (per-connection serial — the batch runs
//! cross-connection parallel on the pool); the loop then drains the write
//! buffer with [`Conn::flush`] and arms read and write interest per
//! [`Conn::interest`].  Framing mirrors `BufRead::lines` — what
//! [`handle_session`](crate::server::handle_session) runs for the REPL —
//! exactly: trailing `\r` stripped from complete lines, a final
//! unterminated line executed on EOF (its `\r` kept), invalid UTF-8 closing
//! the connection.  So a TCP transcript is byte-identical to the same
//! script run through `handle_session` in memory.
//!
//! Both buffers are bounded.  Reading pauses while a complete line waits and
//! `BUFFER_CAP` bytes are buffered, and while `BUFFER_CAP` response
//! bytes are pending; execution pauses at the same output mark, so a client
//! that pipelines without reading stalls in its own send buffer.  A line
//! still unterminated after [`MAX_LINE`] bytes is answered `ERR line too
//! long` and the connection is closed.  A buffer that drains empty gives
//! back any capacity over `BUFFER_CAP`, so an idle connection holds at most
//! `BUFFER_CAP` per direction whatever its largest request or response.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ntgd_core::obs;

use crate::server::BANNER;
use crate::session::Session;

/// The per-connection buffer bound, in both directions: [`Conn::fill`]
/// stops reading once this many unconsumed bytes hold a complete line, and
/// neither reads nor executes while this many response bytes are pending
/// (one response may still run past it).
const BUFFER_CAP: usize = 64 * 1024;

/// The longest request line accepted (terminator excluded).  A longer line
/// is answered `ERR line too long` and closes the connection.
pub const MAX_LINE: usize = 16 * 1024 * 1024;

/// Bytes per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reclaim consumed prefix bytes once they pass this size.
const COMPACT_AT: usize = 4 * 1024;

/// Connections closed for a line over [`MAX_LINE`].
static LINES_TOO_LONG: obs::Counter = obs::Counter::new("server.lines_too_long");

/// A byte accumulator with line framing, mirroring `BufRead::lines`:
/// [`LineBuffer::next_line`] yields complete `\n`-terminated lines with the
/// terminator (and one preceding `\r`, if any) stripped;
/// [`LineBuffer::take_partial`] yields the final unterminated line at EOF
/// verbatim (no `\r` stripping — `lines` only strips `\r` before a `\n`).
/// Invalid UTF-8 surfaces as an error, like `lines` again.
///
/// The position of the first buffered `\n` is kept up to date as bytes
/// arrive and lines leave, so every byte is searched once: a long line costs
/// O(n) to accumulate and [`LineBuffer::has_line`] is O(1).
#[derive(Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    start: usize,
    /// Index in `buf` of the first `\n` at or after `start`, if any.
    newline: Option<usize>,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> LineBuffer {
        LineBuffer::default()
    }

    /// Appends received bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let old_len = self.buf.len();
        self.buf.extend_from_slice(bytes);
        if self.newline.is_none() {
            self.newline = find_newline(&self.buf, old_len);
        }
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a complete line is buffered.
    pub fn has_line(&self) -> bool {
        self.newline.is_some()
    }

    /// The length of the first buffered line so far: up to its `\n` when
    /// complete, else every unconsumed byte.
    pub(crate) fn first_line_len(&self) -> usize {
        self.newline.unwrap_or(self.buf.len()) - self.start
    }

    /// The next complete line, if one is buffered.
    pub fn next_line(&mut self) -> Option<io::Result<String>> {
        let end = self.newline?;
        let mut line = &self.buf[self.start..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let parsed = String::from_utf8(line.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stream not valid UTF-8"));
        self.start = end + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.buf.shrink_to(BUFFER_CAP);
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.newline = find_newline(&self.buf, self.start);
        Some(parsed)
    }

    /// The final unterminated line (called at EOF); empties the buffer.
    pub fn take_partial(&mut self) -> Option<io::Result<String>> {
        if self.start >= self.buf.len() {
            return None;
        }
        let parsed = String::from_utf8(self.buf[self.start..].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stream not valid UTF-8"));
        *self = LineBuffer::new();
        Some(parsed)
    }
}

/// The index of the first `\n` in `buf[from..]`.
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|offset| from + offset)
}

/// One live evented connection: the non-blocking socket, its framing and
/// write buffers, and the owned [`Session`].  `Send` by construction — the
/// event loop migrates ready connections onto pool workers for execution
/// (`tests/event_loop_e2e.rs` carries the compile-time audit).
pub struct Conn {
    stream: TcpStream,
    session: Session,
    read_buf: LineBuffer,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The peer half-closed its send side (EOF observed).
    eof: bool,
    /// The connection died of an I/O or framing error; drop it without
    /// further protocol activity (as a read error ends `handle_session`).
    dead: bool,
    /// The session ended (`QUIT`, EOF fully processed, or a line over
    /// [`MAX_LINE`]); close once the write buffer drains.  Further buffered
    /// requests are discarded, as `handle_session` never reads past `QUIT`.
    closing: bool,
    /// The `(read, write)` interest the poller currently has armed for this
    /// socket (event-loop bookkeeping, see [`Conn::set_armed`]).
    armed: (bool, bool),
    /// When the peer last sent bytes or accepted response bytes (admission
    /// time counts); the idle reaper compares this against
    /// [`SessionConfig::idle_timeout`](crate::SessionConfig::idle_timeout).
    last_activity: Instant,
}

impl Conn {
    /// Wraps an accepted socket: switches it non-blocking, disables Nagle
    /// (small-response latency), and queues the [`BANNER`].
    pub fn new(stream: TcpStream, session: Session) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Conn {
            stream,
            session,
            read_buf: LineBuffer::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            eof: false,
            dead: false,
            closing: false,
            armed: (false, false),
            last_activity: Instant::now(),
        };
        conn.queue_line(BANNER);
        Ok(conn)
    }

    /// The underlying socket (for poller registration and shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    fn queue_line(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Response bytes queued but not yet written.
    fn pending_output(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the socket should be read: the session is live, the output
    /// is under `BUFFER_CAP`, and the read buffer is under it too unless
    /// it holds no complete line yet (a long line keeps reading up to
    /// [`MAX_LINE`]).
    pub(crate) fn wants_read(&self) -> bool {
        !self.eof
            && !self.dead
            && !self.closing
            && self.pending_output() < BUFFER_CAP
            && (self.read_buf.pending() < BUFFER_CAP || !self.read_buf.has_line())
    }

    /// Drains the socket into the read buffer (until `WouldBlock`, EOF, an
    /// error, or the connection stops wanting input).  A first line over
    /// [`MAX_LINE`] is answered `ERR line too long` and ends the session.
    pub fn fill(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        while self.wants_read() {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.read_buf.push_bytes(&chunk[..n]);
                    self.last_activity = Instant::now();
                    if self.read_buf.first_line_len() > MAX_LINE {
                        LINES_TOO_LONG.incr();
                        self.read_buf = LineBuffer::new();
                        self.queue_line("ERR line too long");
                        self.closing = true;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
    }

    /// How long the peer has been silent as of `now` (zero if `now` is
    /// before the last activity — the reaper passes one timestamp for a
    /// whole slab scan).
    pub fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    /// Whether the scheduler should run this connection: it has a complete
    /// request buffered (or EOF to process), room for output, and is
    /// neither closed nor dead.
    pub fn runnable(&self) -> bool {
        !self.dead
            && !self.closing
            && self.pending_output() < BUFFER_CAP
            && (self.read_buf.has_line() || self.eof)
    }

    /// Executes buffered requests through the session while the connection
    /// stays runnable, appending responses to the write buffer; at EOF also
    /// executes the final unterminated line (exactly what `BufRead::lines`
    /// yields).  Called with the connection pinned to one executor —
    /// per-session serial, cross-session parallel.
    pub fn run_ready(&mut self) {
        while self.runnable() {
            let line = match self.read_buf.next_line() {
                Some(line) => line,
                None => {
                    // EOF with every complete line executed.
                    self.closing = true;
                    match self.read_buf.take_partial() {
                        Some(line) => line,
                        None => break,
                    }
                }
            };
            match line {
                Ok(line) => self.execute_line(&line),
                Err(_) => self.dead = true,
            }
        }
    }

    fn execute_line(&mut self, line: &str) {
        let response = self.session.execute(line);
        for out in &response.lines {
            self.queue_line(out);
        }
        if response.close {
            self.closing = true;
        }
    }

    /// Writes pending response bytes (until `WouldBlock`, done, or error).
    /// Written bytes count as peer activity: a slow reader still draining
    /// is not idle.
    pub fn flush(&mut self) {
        while self.write_pos < self.write_buf.len() && !self.dead {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_buf.shrink_to(BUFFER_CAP);
            self.write_pos = 0;
        }
    }

    /// Whether response bytes are pending.
    pub fn wants_write(&self) -> bool {
        self.pending_output() > 0
    }

    /// The `(read, write)` interest the poller should have armed:
    /// [`Conn::wants_read`] and [`Conn::wants_write`].
    pub(crate) fn interest(&self) -> (bool, bool) {
        (self.wants_read(), self.wants_write())
    }

    /// Whether the connection can be dropped: dead, or ended with its
    /// responses fully flushed.
    pub fn finished(&self) -> bool {
        self.dead || (self.closing && !self.wants_write())
    }

    /// See [`Conn::set_armed`].
    pub(crate) fn armed(&self) -> (bool, bool) {
        self.armed
    }

    /// Records the `(read, write)` interest the poller has armed for this
    /// socket (so the loop issues modifications only on transitions).
    pub(crate) fn set_armed(&mut self, armed: (bool, bool)) {
        self.armed = armed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(buffer: &mut LineBuffer) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(line) = buffer.next_line() {
            out.push(line.expect("valid UTF-8"));
        }
        out
    }

    #[test]
    fn partial_lines_accumulate_until_the_newline_arrives() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(b"PI");
        assert!(!buffer.has_line());
        assert!(buffer.next_line().is_none());
        buffer.push_bytes(b"NG\nQU");
        assert_eq!(lines(&mut buffer), vec!["PING"]);
        assert_eq!(buffer.pending(), 2);
        buffer.push_bytes(b"IT\n");
        assert_eq!(lines(&mut buffer), vec!["QUIT"]);
        assert_eq!(buffer.pending(), 0);
    }

    #[test]
    fn pipelined_requests_split_into_individual_lines() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(b"PING\nHELP\nSTATS sms\nQUIT\n");
        assert_eq!(
            lines(&mut buffer),
            vec!["PING", "HELP", "STATS sms", "QUIT"]
        );
    }

    #[test]
    fn crlf_is_stripped_from_complete_lines_only() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(b"PING\r\nPONG\r");
        assert_eq!(lines(&mut buffer), vec!["PING"]);
        // The final unterminated line keeps its carriage return — exactly
        // what BufRead::lines yields at EOF.
        let partial = buffer.take_partial().expect("partial present");
        assert_eq!(partial.unwrap(), "PONG\r");
        assert!(buffer.take_partial().is_none());
    }

    #[test]
    fn invalid_utf8_is_an_error_like_bufread_lines() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(&[0xff, 0xfe, b'\n']);
        let result = buffer.next_line().expect("line is framed");
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn newline_tracking_survives_pushes_consumption_and_compaction() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(b"abc");
        assert_eq!(buffer.first_line_len(), 3);
        buffer.push_bytes(b"de\nfg\nh");
        assert!(buffer.has_line());
        assert_eq!(buffer.first_line_len(), 5);
        // Pushing more bytes behind a known newline keeps it.
        buffer.push_bytes(b"ij");
        assert_eq!(buffer.first_line_len(), 5);
        assert_eq!(lines(&mut buffer), vec!["abcde", "fg"]);
        assert!(!buffer.has_line());
        assert_eq!(buffer.first_line_len(), 3);
        let long = vec![b'x'; 3 * COMPACT_AT];
        buffer.push_bytes(b"\n");
        buffer.push_bytes(&long);
        buffer.push_bytes(b"\nk\n");
        assert_eq!(buffer.next_line().unwrap().unwrap(), "hij");
        assert_eq!(buffer.first_line_len(), long.len());
        assert_eq!(buffer.next_line().unwrap().unwrap().len(), long.len());
        // The consumed prefix was compacted; the newline index followed.
        assert_eq!(buffer.buf.len(), 2);
        assert_eq!(lines(&mut buffer), vec!["k"]);
        assert_eq!(buffer.pending(), 0);
    }

    /// A connected pair: the client end, and a [`Conn`] over the accepted
    /// end with its banner already flushed.
    fn conn_pair() -> (TcpStream, Conn) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let session = Session::new(crate::SessionConfig::default());
        let mut conn = Conn::new(server, session).unwrap();
        conn.flush();
        assert!(!conn.wants_write(), "banner flushed");
        (client, conn)
    }

    #[test]
    fn a_client_that_never_reads_is_held_to_the_buffer_cap() {
        let (mut client, mut conn) = conn_pair();
        client.set_nonblocking(true).unwrap();
        let flood = b"HELP\n".repeat(16 * 1024);
        let largest_response = 1024;
        let (mut sent, mut offset, mut quiet_rounds) = (0usize, 0usize, 0);
        let (mut max_in, mut max_out) = (0, 0);
        // Drive the connection by hand the way the shard does, until the
        // client's sends have blocked for 100 rounds in a row.
        while quiet_rounds < 100 {
            assert!(sent < 20 << 20, "20 MiB sent without a stall");
            let mut progressed = false;
            while let Ok(n) = client.write(&flood[offset..]) {
                sent += n;
                offset = (offset + n) % flood.len();
                progressed = true;
            }
            conn.fill();
            max_in = max_in.max(conn.read_buf.pending());
            conn.run_ready();
            max_out = max_out.max(conn.pending_output());
            conn.flush();
            quiet_rounds = if progressed { 0 } else { quiet_rounds + 1 };
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(max_in <= BUFFER_CAP + READ_CHUNK, "read buffer {max_in}");
        assert!(
            max_out < BUFFER_CAP + largest_response,
            "write buffer {max_out}"
        );
        assert!(conn.interest() == (false, true), "parked on output only");
        assert!(!conn.runnable() && !conn.finished());
    }

    #[test]
    fn a_line_over_max_line_is_refused_and_ends_the_session() {
        let (mut client, mut conn) = conn_pair();
        let writer = std::thread::spawn(move || {
            client.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
            client
        });
        while !conn.closing {
            conn.fill();
            assert!(conn.read_buf.pending() <= MAX_LINE + READ_CHUNK);
        }
        let mut client = writer.join().unwrap();
        assert_eq!(conn.read_buf.pending(), 0, "the line was dropped");
        assert!(!conn.runnable() && !conn.wants_read());
        conn.flush();
        assert!(conn.finished());
        drop(conn);
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, format!("{BANNER}\nERR line too long\n"));
    }

    #[test]
    fn a_drained_long_line_gives_its_capacity_back() {
        let mut buffer = LineBuffer::new();
        buffer.push_bytes(&vec![b'x'; 1 << 20]);
        buffer.push_bytes(b"\n");
        assert_eq!(buffer.next_line().unwrap().unwrap().len(), 1 << 20);
        assert_eq!(buffer.pending(), 0);
        assert!(
            buffer.buf.capacity() <= BUFFER_CAP,
            "{}",
            buffer.buf.capacity()
        );
    }

    #[test]
    fn a_flushed_long_response_gives_its_capacity_back() {
        let (mut client, mut conn) = conn_pair();
        let response = "x".repeat(1 << 20);
        conn.queue_line(&response);
        let reader = std::thread::spawn(move || {
            let mut received = vec![0u8; response.len() + 1];
            client.read_exact(&mut received).unwrap();
            received
        });
        while conn.wants_write() {
            conn.flush();
            assert!(!conn.dead);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reader.join().unwrap().len(), (1 << 20) + 1);
        assert!(
            conn.write_buf.capacity() <= BUFFER_CAP,
            "{}",
            conn.write_buf.capacity()
        );
    }

    #[test]
    fn long_consumed_prefixes_are_compacted() {
        let mut buffer = LineBuffer::new();
        let line = vec![b'a'; COMPACT_AT];
        buffer.push_bytes(&line);
        buffer.push_bytes(b"\ntail");
        assert_eq!(buffer.next_line().unwrap().unwrap().len(), COMPACT_AT);
        assert_eq!(buffer.pending(), 4);
        assert_eq!(buffer.buf.len(), 4, "consumed prefix reclaimed");
    }
}
