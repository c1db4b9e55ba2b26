//! The one blocking HTTP/1.1 client: a keep-alive [`Conn`] and a one-shot
//! [`call`], both framed by [`ResponseParser`], so a malformed or
//! truncated response is an `io::Error`, never a partial success.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{Reply, ResponseFeed, ResponseParser};

/// A keep-alive connection. [`send`](Conn::send) and
/// [`recv`](Conn::recv) are separate so a caller can put many requests in
/// flight before reading any answer.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    /// The read timeout [`open`](Conn::open) set, restored by
    /// [`recv_within`](Conn::recv_within).
    timeout: Duration,
}

impl Conn {
    /// Connects with `TCP_NODELAY`; `timeout` bounds the connect and every
    /// later read and write, so a wedged server fails the caller instead
    /// of hanging it.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            parser: ResponseParser::new(),
            timeout,
        })
    }

    /// Writes one keep-alive request. `trace` propagates a trace id as
    /// `X-Clapf-Trace`; the replica adopts it.
    pub fn send(&mut self, method: &str, path: &str, trace: Option<u64>) -> io::Result<()> {
        write_request(&mut self.stream, method, path, trace, true)
    }

    /// Reads the next response off the connection: read, feed, parse until
    /// the parser has a verdict. A clean close before the first byte is
    /// `UnexpectedEof`; a malformed or truncated response is `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(reply) = self.parsed()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// [`recv`](Conn::recv) that gives up after `wait`: `Ok(None)` when no
    /// full response has arrived by then. Bytes read so far stay in the
    /// parser, so a later call resumes where this one stopped. The
    /// connection's normal read timeout is restored before returning.
    pub fn recv_within(&mut self, wait: Duration) -> io::Result<Option<Reply>> {
        let deadline = Instant::now() + wait;
        let result = loop {
            match self.parsed() {
                Ok(None) => {}
                done => break done,
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Ok(None);
            }
            let read = self.stream.set_read_timeout(Some(left)).and_then(|()| self.fill());
            if let Err(e) = read {
                if !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                    break Err(e);
                }
            }
        };
        self.stream.set_read_timeout(Some(self.timeout))?;
        result
    }

    /// The parser's verdict on the bytes fed so far: a response, `None`
    /// when it needs more, or the framing error.
    fn parsed(&mut self) -> io::Result<Option<Reply>> {
        match self.parser.next_response() {
            ResponseFeed::Response(reply) => Ok(Some(reply)),
            ResponseFeed::NeedMore => Ok(None),
            ResponseFeed::Closed => Err(io::ErrorKind::UnexpectedEof.into()),
            ResponseFeed::Bad { reason } => Err(io::Error::new(io::ErrorKind::InvalidData, reason)),
        }
    }

    /// One socket read, fed to the parser (a clean close closes it).
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.parser.close(),
            Ok(n) => self.parser.feed(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// One keep-alive `GET` round trip.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send("GET", path, None)?;
        self.recv()
    }
}

/// One-shot call: fresh connection, `Connection: close`, full response.
pub fn call(addr: SocketAddr, method: &str, path: &str, timeout: Duration) -> io::Result<Reply> {
    let mut conn = Conn::open(addr, timeout)?;
    write_request(&mut conn.stream, method, path, None, false)?;
    conn.recv()
}

/// Writes one body-less request in a single write.
fn write_request(
    w: &mut TcpStream,
    method: &str,
    path: &str,
    trace: Option<u64>,
    keep_alive: bool,
) -> io::Result<()> {
    let trace = trace.map_or(String::new(), |id| format!("X-Clapf-Trace: {id:016x}\r\n"));
    let close = if keep_alive { "" } else { "Connection: close\r\n" };
    w.write_all(format!("{method} {path} HTTP/1.1\r\nHost: clapf\r\n{trace}{close}\r\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A hand-rolled server that answers each accepted connection with the
    /// next canned bytes, then closes it. It reads the whole request head
    /// first: closing with unread bytes would reset the connection, and
    /// the client would see the reset rather than the canned bytes.
    fn canned_server(responses: &'static [&'static [u8]]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for response in responses {
                let Ok((mut s, _)) = listener.accept() else { return };
                let mut request = Vec::new();
                let mut scratch = [0u8; 1024];
                while !request.ends_with(b"\r\n\r\n") {
                    match s.read(&mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => request.extend_from_slice(&scratch[..n]),
                    }
                }
                let _ = s.write_all(response);
            }
        });
        addr
    }

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn one_shot_call_reads_a_framed_response() {
        let addr = canned_server(&[
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
        ]);
        let r = call(addr, "GET", "/healthz", T).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/json");
        assert_eq!(r.body, b"{}");
        assert!(!r.keep_alive);
    }

    #[test]
    fn missing_content_length_is_an_error_not_a_hang() {
        let addr = canned_server(&[b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello"]);
        let err = call(addr, "GET", "/", T).unwrap_err();
        assert!(err.to_string().contains("content-length"), "{err}");
    }

    #[test]
    fn recv_within_resumes_a_partial_response_and_restores_the_timeout() {
        // The head now, the body 150 ms later: the first short wait sees
        // only the head, the second wait picks up from there.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut scratch = [0u8; 1024];
            let _ = s.read(&mut scratch);
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n");
            std::thread::sleep(Duration::from_millis(150));
            let _ = s.write_all(b"{}");
            let _ = s.read(&mut scratch); // hold the connection open
        });
        let mut conn = Conn::open(addr, T).unwrap();
        conn.send("GET", "/x", None).unwrap();
        assert!(conn.recv_within(Duration::from_millis(20)).unwrap().is_none());
        assert_eq!(conn.stream.read_timeout().unwrap(), Some(T));
        let reply = conn.recv_within(T).unwrap().expect("the rest of the reply");
        assert_eq!(reply.body, b"{}");
        assert_eq!(conn.stream.read_timeout().unwrap(), Some(T));
    }

    #[test]
    fn a_truncated_response_is_an_error_not_a_success() {
        // EOF mid-head, then EOF mid-body: once through a keep-alive
        // `recv`, once through a one-shot `call`.
        const CUT_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-";
        const CUT_BODY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        let addr = canned_server(&[CUT_HEAD, CUT_BODY, CUT_HEAD, CUT_BODY]);
        for cut in ["head", "body"] {
            let mut conn = Conn::open(addr, T).unwrap();
            let err = conn.get("/recommend/u1").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "recv, cut {cut}: {err}");
        }
        for cut in ["head", "body"] {
            let err = call(addr, "GET", "/recommend/u1", T).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "call, cut {cut}: {err}");
        }
    }
}
