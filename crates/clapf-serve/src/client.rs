//! The one blocking HTTP/1.1 client: a keep-alive [`Conn`] and a one-shot
//! [`call`], both framed by [`ResponseParser`], so a malformed or
//! truncated response is an `io::Error`, never a partial success.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{Reply, ResponseFeed, ResponseParser};

/// A keep-alive connection. [`send`](Conn::send) and
/// [`recv`](Conn::recv) are separate so a caller can put many requests in
/// flight before reading any answer.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
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
        let mut chunk = [0u8; 8192];
        loop {
            match self.parser.next_response() {
                ResponseFeed::Response(reply) => return Ok(reply),
                ResponseFeed::NeedMore => {}
                ResponseFeed::Closed => return Err(io::ErrorKind::UnexpectedEof.into()),
                ResponseFeed::Bad { reason } => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, reason))
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => self.parser.close(),
                Ok(n) => self.parser.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
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
