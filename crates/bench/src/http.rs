//! The one HTTP/1.1 client the perf binaries drive servers with: a
//! keep-alive [`Conn`] for load (`GET` only, framed by `Content-Length`)
//! and a one-shot [`call`] for control-plane requests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One framed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Whether the router stamped `X-Clapf-Degraded` (a stale answer from
    /// its fallback cache).
    pub degraded: bool,
    /// The body, exactly `Content-Length` bytes.
    pub body: String,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A keep-alive connection. [`send`](Conn::send) and
/// [`recv`](Conn::recv) are separate so a caller can put many requests in
/// flight before reading any answer.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and generous I/O timeouts, so a wedged
    /// server fails the caller instead of hanging it.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Writes one keep-alive `GET`.
    pub fn send(&mut self, path: &str) -> io::Result<()> {
        write!(self.writer, "GET {path} HTTP/1.1\r\nHost: b\r\n\r\n")
    }

    /// Reads the next response off the connection.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut degraded = false;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let h = line.trim_end().to_ascii_lowercase();
            if h.is_empty() {
                break;
            }
            if h.starts_with("x-clapf-degraded:") {
                degraded = true;
            }
            if let Some(v) = h.strip_prefix("content-length:") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {v:?}")))?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| invalid(e.to_string()))?;
        Ok(Response {
            status,
            degraded,
            body,
        })
    }

    /// One keep-alive round trip.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send(path)?;
        self.recv()
    }
}

/// One `Connection: close` request with an empty body; returns the
/// status and body.
pub fn call(addr: SocketAddr, method: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: c\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad response {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn keep_alive_frames_back_to_back_responses_and_flags_degraded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            for reply in [
                "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                "HTTP/1.1 503 Unavailable\r\nX-Clapf-Degraded: 1\r\ncontent-length: 2\r\n\r\nno",
            ] {
                let mut line = String::new();
                while line != "\r\n" {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                }
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut conn = Conn::open(addr).unwrap();
        let r = conn.get("/a").unwrap();
        assert_eq!((r.status, r.degraded, r.body.as_str()), (200, false, "hello"));
        let r = conn.get("/b").unwrap();
        assert_eq!((r.status, r.degraded, r.body.as_str()), (503, true, "no"));
        server.join().unwrap();
        assert!(conn.get("/c").is_err(), "a closed connection is an error");
    }
}
