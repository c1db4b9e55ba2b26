//! The router's pooled upstream: one keep-alive [`Conn`] per replica slot
//! per worker, plus the reconnect, abandon and failpoint logic around it.
//! Send and receive are separate calls, so a hedged read can wait on two
//! upstreams in turn (`hedge.rs`). Framing is `clapf-serve`'s shared
//! client; a malformed or truncated reply is an I/O error, which callers
//! treat like a dead replica (drop the pooled connection, retry once
//! through the ring).

use clapf_serve::{Conn, Reply};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// A pooled keep-alive connection to one replica. One worker owns one
/// `Upstream` per slot, so there is no cross-thread connection sharing —
/// the pool is the set of workers.
pub struct Upstream {
    addr: SocketAddr,
    conn: Option<Conn>,
    timeout: Duration,
}

impl Upstream {
    /// A lazily-connected upstream for the replica at `addr`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Upstream {
        Upstream {
            addr,
            conn: None,
            timeout,
        }
    }

    /// Repoints at a restarted replica's new address, dropping any pooled
    /// connection to the old one.
    pub fn set_addr(&mut self, addr: SocketAddr) {
        if addr != self.addr {
            self.addr = addr;
            self.conn = None;
        }
    }

    /// Writes one request on the pooled connection, connecting if needed.
    /// A failure drops the connection before propagating, so the caller's
    /// retry starts from a fresh connect — which is exactly how a stale
    /// keep-alive socket to a restarted replica heals.
    pub fn send(&mut self, method: &str, path: &str, trace: Option<u64>) -> io::Result<()> {
        // Failpoints: tests kill a replica "mid-load" by failing the
        // connect (replica gone) or the send (socket died under us).
        clapf_faults::check("fleet.upstream.connect")?;
        let conn = match &mut self.conn {
            Some(conn) => conn,
            empty => empty.insert(Conn::open(self.addr, self.timeout)?),
        };
        let sent =
            clapf_faults::check("fleet.upstream.send").and_then(|()| conn.send(method, path, trace));
        if sent.is_err() {
            self.conn = None;
        }
        sent
    }

    /// Waits up to `wait` for the reply to the request [`send`](Self::send)
    /// put in flight: `Ok(None)` while it has not arrived, and the request
    /// stays in flight. A failure, or a reply that closes the connection,
    /// drops the connection.
    pub fn recv_within(&mut self, wait: Duration) -> io::Result<Option<Reply>> {
        let conn = self.conn.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        let result = conn.recv_within(wait);
        match &result {
            Ok(None) => {}
            Ok(Some(reply)) if reply.keep_alive => {}
            _ => self.conn = None,
        }
        result
    }

    /// Drops the connection while a request is still in flight on it, so
    /// its late reply can never be read as the answer to a later request.
    pub fn abandon(&mut self) {
        self.conn = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn request_writes_the_trace_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut req = Vec::new();
            let mut scratch = [0u8; 1024];
            loop {
                let n = s.read(&mut scratch).unwrap();
                req.extend_from_slice(&scratch[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            String::from_utf8(req).unwrap()
        });
        let mut up = Upstream::new(addr, Duration::from_secs(5));
        up.send("GET", "/recommend/u1", Some(0xabcd)).unwrap();
        let r = up.recv_within(Duration::from_secs(5)).unwrap().expect("reply");
        assert_eq!(r.status, 200);
        let req = server.join().unwrap();
        assert!(
            req.contains("X-Clapf-Trace: 000000000000abcd"),
            "trace header missing from {req:?}"
        );
    }
}
