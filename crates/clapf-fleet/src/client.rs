//! The router's pooled upstream: one keep-alive [`Conn`] per replica slot
//! per worker, plus the reconnect and failpoint logic around it. Framing
//! is `clapf-serve`'s shared client; a malformed or truncated reply is an
//! I/O error, which callers treat like a dead replica (drop the pooled
//! connection, retry once through the ring).

use clapf_serve::{Conn, Reply};
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

    /// The replica address this upstream targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends one request over the pooled connection (connecting if
    /// needed) and reads the reply. Any failure drops the connection
    /// before propagating, so the caller's retry starts from a fresh
    /// connect — which is exactly how a stale keep-alive socket to a
    /// restarted replica heals.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        trace: Option<u64>,
    ) -> std::io::Result<Reply> {
        // Failpoints: tests kill a replica "mid-load" by failing the
        // connect (replica gone) or the send (socket died under us).
        clapf_faults::check("fleet.upstream.connect")?;
        let conn = match &mut self.conn {
            Some(conn) => conn,
            empty => empty.insert(Conn::open(self.addr, self.timeout)?),
        };
        let result = clapf_faults::check("fleet.upstream.send")
            .and_then(|()| conn.send(method, path, trace))
            .and_then(|()| conn.recv());
        if !matches!(&result, Ok(reply) if reply.keep_alive) {
            self.conn = None;
        }
        result
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
        let r = up.request("GET", "/recommend/u1", Some(0xabcd)).unwrap();
        assert_eq!(r.status, 200);
        let req = server.join().unwrap();
        assert!(
            req.contains("X-Clapf-Trace: 000000000000abcd"),
            "trace header missing from {req:?}"
        );
    }
}
