//! Self-registration heartbeat: the replica half of the fleet's
//! lease-based membership (DESIGN.md §17).
//!
//! A replica started with a [`RegisterConfig`] announces itself to the
//! fleet router over `POST /fleet/register?name=…&addr=…` as soon as its
//! socket is bound, then keeps re-sending the same call on a jittered
//! interval. Each call renews the lease the router holds for this member
//! name; when heartbeats stop (crash, hang, partition) the lease expires
//! and the router evicts the slot from its ring without any supervisor
//! involvement. The replica never tracks lease state itself — the renewal
//! *is* the protocol, which is what makes re-admission after a partition
//! automatic: the next heartbeat through re-registers it.
//!
//! The send site is guarded by the `serve.register.send` failpoint so
//! chaos tests can blackhole heartbeats from a perfectly healthy replica —
//! the lease-expiry eviction path is then exercised without killing
//! anything.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::server::Shared;

/// How a replica registers itself with a fleet router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterConfig {
    /// Router address (`host:port`) answering `POST /fleet/register`.
    pub router: String,
    /// Stable member name. The router keys ring slots by name, so a
    /// replica that re-registers under the same name (after a restart or
    /// an expired lease) reclaims its old slot instead of growing the
    /// ring. Must be URL-safe (letters, digits, `-`, `_`, `.`).
    pub name: String,
    /// Heartbeat period; keep it comfortably below the router's lease TTL
    /// (the router defaults to 3s, the CLI heartbeats at 1s).
    pub interval: Duration,
}

/// Socket budget for one heartbeat call: connect, write, read.
const CALL_TIMEOUT: Duration = Duration::from_secs(2);
/// How often a sleeping heartbeat thread polls the shutdown flag.
const SLEEP_SLICE: Duration = Duration::from_millis(100);

/// The heartbeat loop `start()` spawns: register immediately, then renew
/// forever on a jittered interval until shutdown. Failures are counted,
/// never fatal — the router's sweep handles a member that stops renewing.
pub(crate) fn heartbeat_loop(shared: Arc<Shared>, config: RegisterConfig) {
    let advertised = shared.addr;
    let mut beat: u64 = fnv64(config.name.as_bytes());
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Failpoint: chaos tests blackhole heartbeats here. The replica
        // keeps serving traffic, but its lease silently expires at the
        // router — the partition-without-crash failure mode.
        if clapf_faults::check("serve.register.send").is_err() {
            shared.registry.counter("serve.register.blackholed").inc();
        } else {
            match send_registration(&config, advertised) {
                Ok(()) => shared.registry.counter("serve.register.sent").inc(),
                Err(_) => shared.registry.counter("serve.register.errors").inc(),
            }
        }
        beat = beat.wrapping_add(1);
        let deadline = Instant::now() + jittered(config.interval, beat);
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(SLEEP_SLICE.min(deadline - now));
        }
    }
}

/// One `POST /fleet/register` call announcing `advertised` under the
/// configured member name; anything but a 2xx is an error.
fn send_registration(config: &RegisterConfig, advertised: SocketAddr) -> std::io::Result<()> {
    let path = format!(
        "/fleet/register?name={}&addr={}",
        config.name, advertised
    );
    let router = config
        .router
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "router unresolvable"))?;
    let reply = crate::client::call(router, "POST", &path, CALL_TIMEOUT)?;
    if (200..300).contains(&reply.status) {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("register rejected: {}", reply.status),
        ))
    }
}

/// Deterministic ±20% jitter so a fleet of replicas started together does
/// not heartbeat in lockstep. Seeded from the member name and beat count —
/// no wall-clock entropy, so chaos runs replay identically.
fn jittered(base: Duration, salt: u64) -> Duration {
    let nanos = base.as_nanos() as u64;
    let band = nanos / 5; // 20% total width
    let offset = splitmix64(salt) % band.max(1);
    Duration::from_nanos(nanos - band / 2 + offset)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    /// A fake router: accepts one connection, records the request line,
    /// answers with the given status.
    fn fake_router(status: u16) -> (SocketAddr, std::sync::mpsc::Receiver<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            std::io::BufReader::new(&mut stream).read_line(&mut line).unwrap();
            let _ = tx.send(line);
            let _ = stream.write_all(
                format!("HTTP/1.1 {status} X\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            );
        });
        (addr, rx)
    }

    #[test]
    fn a_heartbeat_posts_name_and_addr_to_the_register_endpoint() {
        let (addr, rx) = fake_router(200);
        let config = RegisterConfig {
            router: addr.to_string(),
            name: "replica-7".into(),
            interval: Duration::from_secs(1),
        };
        let advertised: SocketAddr = "127.0.0.1:4321".parse().unwrap();
        send_registration(&config, advertised).unwrap();
        let line = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            line.starts_with("POST /fleet/register?name=replica-7&addr=127.0.0.1:4321 "),
            "unexpected request line: {line:?}"
        );
    }

    #[test]
    fn a_rejected_registration_is_an_error() {
        let (addr, _rx) = fake_router(400);
        let config = RegisterConfig {
            router: addr.to_string(),
            name: "r".into(),
            interval: Duration::from_secs(1),
        };
        let advertised: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(send_registration(&config, advertised).is_err());
    }

    #[test]
    fn jitter_stays_within_the_band_and_is_deterministic() {
        let base = Duration::from_millis(1000);
        for salt in 0..200 {
            let d = jittered(base, salt);
            assert!(d >= Duration::from_millis(900), "too short: {d:?}");
            assert!(d <= Duration::from_millis(1100), "too long: {d:?}");
            assert_eq!(d, jittered(base, salt), "same salt, same jitter");
        }
    }
}
