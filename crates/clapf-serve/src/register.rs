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
    let mut beat: u64 = crate::bundle::fingerprint64(config.name.as_bytes());
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
        // ±10%, seeded from the member name and beat count: replicas
        // started together do not heartbeat in lockstep, and no wall-clock
        // entropy enters, so chaos runs replay identically.
        let deadline = Instant::now() + jittered(config.interval, 0.1, beat);
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

/// Deterministic ±`frac` jitter around `base`, derived from splitmix64
/// over `salt`. Same salt, same jitter — chaos replays stay bit-stable.
/// The heartbeat and the fleet router's probes and breaker cooldowns all
/// jitter through this.
pub fn jittered(base: Duration, frac: f64, salt: u64) -> Duration {
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Map to [-frac, +frac] off the 53-bit mantissa range.
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let scale = 1.0 + frac * (2.0 * unit - 1.0);
    Duration::from_secs_f64((base.as_secs_f64() * scale).max(0.0))
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
        for salt in 0..200u64 {
            let j = jittered(base, 0.2, salt);
            assert_eq!(j, jittered(base, 0.2, salt), "same salt, same jitter");
            assert!(j >= Duration::from_millis(800), "{j:?}");
            assert!(j <= Duration::from_millis(1200), "{j:?}");
            let beat = jittered(base, 0.1, salt);
            assert!(beat >= Duration::from_millis(900), "heartbeat too short: {beat:?}");
            assert!(beat <= Duration::from_millis(1100), "heartbeat too long: {beat:?}");
        }
        assert_ne!(
            jittered(base, 0.2, 1),
            jittered(base, 0.2, 2),
            "different salts decorrelate"
        );
    }
}
