//! Request inputs and the keep-alive HTTP client the load threads use.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How a load thread picks the user of its next request: Zipf(`s`) over
/// `0..n` by rank, ranks mapped to users through a seeded permutation so
/// that popular users are scattered over the id space (and so over the
/// cache shards and the ring).
#[derive(Clone, Debug)]
pub struct Popularity {
    cdf: Vec<f64>,
    users: Vec<u32>,
}

impl Popularity {
    /// Zipf(`s`) over `n` users, the rank→user permutation drawn from `seed`.
    pub fn zipf(n: u32, s: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / f64::from(rank).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut users: Vec<u32> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2195_7E11);
        users.shuffle(&mut rng);
        Popularity { cdf, users }
    }

    /// Number of distinct users requests are drawn from.
    pub fn population(&self) -> u32 {
        self.users.len() as u32
    }

    /// The seeded user stream of load thread `conn`: the same
    /// `(seed, conn)` always yields the same sequence.
    pub fn stream(&self, seed: u64, conn: u64) -> UserStream<'_> {
        UserStream {
            pop: self,
            rng: SmallRng::seed_from_u64(
                seed ^ conn.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }
}

/// An endless, deterministic sequence of request users.
pub struct UserStream<'a> {
    pop: &'a Popularity,
    rng: SmallRng,
}

impl Iterator for UserStream<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let Popularity { cdf, users } = self.pop;
        let x: f64 = self.rng.gen_range(0.0..1.0);
        Some(users[cdf.partition_point(|&c| c < x).min(cdf.len() - 1)])
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Send-to-last-byte time.
    pub rtt: Duration,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends `GET path`, tagging it with `X-Clapf-Trace` when `trace` is
    /// set, and reads the whole response.
    pub fn get(&mut self, path: &str, trace: Option<u64>) -> io::Result<Reply> {
        let started = Instant::now();
        let req = match trace {
            Some(id) => {
                format!("GET {path} HTTP/1.1\r\nHost: b\r\nX-Clapf-Trace: {id:016x}\r\n\r\n")
            }
            None => format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n"),
        };
        self.writer.write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            rtt: started.elapsed(),
        })
    }
}

/// One-shot `GET` on a fresh connection that is closed afterwards, so it
/// never pins a router worker.
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    Conn::open(addr)?.get(path, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_streams_are_deterministic_per_seed_and_connection() {
        for pop in [
            Popularity::zipf(943, 1.1, 7),
            Popularity::zipf(5_000, 1.1, 8),
        ] {
            let a: Vec<u32> = pop.stream(42, 0).take(500).collect();
            let b: Vec<u32> = pop.stream(42, 0).take(500).collect();
            let other_conn: Vec<u32> = pop.stream(42, 1).take(500).collect();
            let other_seed: Vec<u32> = pop.stream(43, 0).take(500).collect();
            assert_eq!(a, b);
            assert_ne!(a, other_conn);
            assert_ne!(a, other_seed);
            assert!(a.iter().all(|&u| u < pop.population()));
        }
    }

    #[test]
    fn zipf_permutation_is_seeded_and_skewed() {
        let a = Popularity::zipf(1_000, 1.1, 1);
        let b = Popularity::zipf(1_000, 1.1, 1);
        let c = Popularity::zipf(1_000, 1.1, 2);
        let users = |p: &Popularity| p.users.clone();
        assert_eq!(users(&a), users(&b));
        assert_ne!(users(&a), users(&c));
        let top = users(&a)[0];
        let hits = a.stream(9, 0).take(10_000).filter(|&u| u == top).count();
        // Rank 1 of Zipf(1.1) over 1000 carries ~17% of the mass.
        assert!((1_200..2_400).contains(&hits), "{hits}");
    }
}
