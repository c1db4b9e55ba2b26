//! A hand-rolled HTTP/1.1 subset over `std::io` — just what the
//! recommendation endpoints need, hardened against hostile input.
//!
//! Scope: request line + headers (no request bodies beyond a bounded
//! discard), `GET`/`POST`, percent-decoded paths and query strings,
//! keep-alive. Everything else is answered with a 4xx/5xx and the
//! connection is closed. The parser is total: any byte stream produces
//! `Ok(Request)` or a typed [`ParseError`] — never a panic — which the
//! `http_parser_never_panics` property test pins down.
//!
//! The client side reads responses with [`ResponseParser`], built on the
//! same line reader and caps: a status line, headers, and exactly
//! `Content-Length` body bytes. `clapf-serve` always frames that way, so
//! anything else (no `Content-Length`, `Transfer-Encoding`, an oversized
//! body, EOF mid-response) is a typed rejection.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest request body we are willing to read (and discard).
pub const MAX_BODY: usize = 64 * 1024;
/// Largest response body a client accepts (a `/metrics` dump is tens of
/// KB; this bounds a hostile server, it is not a sizing knob).
pub const MAX_RESPONSE_BODY: usize = 16 << 20;

/// The request methods the server routes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// A parsed request, decoded and bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Percent-decoded path (always starts with `/`).
    pub path: String,
    /// Percent-decoded query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Upstream trace id from an `X-Clapf-Trace` header (16 hex digits),
    /// set when a fleet router propagated its trace across the hop. `None`
    /// for direct clients or unparsable values — never an error.
    pub trace_parent: Option<u64>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before sending anything — the normal
    /// end of a keep-alive session, not an error to report.
    Eof,
    /// A read timed out before the first byte of a request arrived; the
    /// caller's poll loop decides whether to keep waiting.
    Idle,
    /// An I/O error mid-request (including timeouts after the first byte).
    Io(std::io::Error),
    /// The bytes are not an acceptable request; answer with `status` and
    /// close.
    Bad {
        /// HTTP status to answer with (4xx/5xx).
        status: u16,
        /// Human-readable reason for the response body.
        reason: &'static str,
    },
}

impl ParseError {
    fn bad(status: u16, reason: &'static str) -> Self {
        ParseError::Bad { status, reason }
    }
}

/// Wall-clock budget for reading one request, measured from its **first
/// byte** — an idle keep-alive connection spends nothing. Once started, a
/// request that has not fully arrived by the deadline is rejected with 408,
/// which defeats slow-loris clients trickling header bytes forever (each
/// byte resets the per-read socket timeout, so only a total cap helps).
struct ReadBudget {
    cap: Option<Duration>,
    started: Option<Instant>,
}

impl ReadBudget {
    fn new(cap: Option<Duration>) -> Self {
        ReadBudget { cap, started: None }
    }

    /// Marks the request as started (idempotent); call on the first byte.
    /// Always recorded — besides enforcing the cap, the instant is the
    /// natural start of a request trace (see `parse_request_deadline_timed`).
    fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    fn check(&self) -> Result<(), ParseError> {
        if let (Some(cap), Some(started)) = (self.cap, self.started) {
            if started.elapsed() > cap {
                return Err(ParseError::bad(408, "request read exceeded time budget"));
            }
        }
        Ok(())
    }
}

/// Reads one CRLF- (or LF-) terminated line, rejecting lines longer than
/// `cap` bytes. `first` marks the first read of a message, where EOF and
/// timeouts mean "no message" rather than "broken message".
fn read_line_capped<R: BufRead>(
    r: &mut R,
    cap: usize,
    over_cap: ParseError,
    first: bool,
    budget: &mut ReadBudget,
) -> Result<String, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        budget.check()?;
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if first && line.is_empty() {
                    return Err(ParseError::Idle);
                }
                return Err(ParseError::bad(408, "request timed out"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        if buf.is_empty() {
            // EOF.
            if first && line.is_empty() {
                return Err(ParseError::Eof);
            }
            return Err(ParseError::bad(400, "connection closed mid-head"));
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map(|p| p + 1).unwrap_or(buf.len());
        if line.len() + take > cap + 2 {
            // +2 tolerates the CRLF itself on an exactly-cap-sized line.
            // Consume what we peeked so a caller that keeps the connection
            // cannot re-read it, then reject.
            r.consume(take);
            return Err(over_cap);
        }
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        budget.start();
        if nl.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ParseError::bad(400, "head is not valid UTF-8"));
        }
    }
}

/// Percent-decodes `s`; `plus_is_space` applies the query-string `+` rule.
fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, ParseError> {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16));
                let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16));
                match (hi, lo) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => return Err(ParseError::bad(400, "bad percent-escape")),
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| ParseError::bad(400, "escape is not valid UTF-8"))
}

/// Splits and decodes `a=1&b=two` into ordered pairs.
fn parse_query(q: &str) -> Result<Vec<(String, String)>, ParseError> {
    let mut out = Vec::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok(out)
}

/// Reads and parses one request from `r`.
///
/// Total over arbitrary input: every outcome is `Ok` or a typed error.
/// Request bodies (announced via `Content-Length`) are read and discarded
/// up to [`MAX_BODY`]; chunked transfer encoding is rejected.
pub fn parse_request<R: BufRead>(r: &mut R) -> Result<Request, ParseError> {
    parse_request_deadline_timed(r, None).map(|(req, _)| req)
}

/// [`parse_request`] with a **total** wall-clock cap on reading one request
/// (line + headers + body), measured from the request's first byte so idle
/// keep-alive connections are unaffected. Exceeding the cap is a
/// [`ParseError::Bad`] 408. `None` means uncapped.
///
/// Also returns the instant the request's first byte was read off the
/// socket — the natural start of a request trace, so a traced request's
/// parse span covers the read as well as the header parsing.
pub fn parse_request_deadline_timed<R: BufRead>(
    r: &mut R,
    read_cap: Option<Duration>,
) -> Result<(Request, Instant), ParseError> {
    let mut budget = ReadBudget::new(read_cap);
    let req = parse_with_budget(r, &mut budget)?;
    Ok((req, budget.started.unwrap_or_else(Instant::now)))
}

fn parse_with_budget<R: BufRead>(
    r: &mut R,
    budget: &mut ReadBudget,
) -> Result<Request, ParseError> {
    let line = read_line_capped(
        r,
        MAX_REQUEST_LINE,
        ParseError::bad(414, "request line too long"),
        true,
        budget,
    )?;
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::bad(400, "malformed request line")),
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => return Err(ParseError::bad(405, "method not allowed")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::bad(505, "HTTP version not supported"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::bad(400, "target must be an absolute path"));
    }

    // Headers: we care about Connection, Content-Length and the absence of
    // Transfer-Encoding; everything else is skipped (but still bounded).
    let mut keep_alive = true; // HTTP/1.1 default
    let mut content_length: usize = 0;
    let mut trace_parent = None;
    let mut n_headers = 0;
    loop {
        let header = read_line_capped(
            r,
            MAX_HEADER_LINE,
            ParseError::bad(431, "header line too long"),
            false,
            budget,
        )?;
        if header.is_empty() {
            break;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(ParseError::bad(431, "too many headers"));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::bad(400, "malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::bad(400, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::bad(501, "transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("x-clapf-trace") {
            // Malformed ids are dropped, not rejected: trace propagation is
            // best-effort and must never fail a request.
            trace_parent = u64::from_str_radix(value, 16).ok().filter(|&v| v != 0);
        }
    }

    // Discard any body so the next keep-alive request starts clean.
    if content_length > MAX_BODY {
        return Err(ParseError::bad(413, "request body too large"));
    }
    let mut remaining = content_length;
    while remaining > 0 {
        budget.check()?;
        let buf = match r.fill_buf() {
            Ok([]) => return Err(ParseError::bad(400, "connection closed mid-body")),
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ParseError::bad(408, "request timed out")),
        };
        let take = buf.len().min(remaining);
        r.consume(take);
        remaining -= take;
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method,
        path: percent_decode(raw_path, false)?,
        query: parse_query(raw_query)?,
        keep_alive,
        trace_parent,
    })
}

/// What [`FeedParser::next_request`] found in the bytes fed so far.
#[derive(Debug)]
pub enum Feed {
    /// A complete request was parsed (and its bytes consumed).
    Request(Request),
    /// The buffered bytes are a valid *prefix* of a request; feed more.
    NeedMore,
    /// The peer closed cleanly between requests — end of the session.
    Closed,
    /// The bytes can never become an acceptable request; answer with
    /// `status` and close.
    Bad {
        /// HTTP status to answer with (4xx/5xx).
        status: u16,
        /// Human-readable reason for the response body.
        reason: &'static str,
    },
}

/// Upper bound on bytes one request can occupy before the parser must have
/// produced a verdict: the request line, every header line the parser will
/// read before rejecting (`MAX_HEADERS` + the one that trips "too many"),
/// the body cap, and slack for line terminators. A `NeedMore` with more
/// than this buffered would be a parser bug; [`FeedParser`] turns it into
/// a 431 instead of buffering unboundedly.
const FEED_MAX: usize = MAX_REQUEST_LINE + (MAX_HEADERS + 2) * MAX_HEADER_LINE + MAX_BODY + 4096;

/// A [`BufRead`] over a byte slice that reports `WouldBlock` — not EOF —
/// when the bytes run out, unless `eof` marks the stream as closed. Feeding
/// the one-shot parser through this adapter is what makes incremental
/// parsing *by construction* identical to one-shot parsing: the parser
/// itself cannot tell a socket from a replayed buffer.
struct FeedReader<'a> {
    buf: &'a [u8],
    pos: usize,
    eof: bool,
}

impl std::io::Read for FeedReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for FeedReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos < self.buf.len() {
            Ok(&self.buf[self.pos..])
        } else if self.eof {
            Ok(&[])
        } else {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Incremental (push-style) request parsing for nonblocking transports.
///
/// The event loop reads whatever bytes the socket has, [`feed`]s them here,
/// and asks for [`next_request`] until it answers [`Feed::NeedMore`]. The
/// implementation re-runs the one-shot total parser ([`parse_request`])
/// over the buffered bytes through a reader that reports `WouldBlock` at
/// the end of the buffer: a mid-request `WouldBlock` (surfaced by the
/// parser as its timeout rejection) means "incomplete, keep the bytes",
/// every other outcome is final. Because the *same* parser runs over the
/// *same* bytes, a request parsed from arbitrarily fragmented reads is
/// bit-identical to one parsed in one shot — the
/// `fragmented_feed_matches_one_shot` property test pins this down.
///
/// Re-parsing an incomplete request from its first byte on every feed is
/// quadratic in the worst case, but the request size is capped (see
/// [`FEED_MAX`], ~600 KiB) so the cost is bounded; typical requests are a
/// few hundred bytes and complete in one or two feeds.
///
/// [`feed`]: FeedParser::feed
/// [`next_request`]: FeedParser::next_request
#[derive(Default)]
pub struct FeedParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed messages.
    start: usize,
    /// The peer closed its write side; no more bytes will arrive.
    eof: bool,
}

impl FeedParser {
    /// An empty parser for a fresh connection.
    pub fn new() -> Self {
        FeedParser::default()
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: drop the consumed prefix once it dominates the
        // buffer, so a long keep-alive session does not grow memory.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end-of-stream: the peer closed its write side.
    pub fn close(&mut self) {
        self.eof = true;
    }

    /// Unconsumed bytes currently buffered (a partial request in flight).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to parse one request out of the buffered bytes.
    pub fn next_request(&mut self) -> Feed {
        let mut r = self.reader();
        let result = parse_request(&mut r);
        let used = r.pos;
        match result {
            Ok(req) => {
                self.start += used;
                Feed::Request(req)
            }
            Err(e) => self.stalled(e, "request too large"),
        }
    }

    fn reader(&self) -> FeedReader<'_> {
        FeedReader {
            buf: &self.buf[self.start..],
            pos: 0,
            eof: self.eof,
        }
    }

    /// The verdict on a message the one-shot parser could not finish
    /// (never [`Feed::Request`]). A 408 here is the parser hitting the
    /// reader's `WouldBlock` mid message: more bytes may still complete it.
    /// (The wall-clock budget that also answers 408 is not armed on this
    /// path, and a closed stream reads EOF, never `WouldBlock` — so the
    /// mapping is unambiguous.) Unbounded buffering is impossible: the
    /// line, header-count and body caps all reject before [`FEED_MAX`];
    /// past it, `too_large` is a 431.
    fn stalled(&self, err: ParseError, too_large: &'static str) -> Feed {
        match err {
            ParseError::Eof => Feed::Closed,
            ParseError::Idle => Feed::NeedMore,
            ParseError::Bad { status: 408, .. } if !self.eof => {
                if self.buffered() > FEED_MAX {
                    Feed::Bad {
                        status: 431,
                        reason: too_large,
                    }
                } else {
                    Feed::NeedMore
                }
            }
            ParseError::Bad { status, reason } => Feed::Bad { status, reason },
            // Unreachable with FeedReader (its only error is WouldBlock,
            // which the parser maps to Idle/408 above), but stay total.
            ParseError::Io(_) => Feed::Bad {
                status: 400,
                reason: "malformed message",
            },
        }
    }
}

/// A response as a client reads it. The body stays raw bytes, so a proxy
/// relays it byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value (empty when the server sent none).
    pub content_type: String,
    /// Every header except `Content-Type`, `Content-Length` and
    /// `Connection`, in the order received.
    pub extra_headers: Vec<(String, String)>,
    /// Exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl Reply {
    /// The first extra header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, for JSON and text endpoints.
    pub fn text(&self) -> std::io::Result<&str> {
        std::str::from_utf8(&self.body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response body is not UTF-8")
        })
    }
}

/// What [`ResponseParser::next_response`] found in the bytes fed so far.
#[derive(Debug)]
pub enum ResponseFeed {
    /// A complete response was parsed (and its bytes consumed).
    Response(Reply),
    /// The buffered bytes are a valid *prefix* of a response; feed more.
    NeedMore,
    /// The server closed cleanly between responses.
    Closed,
    /// The bytes can never become an acceptable response; drop the
    /// connection.
    Bad {
        /// Human-readable reason.
        reason: &'static str,
    },
}

/// Parses one response head (status line + headers) off `r`: the reply
/// without its body, and the body's `Content-Length`. The status on a
/// rejection is never sent — the client drops the connection — but a
/// proxy answering for a malformed reply would say 502.
fn parse_response_head<R: BufRead>(r: &mut R) -> Result<(Reply, usize), ParseError> {
    let bad = |reason| ParseError::bad(502, reason);
    let mut budget = ReadBudget::new(None);
    let line = read_line_capped(r, MAX_REQUEST_LINE, bad("status line too long"), true, &mut budget)?;
    let mut parts = line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") && code.len() == 3 => {
            code.bytes().all(|b| b.is_ascii_digit()).then(|| code.parse().ok()).flatten()
        }
        _ => None,
    };
    let mut reply = Reply {
        status: status.ok_or_else(|| bad("malformed status line"))?,
        keep_alive: true,
        ..Reply::default()
    };
    let mut content_length = None;
    for n in 0.. {
        let header = read_line_capped(r, MAX_HEADER_LINE, bad("header line too long"), false, &mut budget)?;
        if header.is_empty() {
            break;
        }
        if n == MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("malformed header"))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?)
            }
            "content-type" => reply.content_type = value.to_string(),
            "connection" => reply.keep_alive = !value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => return Err(bad("transfer-encoding not supported")),
            _ => reply.extra_headers.push((name.to_string(), value.to_string())),
        }
    }
    match content_length {
        None => Err(bad("missing content-length")),
        Some(len) if len > MAX_RESPONSE_BODY => Err(bad("response body too large")),
        Some(len) => Ok((reply, len)),
    }
}

/// Incremental response parsing: the client half of [`FeedParser`], over
/// the same buffer.
///
/// Feed it whatever the socket returned and ask for [`next_response`]
/// until it answers [`ResponseFeed::NeedMore`]. The head is re-parsed from
/// the first unconsumed byte with the same line reader, caps and
/// `WouldBlock`-at-the-end [`FeedReader`] the request parser uses, so a
/// response read in fragments is identical to one read whole; the body is
/// then sliced out once `Content-Length` bytes have arrived. Any byte
/// stream yields a response or a typed verdict, never a panic — the
/// response-parser properties in `tests/http_properties.rs` pin both down.
///
/// [`next_response`]: ResponseParser::next_response
#[derive(Default)]
pub struct ResponseParser(FeedParser);

impl ResponseParser {
    /// An empty parser for a fresh connection.
    pub fn new() -> Self {
        ResponseParser::default()
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.feed(bytes);
    }

    /// Marks end-of-stream: the server closed its write side.
    pub fn close(&mut self) {
        self.0.close();
    }

    /// Tries to parse one response out of the buffered bytes.
    pub fn next_response(&mut self) -> ResponseFeed {
        let p = &mut self.0;
        let mut r = p.reader();
        let head = parse_response_head(&mut r);
        let body_at = r.pos;
        let (mut reply, len) = match head {
            Ok(head) => head,
            Err(e) => {
                return match p.stalled(e, "response head too large") {
                    Feed::Closed => ResponseFeed::Closed,
                    Feed::Bad { reason, .. } => ResponseFeed::Bad { reason },
                    Feed::NeedMore | Feed::Request(_) => ResponseFeed::NeedMore,
                }
            }
        };
        match p.buf[p.start..].get(body_at..body_at + len) {
            Some(body) => {
                reply.body = body.to_vec();
                p.start += body_at + len;
                ResponseFeed::Response(reply)
            }
            None if p.eof => ResponseFeed::Bad {
                reason: "connection closed mid-body",
            },
            None => ResponseFeed::NeedMore,
        }
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers (e.g. `Retry-After` on a load-shed 503), written
    /// verbatim after the standard ones.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// Adds one extra header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// A JSON error envelope: `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = clapf_telemetry::JsonValue::Obj(vec![(
            "error".into(),
            clapf_telemetry::JsonValue::Str(message.into()),
        )])
        .render();
        Response::json(status, body)
    }

    /// Writes the response (status line, headers, body) to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(s: &str) -> Result<Request, ParseError> {
        parse_request(&mut Cursor::new(s.as_bytes().to_vec()))
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/healthz");
        assert!(r.query.is_empty());
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_query_and_percent_escapes() {
        let r = parse("GET /recommend/u%2F1?k=5&tag=a+b%21 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/recommend/u/1");
        assert_eq!(r.query_value("k"), Some("5"));
        assert_eq!(r.query_value("tag"), Some("a b!"));
        assert_eq!(r.query_value("missing"), None);
    }

    #[test]
    fn trace_parent_header_is_parsed_best_effort() {
        let r = parse("GET / HTTP/1.1\r\nX-Clapf-Trace: 00ff00ff00ff00ff\r\n\r\n").unwrap();
        assert_eq!(r.trace_parent, Some(0x00ff_00ff_00ff_00ff));
        // Case-insensitive header name, like every other header.
        let r = parse("GET / HTTP/1.1\r\nx-clapf-trace: 1a\r\n\r\n").unwrap();
        assert_eq!(r.trace_parent, Some(0x1a));
        // Garbage and zero ids are dropped silently, never a parse error.
        let r = parse("GET / HTTP/1.1\r\nX-Clapf-Trace: nope\r\n\r\n").unwrap();
        assert_eq!(r.trace_parent, None);
        let r = parse("GET / HTTP/1.1\r\nX-Clapf-Trace: 0\r\n\r\n").unwrap();
        assert_eq!(r.trace_parent, None);
        let r = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.trace_parent, None);
    }

    #[test]
    fn connection_close_is_honored() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn lf_only_line_endings_are_accepted() {
        let r = parse("GET /x HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(r.path, "/x");
    }

    fn expect_bad(input: &str, want_status: u16) {
        match parse(input) {
            Err(ParseError::Bad { status, .. }) => assert_eq!(status, want_status, "{input:?}"),
            other => panic!("expected Bad({want_status}) for {input:?}, got {other:?}"),
        }
    }

    #[test]
    fn rejections_carry_the_right_status() {
        expect_bad("NONSENSE\r\n\r\n", 400);
        expect_bad("DELETE /x HTTP/1.1\r\n\r\n", 405);
        expect_bad("GET /x SPDY/3\r\n\r\n", 505);
        expect_bad("GET relative HTTP/1.1\r\n\r\n", 400);
        expect_bad("GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400);
        expect_bad("GET /%zz HTTP/1.1\r\n\r\n", 400);
        expect_bad("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400);
        expect_bad("GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501);
        expect_bad(
            "POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            413,
        );
    }

    #[test]
    fn oversized_request_line_is_414() {
        let input = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        expect_bad(&input, 414);
    }

    #[test]
    fn oversized_header_is_431_and_too_many_headers_is_431() {
        let input = format!("GET /x HTTP/1.1\r\nX: {}\r\n\r\n", "b".repeat(MAX_HEADER_LINE));
        expect_bad(&input, 431);
        let mut input = String::from("GET /x HTTP/1.1\r\n");
        for n in 0..=MAX_HEADERS {
            input.push_str(&format!("X-{n}: v\r\n"));
        }
        input.push_str("\r\n");
        expect_bad(&input, 431);
    }

    #[test]
    fn empty_input_is_eof_and_partial_is_bad() {
        assert!(matches!(parse(""), Err(ParseError::Eof)));
        assert!(matches!(
            parse("GET /x HTT"),
            Err(ParseError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nHost: y"),
            Err(ParseError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn body_is_discarded_for_keep_alive() {
        let input = "POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n";
        let mut cur = Cursor::new(input.as_bytes().to_vec());
        let first = parse_request(&mut cur).unwrap();
        assert_eq!(first.method, Method::Post);
        assert_eq!(first.path, "/reload");
        let second = parse_request(&mut cur).unwrap();
        assert_eq!(second.path, "/healthz");
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"a\":1}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"), "{text}");
    }

    #[test]
    fn error_envelope_escapes_the_message() {
        let r = Response::error(404, "no user \"x\"");
        assert_eq!(r.body, "{\"error\":\"no user \\\"x\\\"\"}");
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        Response::error(503, "overloaded")
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        let headers = text.split_once("\r\n\r\n").unwrap().0;
        assert!(headers.contains("Retry-After"), "header landed in the body");
    }

    /// Feeds one byte per `fill_buf`, sleeping between bytes — a slow-loris
    /// client that never triggers a per-read socket timeout.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("parse_request uses fill_buf/consume only")
        }
    }

    impl BufRead for Trickle {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos > 0 {
                std::thread::sleep(self.delay);
            }
            let end = (self.pos + 1).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }
        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn slow_loris_trips_the_read_budget() {
        let mut r = Trickle {
            data: b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            pos: 0,
            delay: Duration::from_millis(5),
        };
        match parse_request_deadline_timed(&mut r, Some(Duration::from_millis(1))) {
            Err(ParseError::Bad { status: 408, .. }) => {}
            other => panic!("expected 408 budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn read_budget_does_not_charge_idle_connections() {
        // No bytes at all: the budget clock never starts, so an empty
        // stream is still a clean Eof (idle keep-alive), not a 408.
        let mut cur = Cursor::new(Vec::new());
        assert!(matches!(
            parse_request_deadline_timed(&mut cur, Some(Duration::ZERO)),
            Err(ParseError::Eof)
        ));
        // A prompt, complete request well under the cap parses fine.
        let mut cur = Cursor::new(b"GET /x HTTP/1.1\r\n\r\n".to_vec());
        let (r, _) = parse_request_deadline_timed(&mut cur, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(r.path, "/x");
    }

    #[test]
    fn feed_parser_handles_byte_at_a_time_arrival() {
        let input = b"GET /recommend/u1?k=3 HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut p = FeedParser::new();
        for (i, b) in input.iter().enumerate() {
            p.feed(std::slice::from_ref(b));
            match p.next_request() {
                Feed::NeedMore => assert!(i + 1 < input.len(), "complete request not parsed"),
                Feed::Request(r) => {
                    assert_eq!(i + 1, input.len(), "parsed before the final byte");
                    assert_eq!(r.path, "/recommend/u1");
                    assert_eq!(r.query_value("k"), Some("3"));
                    return;
                }
                other => panic!("unexpected {other:?} after {} bytes", i + 1),
            }
        }
        panic!("never produced a request");
    }

    #[test]
    fn feed_parser_splits_pipelined_requests() {
        let mut p = FeedParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        match p.next_request() {
            Feed::Request(r) => assert_eq!(r.path, "/a"),
            other => panic!("first: {other:?}"),
        }
        match p.next_request() {
            Feed::Request(r) => {
                assert_eq!(r.path, "/b");
                assert!(!r.keep_alive);
            }
            other => panic!("second: {other:?}"),
        }
        assert!(matches!(p.next_request(), Feed::NeedMore));
    }

    #[test]
    fn feed_parser_reports_bad_requests_and_eof() {
        let mut p = FeedParser::new();
        p.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(p.next_request(), Feed::Bad { status: 400, .. }));

        // EOF with a buffered partial request is a hard 400, not NeedMore.
        let mut p = FeedParser::new();
        p.feed(b"GET /x HTT");
        assert!(matches!(p.next_request(), Feed::NeedMore));
        p.close();
        assert!(matches!(p.next_request(), Feed::Bad { status: 400, .. }));

        // EOF on an empty buffer is a clean close.
        let mut p = FeedParser::new();
        p.close();
        assert!(matches!(p.next_request(), Feed::Closed));
    }

    #[test]
    fn feed_parser_discards_bodies_between_pipelined_requests() {
        let mut p = FeedParser::new();
        p.feed(b"POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert!(matches!(p.next_request(), Feed::NeedMore), "body incomplete");
        p.feed(b"loGET /healthz HTTP/1.1\r\n\r\n");
        match p.next_request() {
            Feed::Request(r) => assert_eq!(r.path, "/reload"),
            other => panic!("first: {other:?}"),
        }
        match p.next_request() {
            Feed::Request(r) => assert_eq!(r.path, "/healthz"),
            other => panic!("second: {other:?}"),
        }
    }

    #[test]
    fn feed_parser_caps_unbounded_buffers() {
        let mut p = FeedParser::new();
        // A "request" that never completes: header bytes forever.
        let chunk = vec![b'a'; 64 * 1024];
        p.feed(b"GET /x HTTP/1.1\r\n");
        let mut verdict = None;
        for _ in 0..((FEED_MAX / chunk.len()) + 2) {
            p.feed(&chunk);
            match p.next_request() {
                Feed::NeedMore => continue,
                other => {
                    verdict = Some(other);
                    break;
                }
            }
        }
        match verdict {
            // 431 from the header-line cap or the feed cap — either bound
            // fires before the buffer grows without limit.
            Some(Feed::Bad { status, .. }) => assert_eq!(status, 431),
            other => panic!("oversized feed not rejected: {other:?}"),
        }
        assert!(p.buffered() <= FEED_MAX + chunk.len());
    }

    fn responses(input: &[u8]) -> (Vec<Reply>, ResponseFeed) {
        let mut p = ResponseParser::new();
        p.feed(input);
        p.close();
        let mut got = Vec::new();
        loop {
            match p.next_response() {
                ResponseFeed::Response(r) => got.push(r),
                other => return (got, other),
            }
        }
    }

    #[test]
    fn response_parser_reads_head_fields_and_exact_body() {
        let (got, end) = responses(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Content-Length: 2\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}",
        );
        assert!(matches!(end, ResponseFeed::Closed), "{end:?}");
        let r = &got[0];
        assert_eq!((r.status, r.content_type.as_str()), (503, "application/json"));
        assert_eq!(r.body, b"{}");
        assert!(!r.keep_alive);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.extra_headers, vec![("Retry-After".to_string(), "1".to_string())]);
    }

    #[test]
    fn response_parser_rejects_what_it_cannot_frame() {
        let cases: [(&str, &[u8]); 7] = [
            ("missing content-length", b"HTTP/1.1 200 OK\r\n\r\nhello"),
            ("transfer-encoding", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"),
            ("too large", b"HTTP/1.1 200 OK\r\nContent-Length: 16777217\r\n\r\n"),
            ("status line", b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n"),
            ("status line", b"SPDY/3 200 OK\r\nContent-Length: 0\r\n\r\n"),
            ("mid-head", b"HTTP/1.1 200 OK\r\nContent-"),
            ("mid-body", b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort"),
        ];
        for (want, input) in cases {
            match responses(input) {
                (got, ResponseFeed::Bad { reason }) if got.is_empty() => {
                    assert!(reason.contains(want), "{reason:?} for {input:?}")
                }
                other => panic!("expected Bad({want}) for {input:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn keep_alive_frames_back_to_back_responses_and_flags_degraded() {
        use std::io::BufReader;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
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
        let mut conn = crate::client::Conn::open(addr, Duration::from_secs(30)).unwrap();
        let degraded = |r: &Reply| r.header("X-Clapf-Degraded").is_some();
        let r = conn.get("/a").unwrap();
        assert_eq!((r.status, degraded(&r), r.text().unwrap()), (200, false, "hello"));
        let r = conn.get("/b").unwrap();
        assert_eq!((r.status, degraded(&r), r.text().unwrap()), (503, true, "no"));
        server.join().unwrap();
        assert!(conn.get("/c").is_err(), "a closed connection is an error");
    }
}
