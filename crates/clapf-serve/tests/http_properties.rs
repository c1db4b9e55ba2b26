//! Property tests: the HTTP parsers are total over arbitrary byte streams.
//!
//! Whatever a client throws at the socket, `parse_request` must return
//! `Ok(Request)` or a typed `ParseError` — never panic — and every `Bad`
//! rejection must carry a 4xx/5xx status the connection loop can answer
//! with before closing. Three generators attack from different angles:
//! raw bytes, almost-valid request lines, and valid requests with fuzzed
//! query strings.
//!
//! The client half, `ResponseParser`, gets the same treatment: total over
//! raw and almost-valid bytes, fragment-invariant over keep-alive streams,
//! and an exact inverse of `Response::write_to`.

use clapf_serve::{
    parse_request, Feed, FeedParser, ParseError, Reply, Request, Response, ResponseFeed,
    ResponseParser,
};
use proptest::prelude::*;
use std::io::Cursor;

fn parse_bytes(bytes: &[u8]) -> Result<clapf_serve::Request, ParseError> {
    parse_request(&mut Cursor::new(bytes.to_vec()))
}

/// Every `Bad` rejection must be answerable: a 4xx/5xx with a reason.
fn assert_well_formed_outcome(out: &Result<clapf_serve::Request, ParseError>) {
    match out {
        Ok(req) => {
            assert!(req.path.starts_with('/'), "parsed path {:?}", req.path);
        }
        Err(ParseError::Bad { status, reason }) => {
            assert!(
                (400..=599).contains(status),
                "non-error status {status} ({reason})"
            );
            assert!(!reason.is_empty());
        }
        Err(ParseError::Eof | ParseError::Idle | ParseError::Io(_)) => {}
    }
}

proptest! {
    /// Raw fuzz: arbitrary bytes never panic the parser.
    #[test]
    fn parser_is_total_over_raw_bytes(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
    ) {
        let out = parse_bytes(&bytes);
        assert_well_formed_outcome(&out);
    }

    /// Structured fuzz: method-ish token, path-ish bytes, version-ish
    /// token, plus trailing noise. Exercises the deeper branches (request
    /// line splitting, header parsing) that raw bytes rarely reach.
    #[test]
    fn parser_is_total_over_almost_requests(
        method in proptest::collection::vec(33u8..127, 0..8),
        path in proptest::collection::vec(32u8..127, 0..64),
        version in proptest::collection::vec(33u8..127, 0..12),
        headers in proptest::collection::vec(
            proptest::collection::vec(32u8..127, 0..48),
            0..6,
        ),
    ) {
        let mut req: Vec<u8> = Vec::new();
        req.extend_from_slice(&method);
        req.push(b' ');
        req.extend_from_slice(&path);
        req.push(b' ');
        req.extend_from_slice(&version);
        req.extend_from_slice(b"\r\n");
        for h in &headers {
            req.extend_from_slice(h);
            req.extend_from_slice(b"\r\n");
        }
        req.extend_from_slice(b"\r\n");
        let out = parse_bytes(&req);
        assert_well_formed_outcome(&out);
    }

    /// Valid request frame with a fuzzed query string: either parses (with
    /// a decoded path) or rejects cleanly on a bad escape.
    #[test]
    fn query_fuzz_parses_or_rejects_cleanly(
        query in proptest::collection::vec(33u8..127, 0..96),
    ) {
        let mut req: Vec<u8> = Vec::new();
        req.extend_from_slice(b"GET /recommend/u1?");
        // Strip whitespace-ish bytes that would split the request line.
        let q: Vec<u8> = query.into_iter().filter(|&b| b != b' ').collect();
        req.extend_from_slice(&q);
        req.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let out = parse_bytes(&req);
        assert_well_formed_outcome(&out);
        if let Ok(r) = out {
            assert_eq!(r.path, "/recommend/u1");
        }
    }

    /// Truncating a valid request at any byte never panics and never
    /// yields a parsed request claiming the full path.
    #[test]
    fn truncation_at_any_point_is_safe(cut in 0usize..78) {
        let full = b"GET /recommend/user42?k=10 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        let cut = cut.min(full.len());
        let out = parse_bytes(&full[..cut]);
        assert_well_formed_outcome(&out);
        if cut < full.len() {
            // A truncated request must not parse successfully.
            assert!(out.is_err(), "cut at {cut} unexpectedly parsed");
        }
    }

    /// Incremental/one-shot identity: feeding a request stream in arbitrary
    /// fragments (down to one byte at a time) through `FeedParser` yields
    /// exactly the requests one-shot `parse_request` yields on the whole
    /// stream, in order, with identical fields.
    #[test]
    fn fragmented_feed_matches_one_shot(
        paths in proptest::collection::vec(
            proptest::collection::vec(97u8..123, 1..12)
                .prop_map(|b| String::from_utf8(b).expect("ascii")),
            1..5,
        ),
        ks in proptest::collection::vec(1u32..100, 1..5),
        cuts in proptest::collection::vec(0usize..512, 0..24),
    ) {
        let mut stream: Vec<u8> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let k = ks[i % ks.len()];
            stream.extend_from_slice(
                format!("GET /recommend/{p}?k={k} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
            );
        }
        let expected = one_shot_all(&stream);
        assert_eq!(expected.len(), paths.len());

        // Cut points define the fragmentation; dedup/sort to get a split.
        let mut splits: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        splits.sort_unstable();
        splits.dedup();
        let got = feed_all(&stream, &splits);
        assert_requests_eq(&got, &expected);
    }

    /// The worst fragmentation — every byte its own TCP segment — still
    /// matches one-shot parsing exactly.
    #[test]
    fn byte_at_a_time_feed_matches_one_shot(
        paths in proptest::collection::vec(
            proptest::collection::vec(97u8..123, 1..8)
                .prop_map(|b| String::from_utf8(b).expect("ascii")),
            1..4,
        ),
    ) {
        let mut stream: Vec<u8> = Vec::new();
        for p in &paths {
            stream.extend_from_slice(format!("GET /{p} HTTP/1.1\r\n\r\n").as_bytes());
        }
        let expected = one_shot_all(&stream);
        let every_byte: Vec<usize> = (1..stream.len()).collect();
        let got = feed_all(&stream, &every_byte);
        assert_requests_eq(&got, &expected);
    }

    /// The incremental parser is total: arbitrary bytes in arbitrary
    /// fragments never panic it, and every rejection is a typed 4xx/5xx.
    #[test]
    fn feed_parser_is_total_over_raw_fragments(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
        cuts in proptest::collection::vec(0usize..512, 0..16),
    ) {
        let mut splits: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
        splits.sort_unstable();
        splits.dedup();
        let mut p = FeedParser::new();
        let mut start = 0;
        for &s in splits.iter().chain(std::iter::once(&bytes.len())) {
            p.feed(&bytes[start..s]);
            start = s;
            loop {
                match p.next_request() {
                    Feed::Request(req) => assert!(req.path.starts_with('/')),
                    Feed::NeedMore | Feed::Closed => break,
                    Feed::Bad { status, reason } => {
                        assert!((400..=599).contains(&status), "status {status} ({reason})");
                        // Terminal: the transport closes here.
                        return Ok(());
                    }
                }
            }
        }
        p.close();
        loop {
            match p.next_request() {
                Feed::Request(req) => assert!(req.path.starts_with('/')),
                Feed::NeedMore => unreachable!("NeedMore after close()"),
                Feed::Closed => break,
                Feed::Bad { status, reason } => {
                    assert!((400..=599).contains(&status), "status {status} ({reason})");
                    break;
                }
            }
        }
    }
}

/// Parses every pipelined request in `stream` with the one-shot parser.
fn one_shot_all(stream: &[u8]) -> Vec<Request> {
    let mut cur = Cursor::new(stream.to_vec());
    let mut out = Vec::new();
    loop {
        match parse_request(&mut cur) {
            Ok(r) => out.push(r),
            Err(ParseError::Eof) => return out,
            Err(e) => panic!("one-shot parse failed on valid stream: {e:?}"),
        }
    }
}

/// Feeds `stream` to a `FeedParser` split at `splits` (sorted byte offsets)
/// and collects every parsed request.
fn feed_all(stream: &[u8], splits: &[usize]) -> Vec<Request> {
    let mut p = FeedParser::new();
    let mut out = Vec::new();
    let mut start = 0;
    let drain = |p: &mut FeedParser, out: &mut Vec<Request>| loop {
        match p.next_request() {
            Feed::Request(r) => out.push(r),
            Feed::NeedMore | Feed::Closed => break,
            Feed::Bad { status, reason } => {
                panic!("incremental parse rejected valid stream: {status} {reason}")
            }
        }
    };
    for &s in splits.iter().chain(std::iter::once(&stream.len())) {
        p.feed(&stream[start..s]);
        start = s;
        drain(&mut p, &mut out);
    }
    p.close();
    drain(&mut p, &mut out);
    out
}

fn assert_requests_eq(got: &[Request], expected: &[Request]) {
    assert_eq!(got.len(), expected.len(), "request count differs");
    for (g, e) in got.iter().zip(expected) {
        assert_eq!(g.method, e.method);
        assert_eq!(g.path, e.path);
        assert_eq!(g.query, e.query);
        assert_eq!(g.keep_alive, e.keep_alive);
    }
}

// ------------------------------------------------------- response parser

const CONTENT_TYPES: [&str; 3] = [
    "application/json",
    "text/plain; version=0.0.4",
    "application/octet-stream",
];
const EXTRA_HEADERS: [&str; 4] = [
    "Retry-After",
    "X-Clapf-Degraded",
    "X-Clapf-Trace",
    "Cache-Control",
];

/// Printable, space-free ASCII: a header value the parser's trim keeps.
fn token(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(33u8..127, 0..max)
        .prop_map(|b| String::from_utf8(b).expect("ascii"))
}

/// A response `Response::write_to` can render — status, content type,
/// extra headers, any-Unicode body — and its connection mode.
fn any_response() -> impl Strategy<Value = (Response, bool)> {
    (
        (100u16..600, 0..CONTENT_TYPES.len()),
        proptest::collection::vec((0..EXTRA_HEADERS.len(), token(12)), 0..4),
        proptest::collection::vec((0u32..0x11_0000).prop_filter_map("scalar value", char::from_u32), 0..64),
        0u8..2,
    )
        .prop_map(|((status, ct), headers, body, keep_alive)| {
            let response = Response {
                status,
                content_type: CONTENT_TYPES[ct],
                extra_headers: headers
                    .into_iter()
                    .map(|(name, value)| (EXTRA_HEADERS[name], value))
                    .collect(),
                body: body.into_iter().collect(),
            };
            (response, keep_alive == 1)
        })
}

/// Almost a response head: each part is usually well-formed and sometimes
/// junk, so the deeper branches (status parsing, framing headers) run.
fn almost_response_head() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u8..3, token(9)),
        (0u8..3, 0u16..1000, token(5)),
        proptest::collection::vec((0u8..5, 0u16..1000, token(24)), 0..5),
    )
        .prop_map(|((v, version), (c, code, status), headers)| {
            let version = match v {
                0 => "HTTP/1.1".to_string(),
                1 => "HTTP/1.0".to_string(),
                _ => version,
            };
            let status = if c < 2 { code.to_string() } else { status };
            let mut head = format!("{version} {status} X\r\n");
            for (kind, n, junk) in headers {
                head.push_str(&match kind {
                    0 => format!("Content-Length: {n}"),
                    1 => "Connection: close".to_string(),
                    2 => "Transfer-Encoding: chunked".to_string(),
                    3 => format!("X-Any: {junk}"),
                    _ => junk,
                });
                head.push_str("\r\n");
            }
            head.push_str("\r\n");
            head.into_bytes()
        })
}

fn rendered(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    response.write_to(&mut out, keep_alive).unwrap();
    out
}

/// Feeds `stream` to a `ResponseParser` split at `splits` (sorted byte
/// offsets) and collects every parsed response; panics on a rejection.
fn feed_responses(stream: &[u8], splits: &[usize]) -> Vec<Reply> {
    let mut p = ResponseParser::new();
    let mut out = Vec::new();
    let mut start = 0;
    let drain = |p: &mut ResponseParser, out: &mut Vec<Reply>| loop {
        match p.next_response() {
            ResponseFeed::Response(r) => out.push(r),
            ResponseFeed::NeedMore | ResponseFeed::Closed => break,
            ResponseFeed::Bad { reason } => panic!("valid response stream rejected: {reason}"),
        }
    };
    for &s in splits.iter().chain(std::iter::once(&stream.len())) {
        p.feed(&stream[start..s]);
        start = s;
        drain(&mut p, &mut out);
    }
    p.close();
    drain(&mut p, &mut out);
    out
}

/// Runs `bytes` split at `splits` through a `ResponseParser` to its end:
/// every verdict must be a response, `NeedMore` before the close, or a
/// terminal `Bad` with a reason.
fn assert_total(bytes: &[u8], splits: &[usize]) {
    let mut p = ResponseParser::new();
    let mut start = 0;
    for &s in splits.iter().chain(std::iter::once(&bytes.len())) {
        p.feed(&bytes[start..s]);
        start = s;
        loop {
            match p.next_response() {
                ResponseFeed::Response(r) => assert!((100..=999).contains(&r.status)),
                ResponseFeed::NeedMore | ResponseFeed::Closed => break,
                ResponseFeed::Bad { reason } => {
                    assert!(!reason.is_empty(), "Bad without a reason");
                    return; // Terminal: the client drops the connection.
                }
            }
        }
    }
    p.close();
    loop {
        match p.next_response() {
            ResponseFeed::Response(r) => assert!((100..=999).contains(&r.status)),
            ResponseFeed::NeedMore => unreachable!("NeedMore after close()"),
            ResponseFeed::Closed => break,
            ResponseFeed::Bad { reason } => {
                assert!(!reason.is_empty(), "Bad without a reason");
                break;
            }
        }
    }
}

fn splits_of(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut splits: Vec<usize> = cuts.iter().map(|&c| c % (len + 1)).collect();
    splits.sort_unstable();
    splits.dedup();
    splits
}

proptest! {
    /// Raw fuzz: arbitrary bytes in arbitrary fragments never panic the
    /// response parser, and every rejection says why.
    #[test]
    fn response_parser_is_total_over_raw_fragments(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
        cuts in proptest::collection::vec(0usize..512, 0..16),
    ) {
        assert_total(&bytes, &splits_of(&cuts, bytes.len()));
    }

    /// Structured fuzz: almost-valid heads plus a body, in fragments.
    #[test]
    fn response_parser_is_total_over_almost_responses(
        head in almost_response_head(),
        body in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..64),
        cuts in proptest::collection::vec(0usize..256, 0..8),
    ) {
        let bytes: Vec<u8> = head.into_iter().chain(body).collect();
        assert_total(&bytes, &splits_of(&cuts, bytes.len()));
    }

    /// Fragment invariance: back-to-back keep-alive responses fed in
    /// arbitrary fragments parse exactly as the whole stream does.
    #[test]
    fn fragmented_responses_match_the_whole_stream(
        responses in proptest::collection::vec(any_response(), 1..5),
        cuts in proptest::collection::vec(0usize..1024, 0..24),
    ) {
        let stream: Vec<u8> = responses.iter().flat_map(|(r, _)| rendered(r, true)).collect();
        let whole = feed_responses(&stream, &[]);
        assert_eq!(whole.len(), responses.len());
        assert_eq!(feed_responses(&stream, &splits_of(&cuts, stream.len())), whole);
    }

    /// The worst fragmentation — one byte per read — still matches.
    #[test]
    fn byte_at_a_time_responses_match_the_whole_stream(
        responses in proptest::collection::vec(any_response(), 1..3),
    ) {
        let stream: Vec<u8> = responses.iter().flat_map(|(r, _)| rendered(r, true)).collect();
        let every_byte: Vec<usize> = (1..stream.len()).collect();
        assert_eq!(feed_responses(&stream, &every_byte), feed_responses(&stream, &[]));
    }

    /// The parser inverts `Response::write_to`: status, content type,
    /// extra headers, body and connection mode all come back.
    #[test]
    fn rendered_responses_parse_back_to_their_fields((response, keep_alive) in any_response()) {
        let got = feed_responses(&rendered(&response, keep_alive), &[]);
        prop_assert_eq!(got.len(), 1);
        let r = &got[0];
        prop_assert_eq!(r.status, response.status);
        prop_assert_eq!(r.content_type.as_str(), response.content_type);
        let want: Vec<(String, String)> = response
            .extra_headers
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        prop_assert_eq!(&r.extra_headers, &want);
        prop_assert_eq!(&r.body, response.body.as_bytes());
        prop_assert_eq!(r.keep_alive, keep_alive);
    }
}
