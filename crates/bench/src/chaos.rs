//! Deterministic chaos harness for the fleet tier (ISSUE 10).
//!
//! Boots a real fleet — an in-process `clapf-fleet` router fronting N
//! `clapf serve` **child processes** that self-register over
//! `/fleet/register` — puts it under closed-loop `/recommend` load, and
//! replays a seeded schedule of fault events against it:
//!
//! * **kill** — SIGKILL a replica; its lease must expire and evict the
//!   slot within one lease timeout, and a restart must re-admit it.
//! * **hang** — arm a long `serve.handler` delay on one replica; hedged
//!   reads and the circuit breaker must mask it.
//! * **slow-read** — a milder handler delay; hedges should fire and win.
//! * **torn-commit** — arm `serve.bundle.commit` on one replica and drive
//!   a fleet-wide rollout; it must abort and restore the old bundle on
//!   every replica (this is where mixed-generation responses would leak).
//! * **heartbeat-blackhole** — arm `serve.register.send` on a healthy
//!   replica; it must be evicted on lease expiry and re-admitted once its
//!   heartbeats resume.
//!
//! The event *schedule* (order, targets, fault parameters) is derived
//! entirely from the seed; wall-clock timing of course is not. Throughout
//! the run every 200 response is checked against a pre-captured baseline
//! (the `"items"` list the fleet served before any fault), so a response
//! scored from the aborted candidate bundle — a mixed-generation response
//! — is caught no matter when it happens. Invariants asserted:
//!
//! 1. zero mixed-generation responses,
//! 2. zero non-typed errors (every failure is a 503; no resets, no 500s),
//! 3. per-event-class error rates stay under their bounds,
//! 4. the ring converges (evicts) within one lease timeout of a kill,
//! 5. after full recovery the router's responses are byte-identical to a
//!    direct replica's.
//!
//! Used by the `chaos` bin (soak, or `--smoke` for the tier-1 leg), which
//! writes `results/BENCH_fleet_chaos.json`.

use crate::fixture::{scratch_dir, Fixture};
use crate::HTTP_TIMEOUT;
use clapf_fleet::{
    rollout, start_router, FleetSpec, HedgePolicy, Replica, ReplicaConfig, ReplicaSpec,
    RouterConfig, RouterHandle,
};
use clapf_serve::Conn;
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything that shapes one chaos run. Build via [`ChaosOptions::smoke`]
/// or [`ChaosOptions::soak`] and override fields as needed.
pub struct ChaosOptions {
    /// The `clapf` binary replicas are spawned from (see [`locate_clapf`]).
    pub exe: PathBuf,
    /// Report label (`"smoke"` / `"soak"`).
    pub label: String,
    /// Seed for the event schedule and the load clients.
    pub seed: u64,
    /// Replica process count.
    pub replicas: usize,
    /// Closed-loop load client threads.
    pub clients: usize,
    /// Users in the synthetic bundle (every request targets one of these).
    pub users: u32,
    /// Items in the synthetic bundle.
    pub items: u32,
    /// Factor dimension of the synthetic model.
    pub dim: usize,
    /// Membership lease TTL granted by the router.
    pub lease_ttl: Duration,
    /// Load-only warmup before the first event.
    pub warmup: Duration,
    /// Minimum wall clock devoted to each event (inject + recover + calm).
    pub event_window: Duration,
    /// Load-only tail after the last event, before the final byte-identity
    /// sweep.
    pub settle: Duration,
}

impl ChaosOptions {
    /// The tier-1 smoke shape: 2 replicas, short windows, ~12s total.
    pub fn smoke(exe: PathBuf, seed: u64) -> ChaosOptions {
        ChaosOptions {
            exe,
            label: "smoke".into(),
            seed,
            replicas: 2,
            clients: 2,
            users: 96,
            items: 400,
            dim: 8,
            lease_ttl: Duration::from_millis(600),
            warmup: Duration::from_millis(1200),
            event_window: Duration::from_millis(2200),
            settle: Duration::from_millis(800),
        }
    }

    /// The acceptance soak: 3 replicas, ≥30s under load.
    pub fn soak(exe: PathBuf, seed: u64) -> ChaosOptions {
        ChaosOptions {
            exe,
            label: "soak".into(),
            seed,
            replicas: 3,
            clients: 4,
            users: 160,
            items: 800,
            dim: 16,
            lease_ttl: Duration::from_millis(1000),
            warmup: Duration::from_secs(3),
            event_window: Duration::from_millis(5600),
            settle: Duration::from_secs(2),
        }
    }

    fn heartbeat_ms(&self) -> u64 {
        (self.lease_ttl.as_millis() as u64 / 3).max(50)
    }
}

/// Finds the `clapf` binary for replica processes: an explicit path, the
/// `CLAPF_BIN` environment variable, or a sibling of the running bench
/// binary (`target/<profile>/clapf`, present after `cargo build`).
pub fn locate_clapf(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("--clapf {}: no such file", p.display()));
    }
    if let Ok(p) = std::env::var("CLAPF_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("CLAPF_BIN={}: no such file", p.display()));
    }
    if let Ok(me) = std::env::current_exe() {
        if let Some(dir) = me.parent() {
            let p = dir.join("clapf");
            if p.is_file() {
                return Ok(p);
            }
        }
    }
    Err("cannot find the clapf binary: build it (cargo build --release -p clapf-cli) and pass \
         --clapf target/release/clapf (or set CLAPF_BIN)"
        .into())
}

/// The five scripted fault classes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EventClass {
    Kill,
    Hang,
    SlowRead,
    TornCommit,
    HeartbeatBlackhole,
}

impl EventClass {
    const ALL: [EventClass; 5] = [
        EventClass::Kill,
        EventClass::Hang,
        EventClass::SlowRead,
        EventClass::TornCommit,
        EventClass::HeartbeatBlackhole,
    ];

    fn name(self) -> &'static str {
        match self {
            EventClass::Kill => "kill",
            EventClass::Hang => "hang",
            EventClass::SlowRead => "slow_read",
            EventClass::TornCommit => "torn_commit",
            EventClass::HeartbeatBlackhole => "heartbeat_blackhole",
        }
    }

    /// Per-class error-rate bound over the event's window. Failover,
    /// hedging and degraded serving should keep the observed rates far
    /// below these; the bounds only have to exclude "the fleet fell over".
    fn error_bound(self) -> f64 {
        match self {
            EventClass::Kill => 0.10,
            EventClass::Hang => 0.20,
            EventClass::SlowRead => 0.10,
            EventClass::TornCommit => 0.15,
            EventClass::HeartbeatBlackhole => 0.05,
        }
    }
}

/// One chaos event as measured.
#[derive(Default, Serialize)]
pub struct EventReport {
    /// Event class name (`kill`, `hang`, …).
    pub class: String,
    /// Slot index of the targeted replica.
    pub replica: usize,
    /// Injection time, seconds since load start.
    pub at_secs: f64,
    /// Window the per-class stats below are computed over.
    pub window_secs: f64,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Non-200 responses inside the window.
    pub errors: u64,
    /// `errors / requests`.
    pub error_rate: f64,
    /// The class's bound on `error_rate`.
    pub error_bound: f64,
    /// Responses that were neither 200 nor a typed 503 (must be zero).
    pub untyped_errors: u64,
    /// 200s served stale from the degraded-mode fallback cache.
    pub degraded: u64,
    /// Injection → fleet fully recovered (class-specific definition).
    pub time_to_recover_ms: u64,
    /// Kill/blackhole only: slot evicted within one lease TTL (+ sweep
    /// slack) of heartbeats stopping.
    pub converged_within_lease: Option<bool>,
    /// Human note (what was armed, how recovery was detected).
    pub note: String,
}

/// Invariant verdicts, straight from the ISSUE's acceptance list.
#[derive(Serialize)]
pub struct ChaosInvariants {
    /// 200s whose items diverged from the pre-chaos baseline.
    pub mixed_generation_responses: u64,
    /// Transport errors / non-200-non-503 statuses across the whole run.
    pub untyped_errors: u64,
    /// Every event's error rate stayed under its class bound.
    pub error_rates_bounded: bool,
    /// Every kill/blackhole eviction landed within one lease TTL.
    pub converged_within_lease: bool,
    /// Post-recovery router responses byte-identical to a direct replica.
    pub recovered_byte_identical: bool,
}

/// The full run, as written to `results/BENCH_fleet_chaos.json`.
#[derive(Serialize)]
pub struct ChaosReport {
    /// `smoke` or `soak`.
    pub label: String,
    /// The schedule seed.
    pub seed: u64,
    /// Replica process count.
    pub replicas: usize,
    /// Load client threads.
    pub clients: usize,
    /// Users in the synthetic bundle.
    pub users: u32,
    /// Membership lease TTL.
    pub lease_ttl_ms: u64,
    /// Wall clock under load.
    pub duration_secs: f64,
    /// Total requests across all clients.
    pub requests: u64,
    /// Typed 503s.
    pub errors_typed: u64,
    /// Everything else that wasn't a 200 (must be zero).
    pub errors_untyped: u64,
    /// 200s stamped `X-Clapf-Degraded`.
    pub degraded_responses: u64,
    /// `fleet.hedge.fired` after the run.
    pub hedge_fired: u64,
    /// `fleet.hedge.wins` after the run.
    pub hedge_wins: u64,
    /// `hedge_wins / hedge_fired`.
    pub hedge_win_rate: f64,
    /// `fleet.breaker.trip` after the run.
    pub breaker_trips: u64,
    /// `fleet.breaker.close` after the run.
    pub breaker_closes: u64,
    /// `fleet.lease.expired` after the run.
    pub lease_expirations: u64,
    /// `fleet.member.readmitted` after the run.
    pub readmissions: u64,
    /// Per-event measurements, in schedule order.
    pub events: Vec<EventReport>,
    /// Invariant verdicts.
    pub invariants: ChaosInvariants,
    /// Everything that went wrong, human-readable. Empty on a clean run.
    pub failures: Vec<String>,
    /// The one bit tier-1 greps for.
    pub pass: bool,
}

/// One load-client observation.
struct Rec {
    at: f64,
    status: u16, // 0 = transport error
    degraded: bool,
    content_ok: bool,
}

/// Runs the full chaos schedule. `Err` is an environment problem (binary
/// missing, fleet never booted); invariant violations come back as a
/// report with `pass: false` so the caller can still write the JSON.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut failures: Vec<String> = Vec::new();

    let dir = scratch_dir("chaos");
    // The live bundle and a rollout candidate with a different fingerprint
    // (fresh factor init over the same data).
    let fixture = Fixture::new(opts.users, opts.items, opts.dim);
    let bundle_path = dir.join("bundle.json");
    fixture.save("chaos", opts.seed, &bundle_path)?;
    let candidate_path = dir.join("candidate.json");
    fixture.save("chaos candidate", opts.seed ^ 0xC4A05, &candidate_path)?;

    // Router first (in-process), replicas register themselves as they boot.
    let registry = Arc::new(Registry::new());
    let router = start_router(
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            workers: opts.clients + 2,
            health_interval: Duration::from_millis(150),
            lease_ttl: opts.lease_ttl,
            hedge: HedgePolicy {
                fixed_delay: Some(Duration::from_millis(30)),
                budget_ratio: 0.3,
                ..HedgePolicy::default()
            },
            fallback_cache: 2 * opts.users as usize,
            ..RouterConfig::default()
        },
        registry,
    )
    .map_err(|e| format!("start router: {e}"))?;

    let mut replicas = Vec::new();
    let mut bundles = Vec::new();
    for i in 0..opts.replicas {
        let bundle = dir.join(format!("replica-{i}.json"));
        std::fs::copy(&bundle_path, &bundle)
            .map_err(|e| format!("copy bundle for replica {i}: {e}"))?;
        let r = Replica::spawn(ReplicaConfig {
            exe: opts.exe.clone(),
            args: vec![
                "serve".into(),
                "--load".into(),
                bundle.display().to_string(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--register".into(),
                router.addr().to_string(),
                "--name".into(),
                format!("replica-{i}"),
                "--heartbeat-ms".into(),
                opts.heartbeat_ms().to_string(),
                "--fault-control".into(),
            ],
            announce_timeout: Duration::from_secs(30),
        })
        .map_err(|e| format!("spawn replica {i}: {e}"))?;
        bundles.push(bundle);
        replicas.push(r);
    }

    // Registration is the replicas' own job here — no supervisor-side
    // register_member call: the harness waits for the heartbeats to land.
    wait_for("all replicas registered and alive", Duration::from_secs(30), || {
        let Ok((200, body)) = fetch(router.addr(), "GET", "/fleet/status") else {
            return false;
        };
        (0..opts.replicas).all(|i| {
            slot_field(&body, &format!("replica-{i}"), "alive").as_deref() == Some("true")
        })
    })?;

    // Baseline: the items list every user gets before any fault. Every 200
    // for the rest of the run is checked against this.
    let mut baselines = Vec::with_capacity(opts.users as usize);
    for u in 0..opts.users {
        let path = format!("/recommend/u{u}?k={K}");
        let body = retry_get_200(router.addr(), &path, Duration::from_secs(10))
            .map_err(|e| format!("baseline for u{u}: {e}"))?;
        let items = items_part(&body)
            .ok_or_else(|| format!("baseline for u{u}: no items in {body:?}"))?;
        baselines.push(items.to_string());
    }
    let baselines = Arc::new(baselines);

    // Load clients: closed-loop keep-alive GETs over the whole user space.
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..opts.clients {
        let addr = router.addr();
        let stop = Arc::clone(&stop);
        let baselines = Arc::clone(&baselines);
        let users = opts.users;
        let seed = opts.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(c as u64 + 1));
        workers.push(
            std::thread::Builder::new()
                .name(format!("chaos-client-{c}"))
                .spawn(move || client_loop(addr, users, seed, t0, &stop, &baselines))
                .map_err(|e| format!("spawn client {c}: {e}"))?,
        );
    }

    std::thread::sleep(opts.warmup);

    // The seeded schedule: every class once, in a seed-shuffled order,
    // each aimed at a seed-chosen replica.
    let mut schedule = EventClass::ALL;
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.gen_range(0..(i + 1) as u64) as usize);
    }
    let mut events = Vec::new();
    for class in schedule {
        let target = rng.gen_range(0..opts.replicas as u64) as usize;
        let window_start = t0.elapsed();
        eprintln!(
            "chaos: t+{:.1}s {} -> replica-{target}",
            window_start.as_secs_f64(),
            class.name()
        );
        let mut ev = run_event(
            class,
            target,
            opts,
            &router,
            &mut replicas,
            &bundles,
            &candidate_path,
            &mut failures,
        );
        ev.at_secs = window_start.as_secs_f64();
        // Give the fleet the rest of the window to settle under plain load.
        let elapsed = t0.elapsed() - window_start;
        if elapsed < opts.event_window {
            std::thread::sleep(opts.event_window - elapsed);
        }
        ev.window_secs = (t0.elapsed() - window_start).as_secs_f64();
        events.push(ev);
    }

    std::thread::sleep(opts.settle);
    stop.store(true, Ordering::Relaxed);
    let mut recs: Vec<Vec<Rec>> = Vec::new();
    for w in workers {
        recs.push(w.join().map_err(|_| "client thread panicked".to_string())?);
    }
    let duration_secs = t0.elapsed().as_secs_f64();

    // Post-recovery byte-identity: for a sample of users, the router's
    // response body must be byte-identical to what one of the replicas
    // answers directly (the router relays byte-for-byte, so the replica
    // that actually served it must match exactly).
    let byte_identical = check_byte_identity(opts, &router, &replicas, &mut failures);
    check_fingerprints(&bundle_path, &replicas, &mut failures);

    // Counters, over the same /metrics surface operators would scrape.
    let metrics = fetch(router.addr(), "GET", "/metrics")
        .map(|(_, body)| body)
        .unwrap_or_default();
    let counter = |name: &str| metric_value(&metrics, name);

    for r in replicas {
        r.shutdown(Duration::from_secs(5));
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Fill the per-event request stats from the client records.
    let all: Vec<&Rec> = recs.iter().flatten().collect();
    for ev in &mut events {
        let (mut n, mut errors, mut untyped, mut degraded) = (0u64, 0u64, 0u64, 0u64);
        for r in all
            .iter()
            .filter(|r| r.at >= ev.at_secs && r.at < ev.at_secs + ev.window_secs)
        {
            n += 1;
            if r.status != 200 {
                errors += 1;
            }
            if r.status != 200 && r.status != 503 {
                untyped += 1;
            }
            if r.degraded {
                degraded += 1;
            }
        }
        ev.requests = n;
        ev.errors = errors;
        ev.error_rate = if n == 0 { 0.0 } else { errors as f64 / n as f64 };
        ev.untyped_errors = untyped;
        ev.degraded = degraded;
        if ev.error_rate > ev.error_bound {
            failures.push(format!(
                "{}: error rate {:.3} exceeds bound {:.2}",
                ev.class, ev.error_rate, ev.error_bound
            ));
        }
    }

    let requests = all.len() as u64;
    let errors_typed = all.iter().filter(|r| r.status == 503).count() as u64;
    let errors_untyped = all
        .iter()
        .filter(|r| r.status != 200 && r.status != 503)
        .count() as u64;
    let degraded_responses = all.iter().filter(|r| r.degraded).count() as u64;
    let mixed = all
        .iter()
        .filter(|r| r.status == 200 && !r.content_ok)
        .count() as u64;
    if mixed > 0 {
        failures.push(format!("{mixed} mixed-generation responses"));
    }
    if errors_untyped > 0 {
        failures.push(format!("{errors_untyped} untyped errors (resets/unexpected statuses)"));
    }
    let converged = events
        .iter()
        .all(|e| e.converged_within_lease.unwrap_or(true));
    if !converged {
        failures.push("ring did not converge within one lease timeout".into());
    }

    let hedge_fired = counter("fleet.hedge.fired");
    let hedge_wins = counter("fleet.hedge.wins");
    if hedge_fired == 0 || hedge_wins == 0 {
        failures.push(format!(
            "hedging never paid off (fired {hedge_fired}, wins {hedge_wins})"
        ));
    }
    let lease_expirations = counter("fleet.lease.expired");
    let readmissions = counter("fleet.member.readmitted");
    if lease_expirations == 0 || readmissions == 0 {
        failures.push(format!(
            "membership churn missing (lease expirations {lease_expirations}, readmissions \
             {readmissions})"
        ));
    }

    let error_rates_bounded = events.iter().all(|e| e.error_rate <= e.error_bound);
    let pass = failures.is_empty();
    Ok(ChaosReport {
        label: opts.label.clone(),
        seed: opts.seed,
        replicas: opts.replicas,
        clients: opts.clients,
        users: opts.users,
        lease_ttl_ms: opts.lease_ttl.as_millis() as u64,
        duration_secs,
        requests,
        errors_typed,
        errors_untyped,
        degraded_responses,
        hedge_fired,
        hedge_wins,
        hedge_win_rate: if hedge_fired == 0 {
            0.0
        } else {
            hedge_wins as f64 / hedge_fired as f64
        },
        breaker_trips: counter("fleet.breaker.trip"),
        breaker_closes: counter("fleet.breaker.close"),
        lease_expirations,
        readmissions,
        events,
        invariants: ChaosInvariants {
            mixed_generation_responses: mixed,
            untyped_errors: errors_untyped,
            error_rates_bounded,
            converged_within_lease: converged,
            recovered_byte_identical: byte_identical,
        },
        failures,
        pass,
    })
}

/// Requested list length for every `/recommend` in the harness.
const K: usize = 10;

/// Injects one event and measures its recovery; request stats are filled
/// in later from the client records.
#[allow(clippy::too_many_arguments)]
fn run_event(
    class: EventClass,
    target: usize,
    opts: &ChaosOptions,
    router: &RouterHandle,
    replicas: &mut [Replica],
    bundles: &[PathBuf],
    candidate: &std::path::Path,
    failures: &mut Vec<String>,
) -> EventReport {
    let name = format!("replica-{target}");
    let lease_ms = opts.lease_ttl.as_millis() as u64;
    // Lease expiry is checked against wall clock, but the *eviction* is
    // observed through a polled status endpoint — allow sweep + poll slack.
    let convergence_slack = Duration::from_millis(500);
    let mut report = EventReport {
        class: class.name().into(),
        replica: target,
        error_bound: class.error_bound(),
        ..EventReport::default()
    };
    let t0 = Instant::now();
    match class {
        EventClass::Kill => {
            replicas[target].kill();
            let evicted = wait_for(
                "killed slot evicted on lease expiry",
                opts.lease_ttl * 4 + Duration::from_secs(2),
                || slot_lease(router.addr(), &name).as_deref() == Some("\"expired\""),
            );
            match evicted {
                Ok(d) => {
                    report.converged_within_lease =
                        Some(d <= opts.lease_ttl + convergence_slack);
                    report.note = format!("evicted after {}ms; ", d.as_millis());
                }
                Err(e) => {
                    report.converged_within_lease = Some(false);
                    failures.push(format!("kill: {e}"));
                }
            }
            match replicas[target].restart() {
                Ok(addr) => {
                    // Re-admission is the *replica's* job: its heartbeat
                    // re-registers the same name into the same slot.
                    match wait_for(
                        "restarted replica re-admitted",
                        Duration::from_secs(10),
                        || {
                            slot_field(&status_body(router.addr()), &name, "alive").as_deref()
                                == Some("true")
                                && slot_lease(router.addr(), &name).as_deref()
                                    != Some("\"expired\"")
                        },
                    ) {
                        Ok(_) => report.note.push_str(&format!("readmitted on {addr}")),
                        Err(e) => failures.push(format!("kill: {e}")),
                    }
                }
                Err(e) => failures.push(format!("kill: restart failed: {e}")),
            }
            report.time_to_recover_ms = t0.elapsed().as_millis() as u64;
        }
        EventClass::Hang | EventClass::SlowRead => {
            let (ms, times) = match class {
                // Long enough that an unhedged read would blow its window,
                // bounded so the armed replica drains within the event.
                EventClass::Hang => ((opts.event_window.as_millis() as u64 / 7).max(200), 4),
                _ => ((opts.event_window.as_millis() as u64 / 45).max(40), 12),
            };
            let addr = replicas[target].addr();
            let arm = format!("/fault/arm?point=serve.handler&mode=delay&ms={ms}&times={times}");
            if let Err(e) = expect_200(addr, "POST", &arm) {
                failures.push(format!("{}: arming failed: {e}", class.name()));
            }
            report.note = format!("armed serve.handler delay {ms}ms x{times}; ");
            // Recovered = the replica answers /healthz promptly twice in a
            // row (the probes themselves burn through leftover armed hits).
            let mut prompt = 0;
            match wait_for("handler delay drained", Duration::from_secs(25), || {
                let t = Instant::now();
                let ok = matches!(fetch(addr, "GET", "/healthz"), Ok((200, _)));
                if ok && t.elapsed() < Duration::from_millis(ms.min(150)) {
                    prompt += 1;
                } else {
                    prompt = 0;
                }
                prompt >= 2
            }) {
                Ok(d) => {
                    report.time_to_recover_ms = d.as_millis() as u64;
                    report.note.push_str("drained");
                }
                Err(e) => failures.push(format!("{}: {e}", class.name())),
            }
        }
        EventClass::TornCommit => {
            let addr = replicas[target].addr();
            if let Err(e) = expect_200(
                addr,
                "POST",
                "/fault/arm?point=serve.bundle.commit&mode=io&times=1",
            ) {
                failures.push(format!("torn_commit: arming failed: {e}"));
            }
            let spec = FleetSpec {
                router: Some(router.addr()),
                replicas: replicas
                    .iter()
                    .zip(bundles)
                    .map(|(r, b)| ReplicaSpec {
                        addr: r.addr(),
                        bundle: b.clone(),
                    })
                    .collect(),
            };
            match rollout(&spec, candidate) {
                Err(e) => {
                    report.time_to_recover_ms = t0.elapsed().as_millis() as u64;
                    report.note = format!("rollout aborted as expected: {e}");
                }
                Ok(_) => {
                    // The torn commit went through — every baseline is now
                    // wrong and the mixed-generation count will explode.
                    failures
                        .push("torn_commit: rollout succeeded despite armed commit fault".into());
                }
            }
        }
        EventClass::HeartbeatBlackhole => {
            // Enough swallowed beats to overshoot the lease comfortably.
            let times = (3 * lease_ms / opts.heartbeat_ms()).max(4) + 2;
            let addr = replicas[target].addr();
            let arm = format!("/fault/arm?point=serve.register.send&mode=io&times={times}");
            if let Err(e) = expect_200(addr, "POST", &arm) {
                failures.push(format!("heartbeat_blackhole: arming failed: {e}"));
            }
            report.note = format!("blackholed {times} heartbeats; ");
            match wait_for(
                "blackholed slot evicted",
                opts.lease_ttl * 6 + Duration::from_secs(2),
                || slot_lease(router.addr(), &name).as_deref() == Some("\"expired\""),
            ) {
                Ok(d) => {
                    report.converged_within_lease =
                        Some(d <= opts.lease_ttl + convergence_slack);
                    report.note.push_str(&format!("evicted after {}ms; ", d.as_millis()));
                }
                Err(e) => {
                    report.converged_within_lease = Some(false);
                    failures.push(format!("heartbeat_blackhole: {e}"));
                }
            }
            match wait_for(
                "resumed heartbeats re-admit the slot",
                Duration::from_millis(times * opts.heartbeat_ms()) + Duration::from_secs(5),
                || slot_lease(router.addr(), &name).is_some_and(|l| l != "\"expired\""),
            ) {
                Ok(_) => report.time_to_recover_ms = t0.elapsed().as_millis() as u64,
                Err(e) => failures.push(format!("heartbeat_blackhole: {e}")),
            }
        }
    }
    report
}

/// One closed-loop load client; returns its observations.
fn client_loop(
    addr: SocketAddr,
    users: u32,
    seed: u64,
    t0: Instant,
    stop: &AtomicBool,
    baselines: &[String],
) -> Vec<Rec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut recs = Vec::new();
    let mut conn = Conn::open(addr, HTTP_TIMEOUT).ok();
    while !stop.load(Ordering::Relaxed) {
        let u = rng.gen_range(0..users as u64) as u32;
        let path = format!("/recommend/u{u}?k={K}");
        let at = t0.elapsed().as_secs_f64();
        // One transparent reconnect: a keep-alive the server closed between
        // requests is not an error. A failure on a fresh connection is.
        let out = match conn.as_mut().map(|c| c.get(&path)) {
            Some(Ok(r)) => Ok(r),
            _ => Conn::open(addr, HTTP_TIMEOUT).and_then(|mut fresh| {
                let r = fresh.get(&path);
                conn = Some(fresh);
                r
            }),
        };
        recs.push(match out {
            Ok(r) => Rec {
                at,
                status: r.status,
                degraded: r.header("X-Clapf-Degraded").is_some(),
                content_ok: r.status != 200
                    || r.text().ok().and_then(items_part).map(str::as_bytes)
                        == Some(baselines[u as usize].as_bytes()),
            },
            Err(_) => {
                conn = None;
                Rec {
                    at,
                    status: 0,
                    degraded: false,
                    content_ok: true,
                }
            }
        });
    }
    recs
}

/// Post-recovery sweep: warm each probe user once through the router, then
/// require the router's body to be byte-identical to a direct fetch from
/// at least one replica (the one it relayed from).
fn check_byte_identity(
    opts: &ChaosOptions,
    router: &RouterHandle,
    replicas: &[Replica],
    failures: &mut Vec<String>,
) -> bool {
    let sample = opts.users.min(48);
    for u in 0..sample {
        let _ = fetch(router.addr(), "GET", &format!("/recommend/u{u}?k={K}"));
    }
    let mut ok = true;
    for u in 0..sample {
        let path = format!("/recommend/u{u}?k={K}");
        let via_router = match retry_get_200(router.addr(), &path, Duration::from_secs(10)) {
            Ok(b) => b,
            Err(e) => {
                failures.push(format!("byte-identity: router GET u{u}: {e}"));
                ok = false;
                continue;
            }
        };
        let direct: Vec<String> = replicas
            .iter()
            .filter_map(|r| match fetch(r.addr(), "GET", &path) {
                Ok((200, body)) => Some(body),
                _ => None,
            })
            .collect();
        if !direct.contains(&via_router) {
            failures.push(format!(
                "byte-identity: router body for u{u} matches no direct replica response"
            ));
            ok = false;
        }
    }
    ok
}

/// After the torn commit every replica must still serve the original
/// bundle's fingerprint.
fn check_fingerprints(
    bundle_path: &std::path::Path,
    replicas: &[Replica],
    failures: &mut Vec<String>,
) {
    let Ok(bytes) = std::fs::read(bundle_path) else {
        failures.push("fingerprint check: cannot read original bundle".into());
        return;
    };
    let want = format!("{:016x}", clapf_serve::fingerprint64(&bytes));
    for (i, r) in replicas.iter().enumerate() {
        match fetch(r.addr(), "GET", "/bundle/fingerprint") {
            Ok((200, body)) if body.contains(&want) => {}
            Ok((_, body)) => failures.push(format!(
                "replica {i} fingerprint drifted after torn commit: {body}"
            )),
            Err(e) => failures.push(format!("replica {i} fingerprint check: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Control-plane and parsing helpers.

/// One-shot request through the shared client: status and UTF-8 body.
fn fetch(addr: SocketAddr, method: &str, path: &str) -> Result<(u16, String), String> {
    let reply = clapf_serve::call(addr, method, path, HTTP_TIMEOUT).map_err(|e| e.to_string())?;
    let body = String::from_utf8(reply.body).map_err(|e| e.to_string())?;
    Ok((reply.status, body))
}

fn expect_200(addr: SocketAddr, method: &str, path: &str) -> Result<String, String> {
    match fetch(addr, method, path)? {
        (200, body) => Ok(body),
        (status, body) => Err(format!("{method} {path}: {status} {body}")),
    }
}

/// GETs until a 200 lands (the fleet may be mid-failover).
fn retry_get_200(addr: SocketAddr, path: &str, deadline: Duration) -> Result<String, String> {
    let t0 = Instant::now();
    loop {
        match fetch(addr, "GET", path) {
            Ok((200, body)) => return Ok(body),
            other if t0.elapsed() > deadline => {
                return Err(format!("no 200 within {deadline:?}: last {other:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Polls `check` until it holds; returns how long it took.
fn wait_for(
    what: &str,
    deadline: Duration,
    mut check: impl FnMut() -> bool,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    loop {
        if check() {
            return Ok(t0.elapsed());
        }
        if t0.elapsed() > deadline {
            return Err(format!("timed out after {deadline:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

/// The model-content part of a `/recommend` body: everything from
/// `"items":` on. The fields before it (`generation`, `cached`) are
/// replica-local and legitimately vary across restarts; the items are the
/// part a mixed-generation response would corrupt.
fn items_part(body: &str) -> Option<&str> {
    body.find("\"items\":").map(|i| &body[i..])
}

fn status_body(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/fleet/status")
        .map(|(_, b)| b)
        .unwrap_or_default()
}

/// The raw JSON value of `field` in the `/fleet/status` entry for `name`
/// (fields rendered after `"name"`: `alive`, `lease_ms`, `breaker`).
fn slot_field(status: &str, name: &str, field: &str) -> Option<String> {
    let at = status.find(&format!("\"name\":\"{name}\""))?;
    let rest = &status[at..];
    let f = rest.find(&format!("\"{field}\":"))? + field.len() + 3;
    let rest = &rest[f..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].to_string())
}

fn slot_lease(addr: SocketAddr, name: &str) -> Option<String> {
    slot_field(&status_body(addr), name, "lease_ms")
}

/// Reads one counter from a Prometheus text dump (dotted names render with
/// underscores). Missing counters read as 0 — never created means never
/// incremented.
fn metric_value(metrics: &str, dotted: &str) -> u64 {
    let flat = dotted.replace('.', "_");
    for line in metrics.lines() {
        if let Some(v) = line.strip_prefix(&format!("{flat} ")) {
            return v.trim().parse::<f64>().unwrap_or(0.0) as u64;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_field_extracts_values_from_a_status_body() {
        let body = r#"{"paused":false,"replicas":[{"slot":0,"name":"replica-0","addr":"1.2.3.4:9","alive":true,"inflight":0,"lease_ms":512,"breaker":"closed"},{"slot":1,"name":"replica-1","addr":"1.2.3.4:10","alive":false,"inflight":2,"lease_ms":"expired","breaker":"open"}]}"#;
        assert_eq!(slot_field(body, "replica-0", "alive").as_deref(), Some("true"));
        assert_eq!(slot_field(body, "replica-0", "lease_ms").as_deref(), Some("512"));
        assert_eq!(
            slot_field(body, "replica-1", "lease_ms").as_deref(),
            Some("\"expired\"")
        );
        assert_eq!(slot_field(body, "replica-2", "alive"), None);
    }

    #[test]
    fn metric_value_reads_flat_counters_and_defaults_to_zero() {
        let dump = "# TYPE fleet_hedge_fired counter\nfleet_hedge_fired 7\nfleet_hedge_wins 3\n";
        assert_eq!(metric_value(dump, "fleet.hedge.fired"), 7);
        assert_eq!(metric_value(dump, "fleet.hedge.wins"), 3);
        assert_eq!(metric_value(dump, "fleet.breaker.trip"), 0);
    }

    #[test]
    fn the_event_schedule_is_a_pure_function_of_the_seed() {
        let order = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = EventClass::ALL;
            for i in (1..s.len()).rev() {
                s.swap(i, rng.gen_range(0..(i + 1) as u64) as usize);
            }
            s.map(|c| c.name())
        };
        assert_eq!(order(42), order(42));
        let mut names = order(7).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "a shuffle keeps every class exactly once");
    }
}
