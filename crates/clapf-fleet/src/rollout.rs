//! The fleet-wide two-phase model rollout driver (DESIGN.md §16).
//!
//! Protocol, extending the single-process hot-swap across processes:
//!
//! 1. **Distribute** — the new bundle file is copied (atomic tmp+rename)
//!    to `<bundle_path>.next` beside every replica's live bundle. Bodies
//!    never travel over the serve HTTP plane (its request-body cap is a
//!    defense, not a transport).
//! 2. **Stage** (phase 1) — `POST /bundle/stage` on every replica: each
//!    loads and validates the candidate off to the side. Any failure here
//!    costs nothing; the fleet never served a mixed generation.
//! 3. **Verify** — `GET /bundle/fingerprint` everywhere must report the
//!    staged fingerprint identical to the local file's. A torn copy or a
//!    concurrent writer shows up *before* any replica flips.
//! 4. **Pause** — `POST /fleet/pause` on the router parks incoming
//!    `/recommend` traffic and drains in-flight proxied requests, closing
//!    the window in which two generations could both answer.
//! 5. **Commit** (phase 2) — `POST /bundle/commit?fingerprint=` on every
//!    replica: a near-instant pointer flip. Any failure triggers the
//!    abort path: `POST /bundle/abort?fingerprint=` everywhere drops
//!    staged bundles and reverts any replica that already committed, so
//!    the fleet re-converges on the old generation.
//! 6. **Resume** — `POST /fleet/resume`; parked requests proceed against
//!    the new (or restored) generation. Zero requests were dropped: they
//!    waited, bounded by the router's `pause_max_wait` safety valve.

use clapf_serve::fingerprint64;
use serde::Value;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One replica as the rollout driver sees it: where it listens and where
/// its live bundle file sits on the (shared) filesystem.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaSpec {
    /// The replica's serve address.
    pub addr: SocketAddr,
    /// The replica's live bundle path; the candidate lands at
    /// `<bundle>.next`.
    pub bundle: PathBuf,
}

/// The fleet as written to `fleet.json` by `clapf fleet serve` and read
/// back by `clapf fleet rollout`.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// The router address (pause/resume + status), if a router fronts the
    /// replicas. A router-less fleet still rolls out, without the pause
    /// barrier.
    pub router: Option<SocketAddr>,
    /// Every replica, in slot order.
    pub replicas: Vec<ReplicaSpec>,
}

impl FleetSpec {
    /// Renders the spec as JSON.
    pub fn render(&self) -> String {
        use clapf_telemetry::JsonValue;
        JsonValue::Obj(vec![
            (
                "router".into(),
                match self.router {
                    Some(a) => JsonValue::Str(a.to_string()),
                    None => JsonValue::Null,
                },
            ),
            (
                "replicas".into(),
                JsonValue::Arr(
                    self.replicas
                        .iter()
                        .map(|r| {
                            JsonValue::Obj(vec![
                                ("addr".into(), JsonValue::Str(r.addr.to_string())),
                                (
                                    "bundle".into(),
                                    JsonValue::Str(r.bundle.display().to_string()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Writes the spec to `path` through [`clapf_faults::write_atomic`]
    /// (failpoint prefix `fleet.spec.save`): a crash leaves the old spec or
    /// the new one, and a failed write leaves no `.tmp` behind.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        clapf_faults::write_atomic(path, self.render().as_bytes(), "fleet.spec.save")
    }

    /// Loads a spec from `path`.
    pub fn load(path: &Path) -> std::io::Result<FleetSpec> {
        let body = std::fs::read_to_string(path)?;
        let v: Value = serde_json::from_str(&body)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
        let parse_addr = |s: &str| {
            s.parse::<SocketAddr>()
                .map_err(|e| std::io::Error::other(format!("bad address {s:?}: {e}")))
        };
        let router = match json_field(&v, "router") {
            Some(Value::Str(s)) => Some(parse_addr(s)?),
            _ => None,
        };
        let mut replicas = Vec::new();
        if let Some(Value::Seq(rs)) = json_field(&v, "replicas") {
            for r in rs {
                let addr = match json_field(r, "addr") {
                    Some(Value::Str(s)) => parse_addr(s)?,
                    _ => return Err(std::io::Error::other("replica missing addr")),
                };
                let bundle = match json_field(r, "bundle") {
                    Some(Value::Str(s)) => PathBuf::from(s),
                    _ => return Err(std::io::Error::other("replica missing bundle")),
                };
                replicas.push(ReplicaSpec { addr, bundle });
            }
        }
        if replicas.is_empty() {
            return Err(std::io::Error::other("fleet spec has no replicas"));
        }
        Ok(FleetSpec { router, replicas })
    }
}

fn json_field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn json_str(v: &Value, key: &str) -> Option<String> {
    match json_field(v, key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn json_uint(v: &Value, key: &str) -> Option<u64> {
    match json_field(v, key) {
        Some(Value::Int(n)) => u64::try_from(*n).ok(),
        Some(Value::UInt(n)) => Some(*n),
        _ => None,
    }
}

/// Why a rollout did not complete.
#[derive(Debug)]
pub enum RolloutError {
    /// Reading or distributing the candidate bundle failed (no replica
    /// was touched beyond possibly a stale `.next` file).
    Distribute(String),
    /// A replica rejected a pre-commit phase; the fleet still serves the
    /// old generation everywhere and nothing needs reverting.
    Rejected {
        /// Which phase rejected.
        phase: &'static str,
        /// Replica slot index.
        slot: usize,
        /// What the replica (or socket) said.
        reason: String,
    },
    /// The commit phase failed part-way and the abort path restored the
    /// old generation fleet-wide. The fleet is consistent — on the old
    /// bundle.
    Aborted {
        /// What failed mid-commit.
        reason: String,
    },
    /// The commit failed **and** the abort could not verify the old
    /// generation everywhere — operator attention required.
    AbortFailed {
        /// What failed, including per-replica abort outcomes.
        reason: String,
    },
}

impl std::fmt::Display for RolloutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutError::Distribute(e) => write!(f, "distributing bundle: {e}"),
            RolloutError::Rejected {
                phase,
                slot,
                reason,
            } => {
                write!(f, "replica {slot} rejected {phase}: {reason}")
            }
            RolloutError::Aborted { reason } => {
                write!(f, "rollout aborted, old generation restored fleet-wide: {reason}")
            }
            RolloutError::AbortFailed { reason } => {
                write!(f, "rollout abort INCOMPLETE, fleet may be split: {reason}")
            }
        }
    }
}

impl std::error::Error for RolloutError {}

/// What a completed rollout did, for the CLI to print and benches to
/// record.
#[derive(Debug)]
pub struct RolloutReport {
    /// The fingerprint now live on every replica.
    pub fingerprint: u64,
    /// Per-replica generation after the flip (slot order).
    pub generations: Vec<u64>,
    /// Wall clock of the distribute+stage+verify phases (traffic flowing).
    pub staged: Duration,
    /// Wall clock of the pause→commit→resume window — the only interval
    /// in which `/recommend` traffic parked; "rollout downtime".
    pub commit_window: Duration,
}

/// Per-call timeout for rollout control-plane requests.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

fn bundle_next_path(bundle: &Path) -> PathBuf {
    let mut os = bundle.to_path_buf().into_os_string();
    os.push(".next");
    PathBuf::from(os)
}

/// Runs the full two-phase rollout of `new_bundle` across `spec`.
///
/// On [`RolloutError::Aborted`] the fleet verifiably serves the previous
/// bundle everywhere; only [`RolloutError::AbortFailed`] leaves doubt.
pub fn rollout(spec: &FleetSpec, new_bundle: &Path) -> Result<RolloutReport, RolloutError> {
    let t0 = Instant::now();
    let bytes =
        std::fs::read(new_bundle).map_err(|e| RolloutError::Distribute(e.to_string()))?;
    let new_fp = fingerprint64(&bytes);
    let new_hex = format!("{new_fp:016x}");

    // Record every replica's current fingerprint: the abort path verifies
    // the fleet returns to exactly these.
    let mut old_fps = Vec::with_capacity(spec.replicas.len());
    for (slot, r) in spec.replicas.iter().enumerate() {
        let probe = call_json(r.addr, "GET", "/bundle/fingerprint").map_err(|reason| {
            RolloutError::Rejected {
                phase: "precheck",
                slot,
                reason,
            }
        })?;
        let fp = json_str(&probe, "fingerprint").ok_or_else(|| RolloutError::Rejected {
            phase: "precheck",
            slot,
            reason: "probe missing fingerprint".into(),
        })?;
        if fp == new_hex {
            return Err(RolloutError::Rejected {
                phase: "precheck",
                slot,
                reason: "candidate bundle is already live".into(),
            });
        }
        old_fps.push(fp);
    }

    // Distribute: atomic copy to each replica's `.next` (failpoint prefix
    // `rollout.distribute`).
    for (slot, r) in spec.replicas.iter().enumerate() {
        let next = bundle_next_path(&r.bundle);
        clapf_faults::write_atomic(&next, &bytes, "rollout.distribute")
            .map_err(|e| RolloutError::Rejected {
                phase: "distribute",
                slot,
                reason: e.to_string(),
            })?;
    }

    // Phase 1: stage everywhere.
    for (slot, r) in spec.replicas.iter().enumerate() {
        let resp = call_json(r.addr, "POST", "/bundle/stage").map_err(|reason| {
            RolloutError::Rejected {
                phase: "stage",
                slot,
                reason,
            }
        })?;
        let staged = json_str(&resp, "fingerprint").unwrap_or_default();
        if staged != new_hex {
            return Err(RolloutError::Rejected {
                phase: "stage",
                slot,
                reason: format!("staged fingerprint {staged} != candidate {new_hex}"),
            });
        }
    }

    // Verify: every replica must report the candidate staged.
    for (slot, r) in spec.replicas.iter().enumerate() {
        let probe = call_json(r.addr, "GET", "/bundle/fingerprint").map_err(|reason| {
            RolloutError::Rejected {
                phase: "verify",
                slot,
                reason,
            }
        })?;
        if json_str(&probe, "staged").as_deref() != Some(new_hex.as_str()) {
            return Err(RolloutError::Rejected {
                phase: "verify",
                slot,
                reason: format!("staged fingerprint diverged: {probe:?}"),
            });
        }
    }
    let staged = t0.elapsed();

    // Pause the router: no `/recommend` crosses the commit window, so no
    // client can observe two generations. Requests park; none drop.
    let t1 = Instant::now();
    if let Some(router) = spec.router {
        call_json(router, "POST", "/fleet/pause")
            .map_err(|reason| RolloutError::Rejected {
                phase: "pause",
                slot: usize::MAX,
                reason,
            })?;
    }

    // Phase 2: commit everywhere — pointer flips, milliseconds total.
    let mut commit_err: Option<String> = None;
    let mut generations = Vec::with_capacity(spec.replicas.len());
    for (slot, r) in spec.replicas.iter().enumerate() {
        // Failpoint: the torn-rollout test fails the second replica's
        // commit here, forcing the abort path with one replica flipped.
        let result = clapf_faults::check("fleet.rollout.commit")
            .map_err(|e| e.to_string())
            .and_then(|()| {
                call_json(r.addr, "POST", &format!("/bundle/commit?fingerprint={new_hex}"))
            });
        match result {
            Ok(resp) => generations.push(json_uint(&resp, "generation").unwrap_or(0)),
            Err(reason) => {
                commit_err = Some(format!("replica {slot} commit failed: {reason}"));
                break;
            }
        }
    }

    if let Some(reason) = commit_err {
        // Abort path: every replica drops staged state and any replica
        // that already flipped reverts to its previous bundle.
        let mut abort_errs = Vec::new();
        for (slot, r) in spec.replicas.iter().enumerate() {
            match call_json(r.addr, "POST", &format!("/bundle/abort?fingerprint={new_hex}")) {
                Ok(resp) => {
                    let live = json_str(&resp, "fingerprint").unwrap_or_default();
                    if live != old_fps[slot] {
                        abort_errs.push(format!(
                            "replica {slot} live {live} != previous {}",
                            old_fps[slot]
                        ));
                    }
                }
                Err(e) => abort_errs.push(format!("replica {slot} abort failed: {e}")),
            }
        }
        if let Some(router) = spec.router {
            let _ = call_json(router, "POST", "/fleet/resume");
        }
        return if abort_errs.is_empty() {
            Err(RolloutError::Aborted { reason })
        } else {
            Err(RolloutError::AbortFailed {
                reason: format!("{reason}; then: {}", abort_errs.join("; ")),
            })
        };
    }

    // Post-commit verify, then reopen the gate.
    let mut verify_err = None;
    for (slot, r) in spec.replicas.iter().enumerate() {
        match call_json(r.addr, "GET", "/bundle/fingerprint") {
            Ok(probe) if json_str(&probe, "fingerprint").as_deref() == Some(new_hex.as_str()) => {}
            Ok(probe) => {
                verify_err = Some(format!("replica {slot} not on {new_hex}: {probe:?}"));
                break;
            }
            Err(e) => {
                verify_err = Some(format!("replica {slot} unreachable post-commit: {e}"));
                break;
            }
        }
    }
    if let Some(router) = spec.router {
        let _ = call_json(router, "POST", "/fleet/resume");
    }
    if let Some(reason) = verify_err {
        return Err(RolloutError::AbortFailed { reason });
    }

    Ok(RolloutReport {
        fingerprint: new_fp,
        generations,
        staged,
        commit_window: t1.elapsed(),
    })
}

/// One control-plane call; 2xx JSON body parsed, anything else an error
/// string carrying the status and body.
fn call_json(addr: SocketAddr, method: &str, path: &str) -> Result<Value, String> {
    let resp = clapf_serve::call(addr, method, path, CALL_TIMEOUT).map_err(|e| e.to_string())?;
    let body = resp.text().map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("{method} {path} -> {}: {body}", resp.status));
    }
    serde_json::from_str(body).map_err(|e| format!("bad JSON from {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_spec_round_trips_through_json() {
        // `save` checks the `fleet.spec.save.*` failpoints, which the
        // fault test below arms.
        let _guard = clapf_faults::exclusive();
        let spec = FleetSpec {
            router: Some("127.0.0.1:4000".parse().unwrap()),
            replicas: vec![
                ReplicaSpec {
                    addr: "127.0.0.1:4001".parse().unwrap(),
                    bundle: PathBuf::from("/tmp/replica-0.json"),
                },
                ReplicaSpec {
                    addr: "127.0.0.1:4002".parse().unwrap(),
                    bundle: PathBuf::from("/tmp/replica-1.json"),
                },
            ],
        };
        let dir = std::env::temp_dir().join(format!("clapf-fleet-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        spec.save(&path).unwrap();
        assert_eq!(FleetSpec::load(&path).unwrap(), spec);

        // Router-less fleets round-trip too.
        let headless = FleetSpec {
            router: None,
            replicas: spec.replicas.clone(),
        };
        headless.save(&path).unwrap();
        assert_eq!(FleetSpec::load(&path).unwrap(), headless);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_spec_save_keeps_the_old_spec_and_leaves_no_tmp() {
        let _guard = clapf_faults::exclusive();
        let replica = |port: u16| ReplicaSpec {
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            bundle: PathBuf::from(format!("/tmp/replica-{port}.json")),
        };
        let old = FleetSpec {
            router: None,
            replicas: vec![replica(4101)],
        };
        let new = FleetSpec {
            router: Some("127.0.0.1:4100".parse().unwrap()),
            replicas: vec![replica(4101), replica(4102)],
        };
        let dir =
            std::env::temp_dir().join(format!("clapf-fleet-spec-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        old.save(&path).unwrap();
        for (point, fault) in [
            ("fleet.spec.save.write", clapf_faults::Fault::Torn { keep: 9 }),
            ("fleet.spec.save.sync", clapf_faults::Fault::Io),
            ("fleet.spec.save.rename", clapf_faults::Fault::Io),
        ] {
            clapf_faults::arm(point, fault);
            assert!(new.save(&path).is_err(), "{point} did not fail the save");
            clapf_faults::reset();
            assert_eq!(FleetSpec::load(&path).unwrap(), old, "{point} touched the spec");
            assert!(!dir.join("fleet.json.tmp").exists(), "{point} left a tmp file");
        }
        new.save(&path).unwrap();
        assert_eq!(FleetSpec::load(&path).unwrap(), new);
        std::fs::remove_dir_all(&dir).ok();
    }
}
