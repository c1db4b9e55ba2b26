//! Drives `clapf fleet serve --replicas 2` end to end: the router answers
//! `/healthz` and routes `/recommend` across both replicas, a two-phase
//! `clapf fleet rollout` under load drops nothing and leaves every replica
//! on the candidate's fingerprint, a `kill -9`ed replica is masked and
//! restarted by the supervisor, and `POST /shutdown` drains the fleet
//! without leaking a replica process. Responses are parsed JSON, read
//! through `clapf-serve`'s shared client.

mod common;

use common::{clapf_ok, scratch_dir, tiny_dataset, CLAPF};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One-shot request through the shared client; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let reply = clapf_serve::call(addr, method, path, Duration::from_secs(10)).expect("request");
    (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
}

/// `GET path`, asserting a 200 with a JSON body.
fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = http(addr, "GET", path);
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("GET {path} is not JSON ({e}): {body}"))
}

/// Every user id in the dataset, in first-seen order.
fn users(data: &Path) -> Vec<String> {
    let csv = std::fs::read_to_string(data).unwrap();
    let mut users: Vec<String> = Vec::new();
    for line in csv.lines().skip(1) {
        let user = line.split(',').next().unwrap().to_string();
        if !users.contains(&user) {
            users.push(user);
        }
    }
    users
}

/// `/recommend` for 8 users through the router: each a 200 with a
/// non-empty item list.
fn assert_recommends(router: SocketAddr, users: &[String]) {
    for user in users.iter().take(8) {
        let rec = get_json(router, &format!("/recommend/{user}?k=5"));
        let items = rec.get("items").and_then(Value::as_seq);
        assert!(items.is_some_and(|xs| !xs.is_empty()), "no items for {user}: {rec:?}");
    }
}

/// The `/fleet/status` entry of member `name`.
fn member(router: SocketAddr, name: &str) -> Value {
    let status = get_json(router, "/fleet/status");
    status
        .get("replicas")
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("no replicas array in {status:?}"))
        .iter()
        .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("{name} missing from /fleet/status: {status:?}"))
        .clone()
}

/// Pids of live `clapf serve --load <dir/…>` processes — replicas serving
/// a bundle under `dir` — read off `/proc/*/cmdline`.
fn replicas_serving_from(dir: &Path) -> Vec<u32> {
    let dir = dir.to_str().unwrap();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    procs
        .flatten()
        .filter_map(|p| {
            let pid: u32 = p.file_name().to_str()?.parse().ok()?;
            let cmdline = std::fs::read(p.path().join("cmdline")).ok()?;
            let args: Vec<&[u8]> = cmdline.split(|&b| b == 0).collect();
            let serving = args.windows(3).any(|w| {
                w[0] == b"serve" && w[1] == b"--load" && w[2].starts_with(dir.as_bytes())
            });
            serving.then_some(pid)
        })
        .collect()
}

/// The running fleet. If the test fails midway, dropping it kills the
/// fleet and its replicas, so no process outlives the test holding its
/// output pipes open.
struct Fleet<'a> {
    child: Child,
    dir: &'a Path,
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            for pid in replicas_serving_from(self.dir) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

/// Waits up to `deadline` for a stdout line starting with `prefix`.
fn wait_for_line(lines: &Mutex<Vec<String>>, prefix: &str, deadline: Duration) -> String {
    let end = Instant::now() + deadline;
    loop {
        if let Some(l) = lines.lock().unwrap().iter().find(|l| l.starts_with(prefix)) {
            return l.clone();
        }
        assert!(Instant::now() < end, "no {prefix:?} line in {:?}", lines.lock().unwrap());
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn fleet_routes_rolls_out_under_load_survives_a_kill_and_drains() {
    let dir = scratch_dir("fleet");
    let data = tiny_dataset(&dir);
    let users = users(&data);
    let model = dir.join("model.json");
    let candidate = dir.join("model2.json");
    let fit = |out: &Path, seed: &str| {
        clapf_ok(&[
            "fit", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations", "20000",
            "--seed", seed, "--save", out.to_str().unwrap(),
        ]);
    };
    fit(&model, "42");
    // A second seed gives the rollout a candidate with a new fingerprint.
    fit(&candidate, "7");
    let fleet_dir = dir.join("fleet");

    let child = Command::new(CLAPF)
        .args(["fleet", "serve", "--load", model.to_str().unwrap(), "--replicas", "2"])
        .args(["--addr", "127.0.0.1:0", "--dir", fleet_dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn clapf fleet serve");
    let mut fleet = Fleet {
        child,
        dir: &fleet_dir,
    };
    // Drain stdout on a thread so the fleet never blocks on a full pipe.
    let lines = Arc::new(Mutex::new(Vec::<String>::new()));
    let drain = {
        let stdout = BufReader::new(fleet.child.stdout.take().unwrap());
        let lines = Arc::clone(&lines);
        std::thread::spawn(move || {
            for line in stdout.lines() {
                lines.lock().unwrap().push(line.expect("read fleet stdout"));
            }
        })
    };
    let router: SocketAddr = wait_for_line(&lines, "listening on http://", Duration::from_secs(30))
        ["listening on http://".len()..]
        .parse()
        .expect("router address");

    // The router answers for itself, and routes users to both replicas.
    let health = get_json(router, "/healthz");
    assert_eq!(health.get("role").and_then(Value::as_str), Some("router"), "{health:?}");
    assert_recommends(router, &users);

    // Roll the candidate out while a loader hammers the router: every
    // response during the two-phase flip must be a 200.
    let stop = Arc::new(AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        let path = format!("/recommend/{}?k=5", users[0]);
        std::thread::spawn(move || {
            let (mut failures, mut requests) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let ok = matches!(
                    clapf_serve::call(router, "GET", &path, Duration::from_secs(10)),
                    Ok(reply) if reply.status == 200
                );
                failures += u64::from(!ok);
                requests += 1;
            }
            (failures, requests)
        })
    };
    let rollout = Command::new(CLAPF)
        .args(["fleet", "rollout", "--fleet"])
        .arg(fleet_dir.join("fleet.json"))
        .arg("--bundle")
        .arg(&candidate)
        .output()
        .expect("run clapf fleet rollout");
    stop.store(true, Ordering::Relaxed);
    let (failures, requests) = loader.join().unwrap();
    let rollout_out = String::from_utf8_lossy(&rollout.stdout);
    assert!(rollout.status.success(), "rollout failed: {rollout_out}");
    assert!(requests > 0, "the rollout loader sent no requests");
    assert_eq!(failures, 0, "{failures}/{requests} requests failed during the rollout");
    let want = format!(
        "{:016x}",
        clapf_serve::fingerprint64(&std::fs::read(&candidate).unwrap())
    );
    assert!(rollout_out.contains(&want), "rollout reported another fingerprint: {rollout_out}");
    for name in ["replica-0", "replica-1"] {
        let member = member(router, name);
        let addr: SocketAddr = member.get("addr").and_then(Value::as_str).unwrap().parse().unwrap();
        let fp = get_json(addr, "/bundle/fingerprint");
        assert_eq!(
            fp.get("fingerprint").and_then(Value::as_str),
            Some(want.as_str()),
            "{name} after the rollout"
        );
    }

    // kill -9 replica 0: the router masks it, and the supervisor restarts
    // it into the same ring slot.
    let announce = wait_for_line(&lines, "replica 0: pid ", Duration::ZERO);
    let pid = announce["replica 0: pid ".len()..].split(' ').next().unwrap();
    let killed = Command::new("kill").args(["-9", pid]).status().expect("run kill");
    assert!(killed.success(), "kill -9 {pid} failed");
    assert_recommends(router, &users);
    let back = wait_for_line(&lines, "replica 0 back on http://", Duration::from_secs(10));
    let restarted = &back["replica 0 back on http://".len()..];
    let end = Instant::now() + Duration::from_secs(10);
    loop {
        let m = member(router, "replica-0");
        if m.get("addr").and_then(Value::as_str) == Some(restarted)
            && m.get("alive") == Some(&Value::Bool(true))
        {
            break;
        }
        assert!(Instant::now() < end, "restarted replica 0 never rejoined: {m:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful drain: the router stops the supervisor, which drains every
    // replica; nothing may leak.
    assert_eq!(replicas_serving_from(&fleet_dir).len(), 2, "the leak check sees no replicas");
    let (status, body) = http(router, "POST", "/shutdown");
    assert_eq!(status, 200, "{body}");
    let exit = fleet.child.wait().expect("wait for clapf fleet serve");
    drain.join().unwrap();
    assert!(exit.success(), "fleet exited with {exit}");
    assert!(
        lines.lock().unwrap().iter().any(|l| l == "fleet drained and stopped"),
        "{:?}",
        lines.lock().unwrap()
    );
    assert_eq!(replicas_serving_from(&fleet_dir), Vec::<u32>::new(), "leaked replica processes");

    std::fs::remove_dir_all(&dir).ok();
}
