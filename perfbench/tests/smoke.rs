//! Seconds-long runs of every workload at smoke size, with the same
//! answer checks as the full benchmark. Run from `perfbench/`:
//! `cargo test --release`.

use std::process::Command;

use omq_serve::json::{self, Json};

/// Runs the benchmark binary from the repository root and returns its
/// result line, parsed.
fn run(args: &[&str]) -> Json {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_omq-perfbench"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("run omq-perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

fn num(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).expect(key)
}

fn smoke(workload: &str, trace: &str) -> Json {
    let v = run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true), "{v}");
    assert!(num(&v, "attempted") > 0);
    v
}

#[test]
fn cold_fails_exactly_the_two_known_faults_per_round() {
    let v = smoke("cold", "0");
    // Every round is 20 registrations and 28 questions, two of which
    // (tiling k=3 and the guarded contained pair) come back undecided.
    let (attempted, failed) = (num(&v, "attempted"), num(&v, "failed"));
    assert!(failed > 0, "{v}");
    assert_eq!(failed * 24, attempted, "{v}");
    let m = v.get("metrics").expect("metrics");
    for key in [
        "setup_s",
        "throughput_rps",
        "p50_ms",
        "p90_ms",
        "write_p50_ms",
        "cpu_ms_per_req",
        "peak_rss_mb",
    ] {
        let value = m
            .get(key)
            .and_then(|x| x.get("value"))
            .and_then(Json::as_f64);
        assert!(value.is_some_and(|x| x > 0.0), "{key} in {v}");
    }
}

#[test]
fn hot_and_mutate_answer_everything() {
    for w in ["hot", "mutate"] {
        let v = smoke(w, "0");
        assert_eq!(num(&v, "failed"), 0, "{v}");
    }
}

#[test]
fn traced_runs_report_the_layers() {
    let v = smoke("hot", "1");
    let m = v.get("metrics").expect("metrics");
    let ratio = m
        .get("serve.cache.verdict_hit_ratio")
        .and_then(|x| x.get("value"))
        .and_then(Json::as_f64)
        .expect("hit ratio");
    assert!(ratio > 0.5, "{v}");
    let v = smoke("mutate", "1");
    let m = v.get("metrics").expect("metrics");
    let resumes = m
        .get("store.incremental_resumes")
        .and_then(|x| x.get("value"))
        .and_then(Json::as_f64)
        .expect("resumes");
    assert!(resumes > 0.0, "{v}");
}
