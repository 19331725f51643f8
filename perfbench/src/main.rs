//! `omq-perfbench`: drives the serve tier (`ShardedEngine` with one shard
//! behind `serve_reactor`, as `omq-serve --listen` starts it) over
//! loopback TCP with one closed-loop connection, checks every answer, and
//! prints the metrics as one JSON line. See `README.md` for the workloads.
//!
//! ```text
//! omq-perfbench run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! omq-perfbench epoch --workload W --seed N [--smoke]
//! omq-perfbench sweep --seed N
//! omq-perfbench oracle --workload W --seed N
//! ```
//!
//! `run --trace 0` runs the workload's request stream once per epoch, each
//! in a fresh `epoch` process of this binary, until `--seconds` of
//! measured time have passed.

mod catalog;
mod host;
mod layers;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use omq_serve::Json;

/// Metrics by name: value and unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.put(name, value, "count");
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, (v, u))| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*v)),
                            ("unit".into(), Json::str(*u)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Linear-interpolated percentile (`p` in 0..=1); 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode (run, epoch, sweep, oracle)")?;
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// The run's host context. The engine's `threads: 0` and the reactor's
/// `workers: 0` (the defaults) resolve to `nproc` and `min(nproc, 8)`.
fn host_line() -> String {
    format!(
        "# host: nproc={} engine_threads={} reactor_workers={} clients=1 steal_s={} process_cpu_s={:.3}",
        host::nproc(),
        omq_chase::effective_threads(0, usize::MAX),
        host::nproc().min(8),
        host::steal_since_start().map_or("n/a".to_owned(), |s| format!("{s:.2}")),
        host::process_cpu().as_secs_f64(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::num(attempted as usize)),
        ("failed".into(), Json::num(failed as usize)),
        ("metrics".into(), m.to_json()),
    ])
    .to_string()
}

fn report_problems(tally: &workloads::Tally) {
    for (why, n) in &tally.failures {
        println!(
            "# failed x{n}: {}",
            why.chars().take(160).collect::<String>()
        );
    }
    for why in tally.wrong.iter().take(10) {
        println!("# WRONG: {}", why.chars().take(300).collect::<String>());
    }
}

fn make(a: &Args) -> Result<Box<dyn workloads::Workload>, String> {
    workloads::make(&a.workload, a.seed, a.smoke).ok_or(format!("unknown workload {}", a.workload))
}

/// Set-up and the rounds of one epoch on a fresh serve tier; prints the
/// epoch's tally, the set-up time and the peak RSS as one JSON line.
fn epoch(a: &Args) -> Result<(), String> {
    let mut run = workloads::set_up(make(a)?).map_err(|e| format!("set-up: {e}"))?;
    let mut tally = run.run_epoch();
    for why in run.setup.failures.keys().chain(&run.setup.wrong) {
        tally.wrong.push(format!("set-up: {why}"));
    }
    let out = Json::obj([
        ("tally", tally.to_json()),
        ("setup_s", Json::Num(run.setup_s)),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb())),
    ]);
    println!("{out}");
    Ok(())
}

/// Runs epoch `e` in a fresh process of this binary: its tally, set-up
/// time and peak RSS.
fn spawn_epoch(a: &Args, e: usize) -> Result<(workloads::Tally, f64, f64), String> {
    let exe = std::env::current_exe().map_err(|err| format!("own executable: {err}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "epoch",
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
    ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|err| format!("epoch {e}: {err}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "epoch {e} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v = stdout
        .lines()
        .last()
        .and_then(|l| omq_serve::json::parse(l).ok())
        .ok_or(format!("epoch {e} printed no result"))?;
    let num = |key: &str| v.get(key).and_then(Json::as_f64);
    let tally = v.get("tally").and_then(workloads::Tally::from_json);
    match (tally, num("setup_s"), num("peak_rss_mb")) {
        (Some(t), Some(setup_s), Some(rss)) => Ok((t, setup_s, rss)),
        _ => Err(format!("epoch {e} printed a malformed result")),
    }
}

/// Where among its replays a request's latency is read: the lower
/// quartile. Every epoch sends the same requests to a serve tier in the
/// same state, so request `i` does the same work in each of them. Host
/// steal only ever adds time to a replay, and it hits a sub-millisecond
/// request in a few replays out of several: it sets the whole-run tail and
/// mean, but seldom a request's lower quartile. The minimum would be
/// steadier against steal, but it follows the fastest moment of the
/// host's speed, which drifts over minutes; the lower quartile still
/// averages over that drift.
const REPLAY_QUANTILE: f64 = 0.25;

/// Each request's latency at `REPLAY_QUANTILE` of its replays, one per
/// epoch.
fn per_request(epochs: &[&[f64]]) -> Result<Vec<f64>, String> {
    let n = epochs[0].len();
    if epochs.iter().any(|e| e.len() != n) {
        return Err("epochs sent different numbers of requests".into());
    }
    Ok((0..n)
        .map(|i| {
            let replays: Vec<f64> = epochs.iter().map(|e| e[i]).collect();
            percentile(&replays, REPLAY_QUANTILE)
        })
        .collect())
}

/// In-process set-ups per run; `setup_s` is their median.
fn setup_repeats(workload: &str, smoke: bool) -> usize {
    match (smoke, workload) {
        (true, _) => 3,
        (false, "hot") => 11,
        (false, _) => 31,
    }
}

fn run(a: &Args) -> Result<(), String> {
    if a.trace {
        let spans = format!("perfbench/out/spans-{}-{}.jsonl", a.workload, a.seed);
        let t = layers::run(make(a)?, &a.workload, a.seed, spans.as_ref());
        println!("{}", host_line());
        for n in &t.notes {
            println!("# {n}");
        }
        report_problems(&t.tally);
        println!(
            "{}",
            result_line(
                t.tally.wrong.is_empty(),
                t.tally.attempted,
                t.tally.failed,
                &t.metrics
            )
        );
        return Ok(());
    }
    // Whole epochs, each in a fresh process, until `seconds` of measured
    // time have passed.
    let mut epochs: Vec<workloads::Tally> = Vec::new();
    let (mut epoch_setup_s, mut rss) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while epochs.is_empty() || measured < a.seconds {
        let (t, setup_s, peak) = spawn_epoch(a, epochs.len())?;
        epoch_setup_s.push(setup_s);
        rss.push(peak);
        measured += t.wall.as_secs_f64();
        epochs.push(t);
    }
    let lat = per_request(&epochs.iter().map(|t| &t.lat_ms[..]).collect::<Vec<_>>())?;
    let writes = per_request(&epochs.iter().map(|t| &t.write_ms[..]).collect::<Vec<_>>())?;
    let n_epochs = epochs.len();
    let mut total = workloads::Tally::default();
    for t in epochs {
        total.absorb(t);
    }
    // `setup_s`: the median of repeated set-ups in this process (their
    // serve tiers stay behind idle; the reactor cannot be stopped).
    let mut setups = Vec::new();
    for _ in 0..setup_repeats(&a.workload, a.smoke) {
        let run = workloads::set_up(make(a)?).map_err(|err| format!("set-up: {err}"))?;
        for why in run.setup.failures.keys().chain(&run.setup.wrong) {
            total.wrong.push(format!("set-up: {why}"));
        }
        setups.push(run.setup_s);
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    // One closed-loop connection: the request rate is the inverse of the
    // mean latency (the client's checking between requests is left out).
    m.put(
        "throughput_rps",
        1e3 * lat.len() as f64 / lat.iter().sum::<f64>(),
        "1/s",
    );
    m.put("p50_ms", percentile(&lat, 0.5), "ms");
    m.put("p90_ms", percentile(&lat, 0.9), "ms");
    m.put("write_p50_ms", median(&writes), "ms");
    // CPU time leaves steal out by itself (the guest accounts it apart),
    // so it is taken over the whole run.
    m.put(
        "cpu_ms_per_req",
        total.cpu.as_secs_f64() * 1e3 / total.lat_ms.len() as f64,
        "ms",
    );
    m.put("peak_rss_mb", median(&rss), "MB");
    println!("{}", host_line());
    println!(
        "# epochs={n_epochs} requests={} writes={} p99_ms={:.3} (n={}) wall_s={:.3}",
        total.lat_ms.len(),
        total.write_ms.len(),
        percentile(&total.lat_ms, 0.99),
        total.lat_ms.len(),
        total.wall.as_secs_f64(),
    );
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# setup_s samples: {}", fmt(&setups));
    println!("# epoch setup_s: {}", fmt(&epoch_setup_s));
    println!("# epoch peak_rss_mb: {}", fmt(&rss));
    report_problems(&total);
    println!(
        "{}",
        result_line(total.wrong.is_empty(), total.attempted, total.failed, &m)
    );
    Ok(())
}

/// The catalog-size reference sweep: `cold` and `hot` at three catalog
/// sizes, one epoch each (not a workload; see README).
fn sweep(a: &Args) -> Result<(), String> {
    println!("{}", host_line());
    println!("workload  omqs   setup_s  p50_ms");
    for (hot_tenants, cold_tenants) in [(7usize, 4usize), (30, 15), (120, 60)] {
        for name in ["cold", "hot"] {
            let w: Box<dyn workloads::Workload> = if name == "hot" {
                Box::new(workloads::Hot::new(
                    a.seed,
                    hot_tenants,
                    workloads::HOT_EPOCH,
                ))
            } else {
                let mut c = workloads::Cold::new(a.seed, false);
                c.setup_tenants = cold_tenants;
                Box::new(c)
            };
            let mut run = workloads::set_up(w).map_err(|e| e.to_string())?;
            let omqs = run.workload.catalog().len();
            let t = run.run_epoch();
            if !run.setup.wrong.is_empty() || !t.wrong.is_empty() {
                return Err(format!("{name}: wrong answers in the sweep"));
            }
            println!(
                "{name:8} {omqs:5} {:9.3} {:7.3}",
                run.setup_s,
                percentile(&t.lat_ms, 0.5)
            );
        }
    }
    Ok(())
}

/// Prints every set-up and first-round question of a workload with the
/// answer the oracles derive for it, regenerated from the generators.
fn oracle(a: &Args) -> Result<(), String> {
    let mut w = make(a)?;
    let setup = w.setup();
    // `hot` answers are checked against the warm-up's; no server here.
    let warm: Vec<Vec<String>> = setup.iter().map(|b| vec![String::new(); b.len()]).collect();
    w.after_setup(&warm);
    let round = w.round(0);
    for op in setup.iter().flatten().chain(&round) {
        let want = match &op.expect {
            workloads::Expect::Ok => "ok".to_owned(),
            workloads::Expect::Verdict {
                word,
                fault,
                oracle,
            } => format!(
                "{word} [{oracle}]{}",
                fault.map_or(String::new(), |f| format!(" (fault: {f})"))
            ),
            workloads::Expect::Exact(_) => "byte-identical to its cold answer".to_owned(),
            workloads::Expect::Answers { pairs, version } => {
                format!("{} closure pairs at version {version}", pairs.len())
            }
            workloads::Expect::Version(v) => format!("version {v}"),
        };
        let line: String = op.line.chars().take(120).collect();
        println!("{line}\t=> {want}");
    }
    Ok(())
}

fn main() -> ExitCode {
    host::single_malloc_arena();
    host::steal_since_start();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = match a.mode.as_str() {
        "run" => run(&a),
        "epoch" => epoch(&a),
        "sweep" => sweep(&a),
        "oracle" => oracle(&a),
        other => Err(format!("unknown mode {other}")),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("omq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
