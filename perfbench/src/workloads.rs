//! The three workloads (their set-up and rounds of operations), the
//! closed-loop runner that sends them over loopback TCP, and the check
//! every response goes through.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omq_model::rng::SplitMix64;
use omq_serve::json::{self, Json};

use crate::catalog::{self, Ask, OmqSpec, Question};
use crate::host;
use crate::wire::{self, Client};

/// A store's answer pairs, rendered and sorted as the engine sorts them.
pub type Pairs = Arc<Vec<(String, String)>>;

/// What a response must say.
#[derive(Clone, Debug)]
pub enum Expect {
    Ok,
    Verdict {
        word: &'static str,
        fault: Option<&'static str>,
        oracle: &'static str,
    },
    /// Byte-identical to this line (the `hot` answers, against the same
    /// question asked cold).
    Exact(Arc<str>),
    /// A store evaluation: exactly these answer pairs, at this version.
    Answers {
        pairs: Pairs,
        version: u64,
    },
    /// A store mutation or snapshot landing at this version.
    Version(u64),
}

#[derive(Clone, Debug)]
pub struct Op {
    pub line: String,
    pub expect: Expect,
    /// A state-changing request (`register`, `assert`, `retract`).
    pub write: bool,
}

impl Op {
    fn register(spec: &OmqSpec) -> Op {
        Op {
            line: spec.register_line(),
            expect: Expect::Ok,
            write: true,
        }
    }

    fn question(q: &Question) -> Op {
        Op {
            line: q.line(),
            expect: Expect::Verdict {
                word: q.expected_word(),
                fault: q.fault,
                oracle: q.oracle,
            },
            write: false,
        }
    }
}

pub enum Outcome {
    Pass,
    /// The operation did not produce an answer (error or `unknown`).
    Failed(String),
    /// The operation answered, wrongly.
    Wrong(String),
}

fn parse_pairs(v: &Json) -> Option<Vec<(String, String)>> {
    v.as_array()?
        .iter()
        .map(|t| match t.as_str_array()?.as_slice() {
            [a, b] => Some(((*a).to_owned(), (*b).to_owned())),
            _ => None,
        })
        .collect()
}

pub fn check(op: &Op, resp: &str) -> Outcome {
    if let Expect::Exact(want) = &op.expect {
        return if resp == &**want {
            Outcome::Pass
        } else {
            Outcome::Wrong(format!("{} -> {resp} (want {want})", op.line))
        };
    }
    let Ok(v) = json::parse(resp) else {
        return Outcome::Wrong(format!("{} -> unparsable {resp}", op.line));
    };
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Outcome::Failed(format!("{} -> {resp}", op.line));
    }
    let version = v.get("version").and_then(Json::as_u64);
    let wrong = |what: &str| Outcome::Wrong(format!("{} -> {what}", op.line));
    match &op.expect {
        Expect::Ok | Expect::Exact(_) => Outcome::Pass,
        Expect::Verdict { word, fault, .. } => match v.get("verdict").and_then(Json::as_str) {
            Some(w) if w == *word => Outcome::Pass,
            Some("unknown") => Outcome::Failed(fault.unwrap_or("unknown verdict").to_owned()),
            other => wrong(&format!("verdict {other:?}, want {word}")),
        },
        Expect::Version(want) if version == Some(*want) => Outcome::Pass,
        Expect::Version(want) => wrong(&format!("version {version:?}, want {want}")),
        Expect::Answers {
            pairs,
            version: want,
        } => {
            if version != Some(*want) {
                return wrong(&format!("version {version:?}, want {want}"));
            }
            if v.get("guarantee").and_then(Json::as_str) != Some("exact") {
                return Outcome::Failed(format!("{} -> inexact answers", op.line));
            }
            match v.get("answers").and_then(parse_pairs) {
                Some(got) if got == **pairs => Outcome::Pass,
                Some(got) => wrong(&format!("{} answers, want {}", got.len(), pairs.len())),
                None => wrong("malformed answers"),
            }
        }
    }
}

/// A workload is a fixed request stream drawn from the seed: set-up, then
/// `rounds_per_epoch` rounds. Every epoch sends the same stream to a fresh
/// serve tier, so each request meets the same state in every epoch, and
/// that state never depends on how many epochs a run completed.
pub trait Workload {
    /// The batches that load an epoch's initial state.
    fn setup(&mut self) -> Vec<Vec<Op>>;
    /// Called with the set-up responses, batch by batch.
    fn after_setup(&mut self, _responses: &[Vec<String>]) {}
    fn rounds_per_epoch(&self) -> usize;
    /// The operations of round `r`, sent in order on one connection.
    fn round(&mut self, r: usize) -> Vec<Op>;
    /// Every OMQ registered so far (for the per-layer probes).
    fn catalog(&self) -> Vec<OmqSpec>;
}

/// What a stretch of requests produced.
#[derive(Default)]
pub struct Tally {
    pub lat_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: BTreeMap<String, u64>,
    pub wrong: Vec<String>,
    pub wall: Duration,
    /// Process CPU time, minus the client's own checking.
    pub cpu: Duration,
}

impl Tally {
    pub fn judge(&mut self, op: &Op, resp: &str) {
        match check(op, resp) {
            Outcome::Pass => {}
            Outcome::Failed(why) => self.fail(why),
            Outcome::Wrong(why) => self.wrong.push(why),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        *self.failures.entry(why).or_default() += 1;
    }

    /// Adds `other` to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.lat_ms.extend(other.lat_ms);
        self.write_ms.extend(other.write_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (why, n) in other.failures {
            *self.failures.entry(why).or_default() += n;
        }
        self.wrong.extend(other.wrong);
        self.wall += other.wall;
        self.cpu += other.cpu;
    }

    pub fn to_json(&self) -> Json {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            ("lat_ms", nums(&self.lat_ms)),
            ("write_ms", nums(&self.write_ms)),
            ("attempted", Json::num(self.attempted as usize)),
            ("failed", Json::num(self.failed as usize)),
            (
                "failures",
                Json::Obj(
                    self.failures
                        .iter()
                        .map(|(why, &n)| (why.clone(), Json::num(n as usize)))
                        .collect(),
                ),
            ),
            (
                "wrong",
                Json::Arr(self.wrong.iter().map(Json::str).collect()),
            ),
            ("wall_s", Json::Num(self.wall.as_secs_f64())),
            ("cpu_s", Json::Num(self.cpu.as_secs_f64())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Tally> {
        let nums = |key: &str| -> Option<Vec<f64>> {
            v.get(key)?.as_array()?.iter().map(Json::as_f64).collect()
        };
        let secs = |key: &str| Some(Duration::from_secs_f64(v.get(key)?.as_f64()?));
        let Json::Obj(failures) = v.get("failures")? else {
            return None;
        };
        Some(Tally {
            lat_ms: nums("lat_ms")?,
            write_ms: nums("write_ms")?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            failures: failures
                .iter()
                .map(|(why, n)| Some((why.clone(), n.as_u64()?)))
                .collect::<Option<_>>()?,
            wrong: v
                .get("wrong")?
                .as_str_array()?
                .into_iter()
                .map(str::to_owned)
                .collect(),
            wall: secs("wall_s")?,
            cpu: secs("cpu_s")?,
        })
    }
}

/// Sends one round's operations in a closed loop and checks each answer.
/// Generating the round happens before, outside the measured time.
pub fn run_round(client: &mut Client, ops: &[Op], tally: &mut Tally) {
    let cpu0 = host::process_cpu();
    let start = Instant::now();
    let mut check_cpu = Duration::ZERO;
    for op in ops {
        tally.attempted += 1;
        let t0 = Instant::now();
        let resp = client.call(&op.line);
        // Recorded even for a transport error, so that request `i` of
        // every epoch stays at index `i`.
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.lat_ms.push(ms);
        if op.write {
            tally.write_ms.push(ms);
        }
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("transport: {e}"));
                continue;
            }
        };
        // Checking is the client's own work: keep its CPU time out of the
        // per-request cost of serving.
        let c0 = host::thread_cpu();
        tally.judge(op, resp);
        check_cpu += host::thread_cpu().saturating_sub(c0);
    }
    tally.wall += start.elapsed();
    tally.cpu += host::process_cpu()
        .saturating_sub(cpu0)
        .saturating_sub(check_cpu);
}

/// The serve tier with a workload's initial state loaded.
pub struct Running {
    pub server: wire::Server,
    pub client: Client,
    pub workload: Box<dyn Workload>,
    /// The set-up requests, in order, and how they were answered (not
    /// counted as attempted: a set-up that fails makes the run wrong).
    pub setup_ops: Vec<Op>,
    pub setup: Tally,
    /// From engine construction until the set-up is acknowledged.
    pub setup_s: f64,
}

impl Running {
    /// Runs the epoch's rounds on this serve tier.
    pub fn run_epoch(&mut self) -> Tally {
        let mut tally = Tally::default();
        for r in 0..self.workload.rounds_per_epoch() {
            let ops = self.workload.round(r);
            run_round(&mut self.client, &ops, &mut tally);
        }
        tally
    }
}

/// Requests sent after set-up and before the measured rounds.
const WARM_UP: usize = 5;

/// Starts a fresh serve tier, connects, and loads the workload's initial
/// state. Each set-up batch goes as one request batch (a client loading a
/// catalog sends it in bulk), and every response is checked.
pub fn set_up(mut workload: Box<dyn Workload>) -> std::io::Result<Running> {
    let start = Instant::now();
    let server = wire::start()?;
    let mut client = Client::connect(server.addr)?;
    let batches = workload.setup();
    let mut setup = Tally::default();
    let mut responses = Vec::with_capacity(batches.len());
    for ops in &batches {
        let lines: Vec<&str> = ops.iter().map(|op| op.line.as_str()).collect();
        let resps = client.batch(&lines)?;
        for (op, resp) in ops.iter().zip(&resps) {
            setup.judge(op, resp);
        }
        responses.push(resps);
    }
    workload.after_setup(&responses);
    let setup_s = start.elapsed().as_secs_f64();
    // Untimed warm-up: the first single requests a fresh serve tier
    // answers took 1-9 ms where later ones took 0.15 ms; a long-running
    // server is past that.
    for _ in 0..WARM_UP {
        client.call(r#"{"op":"stats"}"#)?;
    }
    Ok(Running {
        server,
        client,
        workload,
        setup_ops: batches.into_iter().flatten().collect(),
        setup,
        setup_s,
    })
}

fn rng_for(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ---------------------------------------------------------------- cold

/// `cold`: a small catalog; the round registers one new tenant and asks
/// each of its questions once, so the verdict cache never hits. One round
/// per epoch, so it always meets the set-up catalog.
pub struct Cold {
    pub seed: u64,
    pub setup_tenants: usize,
    catalog: Vec<OmqSpec>,
}

impl Cold {
    pub fn new(seed: u64, smoke: bool) -> Cold {
        Cold {
            seed,
            setup_tenants: if smoke { 1 } else { 4 },
            catalog: Vec::new(),
        }
    }
}

impl Workload for Cold {
    fn setup(&mut self) -> Vec<Vec<Op>> {
        let mut ops = Vec::new();
        for i in 0..self.setup_tenants {
            let mut rng = rng_for(self.seed, 1_000 + i as u64);
            let t = catalog::cold_tenant(&format!("s{i}"), &mut rng);
            ops.extend(t.omqs.iter().map(Op::register));
            self.catalog.extend(t.omqs);
        }
        vec![ops]
    }

    fn rounds_per_epoch(&self) -> usize {
        1
    }

    fn round(&mut self, r: usize) -> Vec<Op> {
        let mut rng = rng_for(self.seed, r as u64);
        let t = catalog::cold_tenant(&format!("t{r}"), &mut rng);
        // The tenant's registrations, then each of its questions once.
        let ops = t.omqs.iter().map(Op::register);
        let ops = ops.chain(t.questions.iter().map(Op::question)).collect();
        self.catalog.extend(t.omqs);
        ops
    }

    fn catalog(&self) -> Vec<OmqSpec> {
        self.catalog.clone()
    }
}

// ----------------------------------------------------------------- hot

/// `hot`: a large catalog and a small working set of questions asked
/// over and over with a skewed draw; 1 request in 100 registers a new
/// OMQ.
pub struct Hot {
    pub seed: u64,
    pub tenants: usize,
    rounds: usize,
    working_set: Vec<Question>,
    /// The cold answer to each working-set question (set-up warm-up).
    answers: Vec<Arc<str>>,
    cumulative: Vec<f64>,
    catalog: Vec<OmqSpec>,
}

const HOT_WORKING_SET: usize = 64;
const HOT_ROUND: usize = 100;
/// Rounds per epoch: the new OMQs run through 45 distinct (chain, query
/// length) pairs, one per round.
pub const HOT_EPOCH: usize = 45;

impl Hot {
    pub fn new(seed: u64, tenants: usize, rounds: usize) -> Hot {
        Hot {
            seed,
            tenants,
            rounds,
            working_set: Vec::new(),
            answers: Vec::new(),
            cumulative: Vec::new(),
            catalog: Vec::new(),
        }
    }

    fn draw(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

impl Workload for Hot {
    fn setup(&mut self) -> Vec<Vec<Op>> {
        let mut regs = Vec::new();
        let mut questions = Vec::new();
        for i in 0..self.tenants {
            let mut rng = rng_for(self.seed, 2_000 + i as u64);
            let t = catalog::hot_tenant(&format!("h{i}"), &mut rng);
            regs.extend(t.omqs.iter().map(Op::register));
            self.catalog.extend(t.omqs);
            questions.extend(t.questions);
        }
        let mut rng = rng_for(self.seed, 3);
        let size = HOT_WORKING_SET.min(questions.len());
        while self.working_set.len() < size {
            let q = questions.swap_remove(rng.below(questions.len()));
            self.working_set.push(q);
        }
        // Zipf weights 1/sqrt(rank) over the working set: skewed, yet no
        // single question decides the median.
        let mut acc = 0.0;
        self.cumulative = (1..=size)
            .map(|rank| {
                acc += 1.0 / (rank as f64).sqrt();
                acc
            })
            .collect();
        // The warm-up pass: each working-set question once.
        let warm = self.working_set.iter().map(Op::question).collect();
        vec![regs, warm]
    }

    fn after_setup(&mut self, responses: &[Vec<String>]) {
        self.answers = responses[1].iter().map(|r| Arc::from(r.as_str())).collect();
    }

    fn rounds_per_epoch(&self) -> usize {
        self.rounds
    }

    fn round(&mut self, r: usize) -> Vec<Op> {
        let mut rng = rng_for(self.seed, r as u64);
        (0..HOT_ROUND)
            .map(|i| {
                if i == HOT_ROUND / 2 {
                    // A new OMQ (distinct chain and query length) under
                    // one shared prefix, so the vocabulary stops growing
                    // after the first rounds of an epoch.
                    let k = r % HOT_EPOCH;
                    let (chain, qlen) = (2 + k % 15, 1 + k / 15);
                    let spec = catalog::linear_spec(&format!("x{r}"), "x_", chain, qlen);
                    self.catalog.push(spec.clone());
                    Op::register(&spec)
                } else {
                    let q = self.draw(&mut rng);
                    Op {
                        line: self.working_set[q].line(),
                        expect: Expect::Exact(Arc::clone(&self.answers[q])),
                        write: false,
                    }
                }
            })
            .collect()
    }

    fn catalog(&self) -> Vec<OmqSpec> {
        self.catalog.clone()
    }
}

// -------------------------------------------------------------- mutate

/// An undirected-free edge set over `n` nodes in `comps` components;
/// the benchmark's own copy of a store's `E` relation.
#[derive(Clone)]
struct Graph {
    n: u32,
    comps: u32,
    edges: BTreeSet<(u32, u32)>,
}

impl Graph {
    fn random(rng: &mut SplitMix64, n: u32, comps: u32, edges: usize) -> Graph {
        let mut g = Graph {
            n,
            comps,
            edges: BTreeSet::new(),
        };
        while g.edges.len() < edges {
            let e = g.fresh_edge(rng);
            g.edges.insert(e);
        }
        g
    }

    /// A random absent edge inside one component.
    fn fresh_edge(&self, rng: &mut SplitMix64) -> (u32, u32) {
        let size = self.n / self.comps;
        loop {
            let c = rng.below(self.comps as usize) as u32;
            let a = c * size + rng.below(size as usize) as u32;
            let b = c * size + rng.below(size as usize) as u32;
            if a != b && !self.edges.contains(&(a, b)) {
                return (a, b);
            }
        }
    }

    /// Transitive closure (paths of length >= 1) by BFS from every node,
    /// rendered and sorted as the engine sorts its answers.
    fn closure(&self) -> Vec<(String, String)> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.n as usize];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
        }
        let mut out = Vec::new();
        for s in 0..self.n {
            let mut seen = vec![false; self.n as usize];
            let mut queue: VecDeque<u32> = adj[s as usize].iter().copied().collect();
            while let Some(v) = queue.pop_front() {
                if std::mem::replace(&mut seen[v as usize], true) {
                    continue;
                }
                out.push((node(s), node(v)));
                queue.extend(adj[v as usize].iter().copied());
            }
        }
        out.sort();
        out
    }
}

fn node(i: u32) -> String {
    format!("n{i}")
}

fn fact(a: u32, b: u32) -> String {
    format!("mt_E({},{})", node(a), node(b))
}

fn facts_line(op: &str, store: &str, facts: &[String]) -> String {
    Json::Obj(vec![
        ("op".into(), Json::str(op)),
        ("name".into(), Json::str(store)),
        (
            "facts".into(),
            Json::Arr(facts.iter().map(Json::str).collect()),
        ),
    ])
    .to_string()
}

struct MutateShape {
    nodes: u32,
    comps: u32,
    edges: usize,
    /// Steady operations per store.
    steady: usize,
    /// Stores bulk-loaded at set-up.
    stores: usize,
}

const MUTATE_FULL: MutateShape = MutateShape {
    nodes: 150,
    comps: 10,
    edges: 200,
    steady: 480,
    stores: 3,
};

const MUTATE_SMOKE: MutateShape = MutateShape {
    nodes: 40,
    comps: 4,
    edges: 50,
    steady: 40,
    stores: 2,
};

/// `mutate`: a few E14 transitive-closure stores (`tc_workload` under
/// alias names), bulk-loaded at set-up; then, one store per round,
/// single-edge asserts and retracts interleaved with `evaluate` at the
/// head and, late in the round, at a pinned `snapshot` version. The
/// protocol cannot release a pin, so each epoch starts from fresh stores.
pub struct Mutate {
    seed: u64,
    shape: MutateShape,
    catalog: Vec<OmqSpec>,
}

impl Mutate {
    fn new(seed: u64, shape: MutateShape) -> Mutate {
        Mutate {
            seed,
            shape,
            catalog: Vec::new(),
        }
    }

    fn store_name(s: usize) -> String {
        format!("m{s}")
    }

    /// Store `s`'s base graph.
    fn graph(&self, s: usize) -> Graph {
        let mut rng = rng_for(self.seed, s as u64 + 5_000);
        let sh = &self.shape;
        Graph::random(&mut rng, sh.nodes, sh.comps, sh.edges)
    }

    /// The steady operations on one store: a write on every third step
    /// (two asserts of a fresh edge, then one retract of a present edge),
    /// reads on the others; a snapshot pin at 7/8 of the way, after which
    /// every other read evaluates at the pinned version.
    fn steady(&self, s: usize, mut g: Graph) -> Vec<Op> {
        let name = Self::store_name(s);
        let mut rng = rng_for(self.seed, s as u64 + 9_000);
        let mut version = 1u64;
        let mut pinned: Option<(u64, Pairs)> = None;
        let pin_at = self.shape.steady * 7 / 8 / 3 * 3 + 1;
        let mut head = Arc::new(g.closure());
        let mut ops = Vec::with_capacity(self.shape.steady);
        for i in 0..self.shape.steady {
            if i % 3 == 0 {
                let assert = (i / 3) % 3 != 2;
                let e = if assert {
                    g.fresh_edge(&mut rng)
                } else {
                    let k = rng.below(g.edges.len());
                    *g.edges.iter().nth(k).expect("k < len")
                };
                if assert {
                    g.edges.insert(e);
                } else {
                    g.edges.remove(&e);
                }
                version += 1;
                head = Arc::new(g.closure());
                ops.push(Op {
                    line: facts_line(
                        if assert { "assert" } else { "retract" },
                        &name,
                        &[fact(e.0, e.1)],
                    ),
                    expect: Expect::Version(version),
                    write: true,
                });
            } else if i == pin_at {
                pinned = Some((version, Arc::clone(&head)));
                ops.push(Op {
                    line: format!(r#"{{"op":"snapshot","name":"{name}"}}"#),
                    expect: Expect::Version(version),
                    write: false,
                });
            } else {
                let (line, pairs, at) = match &pinned {
                    Some((v, pairs)) if i % 3 == 2 => (
                        format!(r#"{{"op":"evaluate","name":"{name}","at":{v}}}"#),
                        Arc::clone(pairs),
                        *v,
                    ),
                    _ => (
                        format!(r#"{{"op":"evaluate","name":"{name}"}}"#),
                        Arc::clone(&head),
                        version,
                    ),
                };
                ops.push(Op {
                    line,
                    expect: Expect::Answers { pairs, version: at },
                    write: false,
                });
            }
        }
        ops
    }
}

impl Workload for Mutate {
    /// Registers the tc program once under its canonical name, then each
    /// store under an alias of it: register, bulk-load in one `assert`,
    /// evaluate once.
    fn setup(&mut self) -> Vec<Vec<Op>> {
        let base = catalog::tc_spec("tc", "mt_");
        let mut ops = vec![Op::register(&base)];
        self.catalog.push(base);
        for s in 0..self.shape.stores {
            let name = Self::store_name(s);
            let spec = catalog::tc_spec(&name, "mt_");
            let g = self.graph(s);
            let facts: Vec<String> = g.edges.iter().map(|&(a, b)| fact(a, b)).collect();
            ops.push(Op::register(&spec));
            ops.push(Op {
                line: facts_line("assert", &name, &facts),
                expect: Expect::Version(1),
                write: true,
            });
            ops.push(Op {
                line: format!(r#"{{"op":"evaluate","name":"{name}"}}"#),
                expect: Expect::Answers {
                    pairs: Arc::new(g.closure()),
                    version: 1,
                },
                write: false,
            });
            self.catalog.push(spec);
        }
        vec![ops]
    }

    fn rounds_per_epoch(&self) -> usize {
        self.shape.stores
    }

    /// The steady operations on store `r`.
    fn round(&mut self, r: usize) -> Vec<Op> {
        self.steady(r, self.graph(r))
    }

    fn catalog(&self) -> Vec<OmqSpec> {
        self.catalog.clone()
    }
}

/// The workload named `name`, at full or smoke size.
pub fn make(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold" => Box::new(Cold::new(seed, smoke)),
        "hot" => Box::new(if smoke {
            Hot::new(seed, 8, 5)
        } else {
            Hot::new(seed, 100, HOT_EPOCH)
        }),
        "mutate" => Box::new(Mutate::new(
            seed,
            if smoke { MUTATE_SMOKE } else { MUTATE_FULL },
        )),
        _ => return None,
    })
}

/// The questions a workload's solver probes use (`cold`: one tenant;
/// `hot`: one tenant of the working set's kind).
pub fn probe_questions(name: &str, seed: u64) -> (Vec<OmqSpec>, Vec<Question>) {
    let mut rng = rng_for(seed, 0);
    let t = match name {
        "cold" => catalog::cold_tenant("p0", &mut rng),
        "hot" => catalog::hot_tenant("p0", &mut rng),
        _ => return (Vec::new(), Vec::new()),
    };
    let qs = t
        .questions
        .into_iter()
        .filter(|q| q.ask == Ask::Contains)
        .collect();
    (t.omqs, qs)
}
