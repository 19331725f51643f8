//! The traced run: one epoch of the workload over TCP with a span per
//! request, each request replayed right after in process through
//! `Engine::execute_batch`, and direct calls into each layer's public
//! functions at the workload's catalog size. Every span is recorded by
//! the benchmark around its own call; the program is not instrumented.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use omq_chase::{effective_threads, global_hom_snapshot, parallel_indexed};
use omq_core::{contains_with, detect_language, ContainmentConfig, EvalConfig, OmqLanguage};
use omq_guarded::{compile_encoding, EncodingConfig};
use omq_model::{Atom, Term, Vocabulary};
use omq_obs::{Aggregator, Recorder, Sink};
use omq_rewrite::{xrewrite, DirectRewrite, RewriteError, XRewriteConfig};
use omq_serve::json::{self, Json};
use omq_serve::{parse_request, response_to_json, Engine, EngineConfig, Registry};
use omq_store::{MaintainedStore, StoreConfig};

use crate::catalog::{self, OmqSpec};
use crate::trace::{self_times, Tracer};
use crate::workloads::{self, check, Op, Outcome, Tally, Workload};
use crate::{median, percentile, Metrics};

/// Runs `f` under an `omq-obs` aggregator and returns its counters (the
/// program's own work counters; nothing is added to the program).
fn counted<T>(agg: &Arc<Aggregator>, f: impl FnOnce() -> T) -> T {
    let sinks: Vec<Arc<dyn Sink>> = vec![agg.clone()];
    let _g = omq_obs::install(Some(Recorder::new(sinks)));
    f()
}

fn counter(agg: &Aggregator, name: &str) -> f64 {
    agg.counters()
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v as f64)
        .sum()
}

pub struct Traced {
    pub metrics: Metrics,
    pub tally: Tally,
    pub notes: Vec<String>,
}

pub fn run(w: Box<dyn Workload>, name: &str, seed: u64, spans: &std::path::Path) -> Traced {
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut running = workloads::set_up(w).expect("start the serve tier and load the workload");
    let mut tally = Tally::default();
    for why in running.setup.failures.keys().chain(&running.setup.wrong) {
        tally.wrong.push(format!("set-up: {why}"));
    }
    // The in-process twin, brought to the set-up state.
    let twin = Engine::new(EngineConfig::default());
    for op in &running.setup_ops {
        black_box(twin.execute_batch(&[parse_request(&op.line)]));
    }

    // One epoch's rounds. Each request goes over TCP (one `e2e` span,
    // recorded after the response arrives) and right after it through
    // the twin in process: `parse_request`, `execute_batch` and
    // `response_to_json` + serialisation, children of one `serve.inproc`
    // span. Both see the same stream in the same state.
    let mut stream: Vec<Op> = Vec::new();
    let mut transport = Vec::new();
    for r in 0..running.workload.rounds_per_epoch() {
        let ops = running.workload.round(r);
        for op in &ops {
            let req = tracer.request();
            tally.attempted += 1;
            let t0 = Instant::now();
            let e2e_ms = match running.client.call(&op.line) {
                Ok(resp) => {
                    let t1 = Instant::now();
                    tracer.record("e2e", t0, t1, None, req);
                    tally.judge(op, resp);
                    (t1 - t0).as_secs_f64() * 1e3
                }
                Err(e) => {
                    tally.fail(format!("transport: {e}"));
                    continue;
                }
            };
            tally.lat_ms.push(e2e_ms);
            let t0 = Instant::now();
            let (item, p) = tracer.time("serve.protocol.parse", None, req, || {
                parse_request(&op.line)
            });
            let (out, e) = tracer.time("serve.engine.execute", None, req, || {
                twin.execute_batch(std::slice::from_ref(&item))
            });
            let (line, r) = tracer.time("serve.protocol.render", None, req, || {
                response_to_json(&out[0]).to_string()
            });
            let total = tracer.record("serve.inproc", t0, Instant::now(), None, req);
            for child in [p, e, r] {
                tracer.adopt(child, total);
            }
            transport.push(e2e_ms - tracer.duration_ms(total));
            if let Outcome::Wrong(why) = check(op, &line) {
                tally.wrong.push(format!("in-process replay: {why}"));
            }
        }
        stream.extend(ops);
    }
    let e2e = percentile(&tally.lat_ms, 0.5);

    // The cache as the served stream left it.
    let (rewrites, verdicts, _) = running.server.engine.shard(0).cache_stats();
    let lookups = (verdicts.hits + verdicts.misses) as f64;
    m.count("serve.cache.verdict_hits", verdicts.hits as f64);
    m.count("serve.cache.verdict_misses", verdicts.misses as f64);
    m.count("serve.cache.verdict_lookups", lookups);
    m.put(
        "serve.cache.verdict_hit_ratio",
        if lookups > 0.0 {
            verdicts.hits as f64 / lookups
        } else {
            0.0
        },
        "ratio",
    );
    m.count("serve.cache.rewrite_hits", rewrites.hits as f64);
    m.count("serve.cache.rewrite_misses", rewrites.misses as f64);
    m.count(
        "serve.cache.evictions",
        (rewrites.evictions + verdicts.evictions) as f64,
    );
    let scrape: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(running.server.engine.metrics_text());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("obs.scrape_ms", median(&scrape), "ms");

    // Self times: the `serve.inproc` span's own is the tracer's work
    // inside the request (its children's `record` calls), the only time
    // tracing adds to a measured span.
    let st = self_times(&tracer.spans());
    let layer = |name: &str| st.get(name).cloned().unwrap_or_default();
    let (parse, exec, render, overhead) = (
        layer("serve.protocol.parse"),
        layer("serve.engine.execute"),
        layer("serve.protocol.render"),
        layer("serve.inproc"),
    );
    let inproc: Vec<f64> = {
        let spans = tracer.spans();
        spans
            .iter()
            .filter(|s| s.name == "serve.inproc")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    m.put(
        "serve.protocol.parse_us",
        percentile(&parse, 0.5) * 1e3,
        "us",
    );
    m.put(
        "serve.protocol.render_us",
        percentile(&render, 0.5) * 1e3,
        "us",
    );
    m.put("serve.engine.execute_ms", percentile(&exec, 0.5), "ms");
    m.put("serve.inproc_ms", percentile(&inproc, 0.5), "ms");
    m.put("trace.e2e_p50_ms", e2e, "ms");
    m.put("trace.overhead_ms", percentile(&overhead, 0.5), "ms");
    m.put(
        "serve.reactor.overhead_ms",
        e2e - percentile(&exec, 0.5),
        "ms",
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    for (what, f) in [
        ("mean", &mean as &dyn Fn(&[f64]) -> f64),
        ("p50", &|xs: &[f64]| percentile(xs, 0.5)),
    ] {
        let parts = [&transport, &parse, &exec, &render, &overhead].map(|xs| f(xs));
        notes.push(format!(
            "accounting ({what}, ms): e2e {:.4} = transport {:.4} + parse {:.4} + execute {:.4} + \
             render {:.4} + tracing {:.4} (sum {:.4}; requests {})",
            f(&tally.lat_ms),
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4],
            parts.iter().sum::<f64>(),
            tally.lat_ms.len(),
        ));
    }

    // Registry at the workload's catalog size.
    let catalog = running.workload.catalog();
    let mut reg = Registry::new();
    for spec in &catalog {
        register(&mut reg, spec);
    }
    let (mut reg_ms, mut clone_ms) = (vec![], vec![]);
    for i in 0..20 {
        let spec = catalog::linear_spec(&format!("probe{i}"), &format!("probe{i}l_"), 3, 2);
        let (_, id) = tracer.time("serve.registry.register", None, 0, || {
            register(&mut reg, &spec)
        });
        reg_ms.push(span_ms(&tracer, id));
        let (_, id) = tracer.time("serve.registry.vocab_clone", None, 0, || {
            black_box(reg.vocabulary().clone())
        });
        clone_ms.push(span_ms(&tracer, id));
    }
    m.put("serve.registry.register_ms", median(&reg_ms), "ms");
    m.put("serve.registry.vocab_clone_ms", median(&clone_ms), "ms");
    m.count("serve.registry.size", reg.len() as f64);

    solver_probes(name, seed, &mut reg, &tracer, &mut m);
    store_probes(running.setup_ops.iter().chain(&stream), &tracer, &mut m);

    // One pool dispatch with trivial items, at the default thread setting.
    let items = 64;
    let threads = effective_threads(0, items);
    let dispatch: Vec<f64> = (0..200)
        .map(|_| {
            let (_, id) = tracer.time("runtime.dispatch", None, 0, || {
                parallel_indexed(
                    threads,
                    items,
                    || (),
                    |_, i| {
                        black_box(i);
                    },
                )
            });
            span_ms(&tracer, id) * 1e3
        })
        .collect();
    m.put("runtime.dispatch_us", median(&dispatch), "us");
    m.count("runtime.threads", threads as f64);
    m.count("host.nproc", crate::host::nproc() as f64);

    if let Err(e) = tracer.write_jsonl(spans) {
        notes.push(format!("spans not written: {e}"));
    }
    Traced {
        metrics: m,
        tally,
        notes,
    }
}

fn span_ms(tracer: &Tracer, id: usize) -> f64 {
    tracer.duration_ms(id)
}

fn register(reg: &mut Registry, spec: &OmqSpec) {
    let schema: Vec<&str> = spec.schema.iter().map(String::as_str).collect();
    reg.register(&spec.name, &spec.program, &schema, "q")
        .expect("catalog OMQs register");
}

/// `omq_core::contains_with` with a direct rewrite source per question,
/// `xrewrite` per distinct lhs and `compile_encoding` per guarded lhs,
/// over one tenant registered at the workload's catalog size.
fn solver_probes(name: &str, seed: u64, reg: &mut Registry, tracer: &Tracer, m: &mut Metrics) {
    let (omqs, questions) = workloads::probe_questions(name, seed);
    for spec in &omqs {
        register(reg, spec);
    }
    let agg = Arc::new(Aggregator::new());
    let hom0 = global_hom_snapshot();
    let mut cfg = ContainmentConfig {
        threads: 1,
        ..ContainmentConfig::default()
    };
    cfg.rewrite.threads = 1;
    cfg.eval.rewrite.threads = 1;
    let (mut contains_ms, mut witnesses) = (vec![], 0.0);
    for q in &questions {
        let l = reg.get(&q.lhs).expect("registered").omq.clone();
        let r = reg.get(&q.rhs).expect("registered").omq.clone();
        let mut voc = reg.vocabulary().clone();
        let (out, id) = tracer.time("core.contains", None, 0, || {
            counted(&agg, || {
                contains_with(&l, &r, &mut voc, &cfg, &mut DirectRewrite)
            })
        });
        contains_ms.push(span_ms(tracer, id));
        witnesses += out.map_or(0, |o| o.witnesses_checked) as f64;
    }
    let hom = global_hom_snapshot();
    m.put("core.contains_ms", median(&contains_ms), "ms");
    m.count("core.witnesses_checked", witnesses);
    m.count(
        "hom.candidates_scanned",
        (hom.candidates_scanned - hom0.candidates_scanned) as f64,
    );
    m.count("hom.backtracks", (hom.backtracks - hom0.backtracks) as f64);

    let mut lhs: Vec<&str> = questions.iter().map(|q| q.lhs.as_str()).collect();
    lhs.sort_unstable();
    lhs.dedup();
    let rcfg = XRewriteConfig {
        threads: 1,
        ..XRewriteConfig::default()
    };
    let (mut rewrite_ms, mut candidates, mut disjuncts) = (vec![], 0.0, 0.0);
    let (mut encode_ms, agg_enc) = (vec![], Arc::new(Aggregator::new()));
    for name in lhs {
        let omq = reg.get(name).expect("registered").omq.clone();
        let mut voc = reg.vocabulary().clone();
        let (out, id) = tracer.time("rewrite.xrewrite", None, 0, || {
            xrewrite(&omq, &mut voc, &rcfg)
        });
        rewrite_ms.push(span_ms(tracer, id));
        let out = match out {
            Ok(o) => o,
            Err(RewriteError::BudgetExceeded(partial)) => *partial,
        };
        candidates += out.stats.candidates as f64;
        disjuncts += out.ucq.disjuncts.len() as f64;
        if detect_language(&omq) == OmqLanguage::Guarded {
            let mut voc = reg.vocabulary().clone();
            let (_, id) = tracer.time("guarded.encode", None, 0, || {
                counted(&agg_enc, || {
                    compile_encoding(&omq, &mut voc, &EncodingConfig::default())
                })
            });
            encode_ms.push(span_ms(tracer, id));
        }
    }
    m.put("rewrite.xrewrite_ms", median(&rewrite_ms), "ms");
    m.count("rewrite.candidates", candidates);
    m.count("rewrite.disjuncts", disjuncts);
    m.put("guarded.encode_ms", median(&encode_ms), "ms");
    m.count(
        "automata.bf_nodes_interned",
        counter(&agg, "bf_nodes_interned") + counter(&agg_enc, "bf_nodes_interned"),
    );
    m.count(
        "automata.fixpoint_rounds",
        counter(&agg, "fixpoint_rounds") + counter(&agg_enc, "fixpoint_rounds"),
    );
}

/// Parses `P(a,b)` into an atom of `voc`.
fn ground_atom(voc: &mut Vocabulary, fact: &str) -> Atom {
    let (pred, rest) = fact.split_once('(').expect("facts are P(args)");
    let args: Vec<Term> = rest
        .trim_end_matches(')')
        .split(',')
        .map(|c| Term::Const(voc.constant(c.trim())))
        .collect();
    let p = voc.pred(pred, args.len());
    Atom::new(p, args)
}

/// `MaintainedStore` called directly on the workload's store operations
/// (only `mutate` has any).
fn store_probes<'a>(ops: impl Iterator<Item = &'a Op>, tracer: &Tracer, m: &mut Metrics) {
    let spec = catalog::tc_spec("probe_tc", "mt_");
    let (omq, base_voc) = spec.parse();
    let chase = EvalConfig::default().chase;
    let agg = Arc::new(Aggregator::new());
    let mut stores: HashMap<String, (MaintainedStore, Vocabulary)> = HashMap::new();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        let Ok(v) = json::parse(&op.line) else {
            continue;
        };
        let (Some(kind), Some(name)) = (
            v.get("op").and_then(Json::as_str),
            v.get("name").and_then(Json::as_str),
        ) else {
            continue;
        };
        if !matches!(kind, "assert" | "retract" | "evaluate" | "snapshot") {
            continue;
        }
        let (store, voc) = stores.entry(name.to_owned()).or_insert_with(|| {
            (
                MaintainedStore::new(StoreConfig::default()),
                base_voc.clone(),
            )
        });
        let facts: Vec<Atom> = v
            .get("facts")
            .and_then(Json::as_str_array)
            .unwrap_or_default()
            .iter()
            .map(|f| ground_atom(voc, f))
            .collect();
        let at = v.get("at").and_then(Json::as_u64);
        let span = match kind {
            "assert" => "store.assert",
            "retract" => "store.retract",
            "evaluate" => "store.evaluate",
            _ => "store.snapshot",
        };
        let (_, id) = tracer.time(span, None, 0, || {
            counted(&agg, || match kind {
                "assert" => {
                    let _ = store.assert_facts(&facts, &omq.sigma, voc, &chase);
                }
                "retract" => {
                    let _ = store.retract_facts(&facts, &omq.sigma, voc, &chase);
                }
                "evaluate" => {
                    let _ = black_box(store.evaluate(at, &omq.query, &omq.sigma, voc, &chase));
                }
                _ => {
                    store.snapshot();
                }
            })
        });
        times
            .entry(span)
            .or_default()
            .push(span_ms(tracer, id) * 1e3);
    }
    for (span, key) in [
        ("store.assert", "store.assert_us"),
        ("store.retract", "store.retract_us"),
        ("store.evaluate", "store.evaluate_us"),
    ] {
        m.put(key, times.get(span).map_or(0.0, |t| median(t)), "us");
    }
    let mut stats = omq_store::StoreStats::default();
    for (store, _) in stores.values() {
        let s = store.stats();
        stats.incremental_resumes += s.incremental_resumes;
        stats.full_rechases += s.full_rechases;
        stats.dred_deleted += s.dred_deleted;
        stats.rederived += s.rederived;
        stats.compactions += s.compactions;
    }
    m.count(
        "store.incremental_resumes",
        stats.incremental_resumes as f64,
    );
    m.count("store.full_rechases", stats.full_rechases as f64);
    m.count("store.dred_deleted", stats.dred_deleted as f64);
    m.count("store.rederived", stats.rederived as f64);
    m.count("store.compactions", stats.compactions as f64);
    m.count(
        "chase.triggers_fired",
        counter(&agg, "chase.triggers_fired"),
    );
}
