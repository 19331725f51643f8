//! Tenant-prefixed OMQ catalogs and the questions asked of them, each with
//! the answer its family's construction implies (the reasoning is spelled
//! out per family in `README.md`).
//!
//! Every predicate of a tenant's OMQ carries the tenant's prefix. The
//! registry keeps one shared vocabulary, so the prefix is what lets two
//! tenants register the same family: without it their canonical keys
//! coincide (alias registrations, shared cache entries) and a predicate
//! reused at another arity is rejected outright (`prop18_family(2)` and
//! `prop18_family(3)` both declare `S`).

use omq_bench::workloads::{
    guarded_workload, linear_workload, nr_workload, sticky_workload, tc_workload,
};
use omq_model::rng::SplitMix64;
use omq_model::{Atom, Omq, Term, Vocabulary};
use omq_reductions::tiling::all_pairs;
use omq_reductions::{etp_to_containment, Etp};
use omq_serve::Json;

/// One OMQ as the `register` op carries it.
#[derive(Clone, Debug)]
pub struct OmqSpec {
    pub name: String,
    pub program: String,
    pub schema: Vec<String>,
}

impl OmqSpec {
    pub fn register_line(&self) -> String {
        Json::Obj(vec![
            ("op".into(), Json::str("register")),
            ("name".into(), Json::str(&self.name)),
            ("program".into(), Json::str(&self.program)),
            (
                "schema".into(),
                Json::Arr(self.schema.iter().map(Json::str).collect()),
            ),
            ("query".into(), Json::str("q")),
        ])
        .to_string()
    }

    /// The OMQ the registry builds from this spec, in a private vocabulary.
    pub fn parse(&self) -> (Omq, Vocabulary) {
        let prog = omq_model::parse_program(&self.program).expect("generated programs parse");
        let mut voc = prog.voc.clone();
        let preds = self.schema.iter().map(|entry| {
            let (name, arity) = entry.split_once('/').expect("schema entries carry arity");
            voc.pred(name, arity.parse().expect("numeric arity"))
        });
        let schema = omq_model::Schema::from_preds(preds.collect::<Vec<_>>());
        let query = prog
            .query("q")
            .expect("generated programs define q")
            .clone();
        (Omq::new(schema, prog.tgds.clone(), query), voc)
    }
}

/// A definitive verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Holds,
    Fails,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ask {
    Contains,
    Equivalent,
}

/// A `contains` or `equivalent` question with its expected verdict
/// (`Holds` = contained / equivalent).
#[derive(Clone, Debug)]
pub struct Question {
    pub ask: Ask,
    pub lhs: String,
    pub rhs: String,
    pub expect: Verdict,
    /// Set on the questions a known fault leaves undecided (they are
    /// counted as failed while the fault stands).
    pub fault: Option<&'static str>,
    /// Where the expectation comes from.
    pub oracle: &'static str,
}

impl Question {
    pub fn line(&self) -> String {
        let op = match self.ask {
            Ask::Contains => "contains",
            Ask::Equivalent => "equivalent",
        };
        format!(
            r#"{{"op":"{op}","lhs":"{}","rhs":"{}"}}"#,
            self.lhs, self.rhs
        )
    }

    /// The response verdict string this question must come back with.
    pub fn expected_word(&self) -> &'static str {
        match (self.ask, self.expect) {
            (Ask::Contains, Verdict::Holds) => "contained",
            (Ask::Contains, Verdict::Fails) => "not_contained",
            (Ask::Equivalent, Verdict::Holds) => "equivalent",
            (Ask::Equivalent, Verdict::Fails) => "not_equivalent",
        }
    }
}

/// One tenant's OMQs and questions.
#[derive(Default)]
pub struct Tenant {
    pub omqs: Vec<OmqSpec>,
    pub questions: Vec<Question>,
}

impl Tenant {
    fn omq(&mut self, name: String, omq: &Omq, voc: &Vocabulary, prefix: &str) -> String {
        let (program, schema) = render(omq, voc, prefix);
        self.omqs.push(OmqSpec {
            name: name.clone(),
            program,
            schema,
        });
        name
    }

    fn ask(&mut self, ask: Ask, lhs: &str, rhs: &str, expect: Verdict, oracle: &'static str) {
        self.questions.push(Question {
            ask,
            lhs: lhs.to_owned(),
            rhs: rhs.to_owned(),
            expect,
            fault: None,
            oracle,
        });
    }

    /// `contains` both ways plus `equivalent`, whose expectation is the
    /// conjunction of the two directions.
    fn both_ways(&mut self, a: &str, b: &str, ab: Verdict, ba: Verdict, oracle: &'static str) {
        self.ask(Ask::Contains, a, b, ab, oracle);
        self.ask(Ask::Contains, b, a, ba, oracle);
        let eq = if ab == Verdict::Holds && ba == Verdict::Holds {
            Verdict::Holds
        } else {
            Verdict::Fails
        };
        self.ask(
            Ask::Equivalent,
            a,
            b,
            eq,
            "property: equivalent = both directions",
        );
    }
}

/// Renders `omq` in the parser's syntax with every predicate prefixed.
fn render(omq: &Omq, voc: &Vocabulary, prefix: &str) -> (String, Vec<String>) {
    let term = |t: &Term| match *t {
        Term::Var(v) => voc.var_name(v).to_owned(),
        Term::Const(c) => voc.const_name(c).to_owned(),
        Term::Null(_) => unreachable!("programs carry no nulls"),
    };
    let atom = |a: &Atom| {
        let mut s = format!("{prefix}{}", voc.pred_name(a.pred));
        if !a.args.is_empty() {
            let args: Vec<String> = a.args.iter().map(term).collect();
            s.push_str(&format!("({})", args.join(",")));
        }
        s
    };
    let list = |atoms: &[Atom]| atoms.iter().map(atom).collect::<Vec<_>>().join(", ");
    let mut lines = Vec::new();
    for tgd in &omq.sigma {
        let body = if tgd.body.is_empty() {
            "true".to_owned()
        } else {
            list(&tgd.body)
        };
        let ex: Vec<&str> = tgd
            .existential_vars()
            .iter()
            .map(|&v| voc.var_name(v))
            .collect();
        let exists = if ex.is_empty() {
            String::new()
        } else {
            format!("exists {} . ", ex.join(", "))
        };
        lines.push(format!("{body} -> {exists}{}", list(&tgd.head)));
    }
    for cq in &omq.query.disjuncts {
        let head: Vec<&str> = cq.head.iter().map(|&v| voc.var_name(v)).collect();
        let head = if head.is_empty() {
            String::new()
        } else {
            format!("({})", head.join(","))
        };
        lines.push(format!("q{head} :- {}", list(&cq.body)));
    }
    let schema = omq
        .data_schema
        .preds()
        .iter()
        .map(|&p| format!("{prefix}{}/{}", voc.pred_name(p), voc.arity(p)))
        .collect();
    (lines.join("\n"), schema)
}

/// Draws `n` distinct values from `lo..=hi`, sorted.
fn distinct(rng: &mut SplitMix64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (lo..=hi).collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(pool.swap_remove(rng.below(pool.len())));
    }
    out.sort_unstable();
    out
}

/// E1 (linear). Every member answers `{x : C0(x) or x has an R-edge}`:
/// from an R-edge, `R(u,v) -> C_c(v)` and `C_c(x) -> exists y R(x,y)`
/// grow an infinite R-path at both ends, and `C0` reaches `C_c` along
/// the chain. So all members with one prefix are equivalent, whatever
/// the chain and query length. The bare query `q(X) :- R(X,Y)` (no
/// rules) is contained in each of them, and none of them is contained in
/// it (`{C0(a)}` separates them).
fn linear_family(t: &mut Tenant, tag: &str, rng: &mut SplitMix64) {
    let members = 3;
    let prefix = format!("{tag}l_");
    let mut names = Vec::new();
    for (i, chain) in distinct(rng, members, 2, 8).into_iter().enumerate() {
        let qlen = 1 + rng.below(3);
        let (omq, voc) = linear_workload(chain, qlen);
        names.push(t.omq(format!("{tag}_e1_{i}"), &omq, &voc, &prefix));
    }
    let bare = format!("{tag}_e1_bare");
    t.omqs.push(OmqSpec {
        name: bare.clone(),
        program: format!("q(X) :- {prefix}R(X,Y)"),
        schema: vec![format!("{prefix}C0/1"), format!("{prefix}R/2")],
    });
    let c = "construction: E1 members are equivalent";
    t.ask(
        Ask::Contains,
        &names[0],
        &names[0],
        Verdict::Holds,
        "property: Q in Q",
    );
    for pair in names.windows(2) {
        t.both_ways(&pair[0], &pair[1], Verdict::Holds, Verdict::Holds, c);
    }
    let b = "construction: the bare R-edge query is strictly smaller";
    t.ask(Ask::Contains, &bare, &names[0], Verdict::Holds, b);
    t.ask(Ask::Contains, &names[members - 1], &bare, Verdict::Fails, b);
}

/// E3 (non-recursive). `Q_s` answers the pairs joined by an `L0`-walk of
/// length exactly `2^s`. A simple `L0`-path of length `2^s` has no walk
/// of any other length between its ends, so `Q_s` and `Q_t` are
/// incomparable for `s != t`.
fn nr_family(t: &mut Tenant, tag: &str, strata: &[usize]) -> Vec<String> {
    let prefix = format!("{tag}n_");
    let names: Vec<String> = strata
        .iter()
        .map(|&s| {
            let (omq, voc) = nr_workload(s);
            t.omq(format!("{tag}_e3_s{s}"), &omq, &voc, &prefix)
        })
        .collect();
    for pair in names.windows(2) {
        t.both_ways(
            &pair[0],
            &pair[1],
            Verdict::Fails,
            Verdict::Fails,
            "construction: E3 strata are incomparable",
        );
    }
    names
}

/// E2 (sticky, Prop. 18). `Q^n` is satisfiable (on the `2^n` counter
/// facts), so it is not contained in the rule-free query over a predicate
/// outside the data schema, which is empty on every database and hence
/// contained in everything.
fn sticky_family(t: &mut Tenant, tag: &str, n: usize) {
    let prefix = format!("{tag}s{n}_");
    let (omq, voc) = sticky_workload(n);
    let name = t.omq(format!("{tag}_e2_n{n}"), &omq, &voc, &prefix);
    let empty = format!("{tag}_e2_n{n}_empty");
    t.omqs.push(OmqSpec {
        name: empty.clone(),
        program: format!("q :- {prefix}Zempty(X)"),
        schema: omq
            .data_schema
            .preds()
            .iter()
            .map(|&p| format!("{prefix}{}/{}", voc.pred_name(p), voc.arity(p)))
            .collect(),
    });
    t.ask(
        Ask::Contains,
        &name,
        &name,
        Verdict::Holds,
        "property: Q in Q",
    );
    let c = "construction: Q^n is satisfiable, the empty query is not";
    t.ask(Ask::Contains, &name, &empty, Verdict::Fails, c);
    t.ask(Ask::Contains, &empty, &name, Verdict::Holds, c);
}

/// E4 (guarded). `Q_l` is the Boolean query "an R-path of length l". A
/// data R-path of length `l1` with no `G` atom fires no rule, so
/// `Q_l1` is not contained in `Q_l2` when `l1 < l2`; the reverse holds
/// (a longer path contains a shorter one, and one `G,R` seed grows an
/// infinite path).
fn guarded_family(t: &mut Tenant, tag: &str, lens: &[usize]) -> Vec<String> {
    let prefix = format!("{tag}g_");
    let names: Vec<String> = lens
        .iter()
        .map(|&l| {
            let (omq, voc) = guarded_workload(l);
            t.omq(format!("{tag}_e4_l{l}"), &omq, &voc, &prefix)
        })
        .collect();
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            t.ask(
                Ask::Contains,
                &names[i],
                &names[j],
                Verdict::Fails,
                "construction: a short R-path without G refutes",
            );
        }
    }
    names
}

/// The Thm. 16 pair for `etp`: `Q1 in Q2` iff the ETP instance has a
/// solution, decided by brute force over all initial conditions
/// (`Etp::has_solution`, independent of the containment code).
fn tiling_pair(t: &mut Tenant, tag: &str, j: usize, etp: &Etp) -> Question {
    let prefix = format!("{tag}k{j}_");
    let omqs = etp_to_containment(etp);
    let a = t.omq(format!("{tag}_tile{j}_q1"), &omqs.q1, &omqs.voc, &prefix);
    let b = t.omq(format!("{tag}_tile{j}_q2"), &omqs.q2, &omqs.voc, &prefix);
    Question {
        ask: Ask::Contains,
        lhs: a,
        rhs: b,
        expect: if etp.has_solution() {
            Verdict::Holds
        } else {
            Verdict::Fails
        },
        fault: None,
        oracle: "ETP brute force (Etp::has_solution)",
    }
}

/// The E7 tiling systems: `T1` allows every adjacency, `T2` only the
/// alternating one; `k` is the length of the initial condition.
fn etp(k: usize) -> Etp {
    let alt = vec![(1u8, 2u8), (2, 1)];
    let mut n = 1u32;
    while (1usize << n) < k {
        n += 1;
    }
    Etp {
        k,
        n,
        m: 2,
        h1: all_pairs(2),
        v1: all_pairs(2),
        h2: alt.clone(),
        v2: alt,
    }
}

/// Fault: `anytime_guarded` (crates/core/src/containment.rs) only refutes
/// for a guarded left-hand side; it never certifies containment unless
/// the rewriting saturates.
pub const FAULT_GUARDED: &str = "guarded lhs: containment is never certified";
/// Fault: the `k = 3` tiling pair exhausts the rewriting budget.
pub const FAULT_TILING3: &str = "tiling k=3: rewriting budget exhausted";

/// The `cold` tenant: every family, with the three headline questions
/// (`nr strata=4` self-containment, tiling `k=3`, a guarded pair whose
/// answer is *contained*) in every tenant. Every tenant has the same
/// number of registrations and questions whatever `rng` draws, and the
/// two fault questions use fixed inputs, so the failed share of a round
/// never depends on the seed.
pub fn cold_tenant(tag: &str, rng: &mut SplitMix64) -> Tenant {
    let mut t = Tenant::default();
    linear_family(&mut t, tag, rng);
    let mut strata = distinct(rng, 2, 1, 3);
    strata.push(4);
    let first = t.questions.len();
    let nr = nr_family(&mut t, tag, &strata);
    t.ask(
        Ask::Contains,
        &nr[2],
        &nr[2],
        Verdict::Holds,
        "property: Q in Q (nr strata=4)",
    );
    t.ask(
        Ask::Contains,
        &nr[0],
        &nr[0],
        Verdict::Holds,
        "property: Q in Q",
    );
    // Self-containment first, so the `strata=4` headline is the request
    // that computes its rewriting.
    t.questions[first..].rotate_right(2);
    // A fixed block of equally priced questions just below the three
    // headline requests: `nr strata=3` self-containment under four
    // prefixes (each computes its own rewriting). The tail percentile
    // then falls inside this block instead of on whichever drawn
    // question happens to be the most expensive.
    for j in 0..4 {
        let names = nr_family(&mut t, &format!("{tag}p{j}"), &[3]);
        t.ask(
            Ask::Contains,
            &names[0],
            &names[0],
            Verdict::Holds,
            "property: Q in Q",
        );
    }
    sticky_family(&mut t, tag, 1 + rng.below(2));
    let lens = distinct(rng, 2, 2, 4);
    guarded_family(&mut t, tag, &lens);
    // The fixed guarded pair whose answer is *contained*: Q_1 in Q_1.
    let (omq, voc) = guarded_workload(1);
    let g1 = t.omq(format!("{tag}_e4_fix"), &omq, &voc, &format!("{tag}g_"));
    t.questions.push(Question {
        ask: Ask::Contains,
        lhs: g1.clone(),
        rhs: g1,
        expect: Verdict::Holds,
        fault: Some(FAULT_GUARDED),
        oracle: "property: Q in Q (guarded)",
    });
    let small = tiling_pair(&mut t, tag, 0, &etp(1 + rng.below(2)));
    t.questions.push(small);
    let mut k3 = tiling_pair(&mut t, tag, 3, &etp(3));
    k3.fault = Some(FAULT_TILING3);
    t.questions.push(k3);
    t
}

/// A `hot` tenant: the cheap members of each family (no headline, no
/// fault), so every question is decided and cacheable.
pub fn hot_tenant(tag: &str, rng: &mut SplitMix64) -> Tenant {
    let mut t = Tenant::default();
    linear_family(&mut t, tag, rng);
    nr_family(&mut t, tag, &[1, 2]);
    sticky_family(&mut t, tag, 1);
    guarded_family(&mut t, tag, &[1, 2]);
    t
}

/// One E1 member under `prefix` (the `hot` workload's rare registrations).
pub fn linear_spec(name: &str, prefix: &str, chain: usize, qlen: usize) -> OmqSpec {
    let (omq, voc) = linear_workload(chain, qlen);
    let (program, schema) = render(&omq, &voc, prefix);
    OmqSpec {
        name: name.to_owned(),
        program,
        schema,
    }
}

/// The E14 transitive-closure program under `prefix` (the `mutate`
/// stores; `E` is the edge relation, `T` its closure).
pub fn tc_spec(name: &str, prefix: &str) -> OmqSpec {
    let (omq, voc) = tc_workload();
    let (program, schema) = render(&omq, &voc, prefix);
    OmqSpec {
        name: name.to_owned(),
        program,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_programs_parse_back_to_the_family() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let t = cold_tenant("t0", &mut rng);
        for spec in &t.omqs {
            let (omq, _) = spec.parse();
            assert!(!omq.data_schema.is_empty(), "{}", spec.name);
        }
        let (orig, voc) = nr_workload(2);
        let (program, _) = render(&orig, &voc, "p_");
        assert!(program.contains("p_L0(X,Y), p_L0(Y,Z) -> p_L1(X,Z)"));
    }

    #[test]
    fn equivalence_expectation_is_the_conjunction() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let t = cold_tenant("t1", &mut rng);
        for q in t.questions.iter().filter(|q| q.ask == Ask::Equivalent) {
            let dir = |l: &str, r: &str| {
                t.questions
                    .iter()
                    .find(|c| c.ask == Ask::Contains && c.lhs == l && c.rhs == r)
                    .map(|c| c.expect)
            };
            let both = dir(&q.lhs, &q.rhs) == Some(Verdict::Holds)
                && dir(&q.rhs, &q.lhs) == Some(Verdict::Holds);
            assert_eq!(q.expect == Verdict::Holds, both);
        }
    }
}
