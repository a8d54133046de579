//! The two workloads' inputs: the `serve-hot` request deck and the
//! `engine-cold` query shapes, plus their oracles.

use crate::check::{self, Oracle};
use crate::layers::Query;
use crate::util::Rng;
use dpioa_core::{Action, Automaton, ExplicitAutomaton, Signature, Value};
use dpioa_faults::{CrashStop, FaultProb};
use dpioa_prob::Disc;
use dpioa_sched::{FirstEnabled, Observation, RandomScheduler, Scheduler};
use dpioa_server::catalog::{observation_by_name, scheduler_by_name, Catalog};
use std::sync::Arc;

/// One `serve-hot` request template, hottest first.
pub struct Template {
    pub label: &'static str,
    pub automaton: &'static str,
    pub scheduler: &'static str,
    pub observation: &'static str,
    pub horizon: usize,
    /// All weights reachable under this query are dyadic.
    pub dyadic: bool,
}

impl Template {
    /// The `/v1/query` body: no budget fields, so every request runs
    /// under the server's default deadline.
    pub fn body(&self) -> String {
        format!(
            r#"{{"automaton":"{}","scheduler":"{}","observation":"{}","horizon":{}}}"#,
            self.automaton, self.scheduler, self.observation, self.horizon
        )
    }
}

const fn t(
    label: &'static str,
    automaton: &'static str,
    scheduler: &'static str,
    observation: &'static str,
    horizon: usize,
    dyadic: bool,
) -> Template {
    Template {
        label,
        automaton,
        scheduler,
        observation,
        horizon,
        dyadic,
    }
}

/// The `serve-hot` deck, hottest first: the nine templates of
/// `bench_server` in its order, then a memoryful `walk-8` h14 cone,
/// whose strata give the store megabytes to persist.
/// `uniform-random` over three enabled actions (the mixer's fan-out,
/// the coin bank's three coins) makes 1/3 weights.
pub const SERVE_DECK: &[Template] = &[
    t(
        "walk8-h10-first",
        "walk-8",
        "first-enabled",
        "final-state",
        10,
        true,
    ),
    t(
        "walk8-h12-first",
        "walk-8",
        "first-enabled",
        "final-state",
        12,
        true,
    ),
    t(
        "coin-h1-first",
        "coin",
        "first-enabled",
        "final-state",
        1,
        true,
    ),
    t(
        "walk8-h12-random",
        "walk-8",
        "uniform-random",
        "final-state",
        12,
        true,
    ),
    t(
        "bank3-h6-first",
        "coin-bank-3",
        "first-enabled",
        "final-state",
        6,
        true,
    ),
    t(
        "mixer-h7-random-trace",
        "mixer-4x3",
        "uniform-random",
        "trace",
        7,
        false,
    ),
    t(
        "walk8-h8-memoryful",
        "walk-8",
        "memoryful-alternate",
        "final-state",
        8,
        true,
    ),
    t(
        "mixer-h8-memoryful",
        "mixer-4x3",
        "memoryful-alternate",
        "final-state",
        8,
        true,
    ),
    t(
        "bank3-h4-random-trace",
        "coin-bank-3",
        "uniform-random",
        "trace",
        4,
        false,
    ),
    t(
        "walk8-h14-memoryful",
        "walk-8",
        "memoryful-alternate",
        "final-state",
        14,
        true,
    ),
];

/// Zipf exponent of the `serve-hot` draw over the deck ranks.
pub const ZIPF_S: f64 = 1.1;

/// Cumulative zipf weights over the deck, for inverse-CDF draws.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (0..n)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

/// Requests per zipf block: each block holds every template in its
/// zipf share (largest-remainder rounding) in a seeded order, so any
/// whole number of blocks has the same mix on every seed.
pub const ZIPF_BLOCK: usize = 100;

/// `blocks` seeded zipf blocks of deck indices, concatenated.
pub fn zipf_draws(rng: &mut Rng, blocks: usize) -> Vec<usize> {
    let cdf = zipf_cdf(SERVE_DECK.len());
    let share: Vec<f64> = cdf
        .iter()
        .scan(0.0, |prev, &c| {
            let s = (c - *prev) * ZIPF_BLOCK as f64;
            *prev = c;
            Some(s)
        })
        .collect();
    let mut counts: Vec<usize> = share.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..share.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (share[b] - share[b].floor()).total_cmp(&(share[a] - share[a].floor())));
    let short = ZIPF_BLOCK - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
        .collect();
    (0..blocks)
        .flat_map(|_| {
            let mut b = block.clone();
            rng.shuffle(&mut b);
            b
        })
        .collect()
}

/// The served query behind a template, rebuilt in-process from the
/// server's own catalog (the same automata the server answers on).
pub fn resolve(catalog: &Catalog, t: &Template) -> Query {
    Query {
        label: t.label.to_string(),
        auto: catalog
            .get(t.automaton)
            .expect("deck names a catalog automaton")
            .automaton
            .clone(),
        sched: scheduler_by_name(t.scheduler).expect("deck names a catalog scheduler"),
        obs: observation_by_name(t.observation).expect("deck names a catalog observation"),
        horizon: t.horizon,
        max_expansions: None,
    }
}

pub fn serve_oracles(catalog: &Catalog) -> Vec<Oracle> {
    SERVE_DECK
        .iter()
        .map(|t| check::oracle(&resolve(catalog, t), t.dyadic))
        .collect()
}

/// Which share of the `engine-cold` deck a shape belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Share {
    /// Wide cones only the general exact engine can answer.
    GeneralExact,
    /// Memoryless queries the lumped tier answers.
    Lumped,
    /// A count-only expansion budget trips the exact tier, so the
    /// salvage sampler answers with a fixed sample count and seed.
    Budgeted,
}

/// One distinct `engine-cold` query.
pub struct Shape {
    pub query: Query,
    pub dyadic: bool,
    pub share: Share,
    /// Copies of this shape in one deck pass.
    pub copies: usize,
}

/// Samples the salvage sampler draws on the budgeted share.
pub const SALVAGE_SAMPLES: usize = 4000;

/// Expansion budget of the budgeted share: far below the cone, so the
/// trip depth is a function of the count alone, never of the clock.
pub const SALVAGE_EXPANSIONS: usize = 300;

fn walk(prefix: &str, n_states: i64) -> Arc<dyn Automaton> {
    let mut b = ExplicitAutomaton::builder(format!("{prefix}-walk{n_states}"), Value::int(0));
    for i in 0..n_states {
        let step = Action::named(format!("{prefix}-w{i}"));
        b = b.state(i, Signature::new([], [], [step])).transition(
            i,
            step,
            Disc::bernoulli_dyadic(
                Value::int((i + 1) % n_states),
                Value::int((i + 2) % n_states),
                1,
                1,
            ),
        );
    }
    b.build().shared()
}

/// The distinct `engine-cold` shapes with their per-pass copy counts.
/// A pass holds 24 queries: 12 general-exact, 8 lumped, 4 budgeted, so
/// `exact_frac` is 20/24 on every seed and every run. Sorted by cost,
/// ten cheap queries come first and the five `walk8-mem-h12` cones sit
/// on the median, so the median falls inside one class of equal work
/// rather than in the gap between two.
pub fn cold_shapes() -> Vec<Shape> {
    let catalog = Catalog::standard();
    let get = |n: &str| catalog.get(n).expect("catalog automaton").automaton.clone();
    let walk8 = get("walk-8");
    let bank = get("coin-bank-3");
    let mixer = get("mixer-4x3");
    let fault_walk = CrashStop::wrap(walk("pb-f", 5), FaultProb::new(1, 2));
    let memoryful = || scheduler_by_name("memoryful-alternate").expect("catalog scheduler");
    let first = || -> Arc<dyn Scheduler> { Arc::new(FirstEnabled) };
    let random = || -> Arc<dyn Scheduler> { Arc::new(RandomScheduler) };
    // A whole-execution observation (never lumpable) with a small
    // support: the final state and how often state 0 was visited.
    let visits = || {
        Observation::full(|e| {
            let zeros = e.states().iter().filter(|q| q.as_int() == Some(0)).count();
            Value::tuple(vec![e.lstate().clone(), Value::int(zeros as i64)])
        })
    };
    let fin = Observation::final_state;
    let mut shapes = Vec::new();
    let mut add = |label: &str,
                   auto: &Arc<dyn Automaton>,
                   sched: Arc<dyn Scheduler>,
                   obs: Observation,
                   horizon: usize,
                   share: Share,
                   dyadic: bool,
                   copies: usize| {
        shapes.push(Shape {
            query: Query {
                label: label.to_string(),
                auto: auto.clone(),
                sched,
                obs,
                horizon,
                max_expansions: (share == Share::Budgeted).then_some(SALVAGE_EXPANSIONS),
            },
            dyadic,
            share,
            copies,
        });
    };
    use Share::*;
    add(
        "bank3-mem-h8",
        &bank,
        memoryful(),
        fin(),
        8,
        GeneralExact,
        true,
        1,
    );
    add(
        "fault-walk-mem-h10",
        &fault_walk,
        memoryful(),
        fin(),
        10,
        GeneralExact,
        true,
        1,
    );
    add(
        "walk8-mem-h12",
        &walk8,
        memoryful(),
        fin(),
        12,
        GeneralExact,
        true,
        5,
    );
    add(
        "mixer-random-full-h8",
        &mixer,
        random(),
        visits(),
        8,
        GeneralExact,
        false,
        1,
    );
    add(
        "fault-walk-mem-h12",
        &fault_walk,
        memoryful(),
        fin(),
        12,
        GeneralExact,
        true,
        1,
    );
    add(
        "walk8-mem-h13",
        &walk8,
        memoryful(),
        fin(),
        13,
        GeneralExact,
        true,
        1,
    );
    add(
        "mixer-random-full-h9",
        &mixer,
        random(),
        visits(),
        9,
        GeneralExact,
        false,
        1,
    );
    add(
        "walk8-mem-h14",
        &walk8,
        memoryful(),
        fin(),
        14,
        GeneralExact,
        true,
        1,
    );
    add(
        "walk8-first-h12",
        &walk8,
        first(),
        fin(),
        12,
        Lumped,
        true,
        2,
    );
    add(
        "walk8-first-h14",
        &walk8,
        first(),
        fin(),
        14,
        Lumped,
        true,
        2,
    );
    add(
        "walk8-random-h14",
        &walk8,
        random(),
        fin(),
        14,
        Lumped,
        true,
        1,
    );
    add(
        "fault-walk-first-h12",
        &fault_walk,
        first(),
        fin(),
        12,
        Lumped,
        true,
        2,
    );
    add("bank3-first-h8", &bank, first(), fin(), 8, Lumped, true, 1);
    add(
        "walk8-mem-h14-budget",
        &walk8,
        memoryful(),
        fin(),
        14,
        Budgeted,
        true,
        2,
    );
    add(
        "fault-walk-mem-h12-budget",
        &fault_walk,
        memoryful(),
        fin(),
        12,
        Budgeted,
        true,
        2,
    );
    shapes
}

/// Queries in one `engine-cold` deck pass.
pub const COLD_PASS: usize = 24;

/// One deck pass: every shape's copies, in a seeded order.
pub fn cold_pass(shapes: &[Shape], rng: &mut Rng) -> Vec<usize> {
    let mut pass: Vec<usize> = shapes
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.copies))
        .collect();
    assert_eq!(pass.len(), COLD_PASS, "deck pass size");
    rng.shuffle(&mut pass);
    pass
}
