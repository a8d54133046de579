//! `engine-cold`: library callers asking first-time questions through
//! the production entry point `robust_observation_dist`.
//!
//! A child process (the process under test) builds the deck's automata,
//! then runs every query from one caller thread on a fresh cache, with
//! no strata, no breaker and no deadline: rounds of a closed loop, the
//! `light` and `busy` fixed-rate phases and a climb of the rate ladder,
//! all in whole deck passes so the tier mix is a constant of the deck.
//! Each round ends with a store round, which fills one shared cache per
//! automaton with a deck pass, persists them and restores them into
//! fresh caches, replaying the deck on each. The checker's self-test
//! runs before anything is timed; every answer, the store rounds'
//! included, is checked against the oracle after the run, so the
//! oracle's own memory never counts.

use crate::awake::{AskParent, KeepAwake};
use crate::check::{self, tier_of, Rendered, Tally, Tier};
use crate::deck;
use crate::layers::{self, Query};
use crate::load::{self, same_bits, Outcome, Rates};
use crate::trace;
use crate::util::{self, median, peak_rss_mb, Metrics, Rng, Who};
use crate::{Opts, Summary};
use dpioa_sched::{robust_observation_dist, EngineCache};
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The fixed rates: about an eighth and a quarter of one caller
/// thread's capacity on this deck, low enough that a slow spell of the
/// host does not push the busy phase into heavy queueing; the ladder
/// starts near two thirds of it. A window is seven deck passes, so its
/// tail (the p94.05) falls among the deck's heaviest cones. Those take
/// over 10 ms alone, so the ladder's tail limit sits at four times the
/// unloaded tail, where queueing grows steeply with the rate.
pub const RATES: Rates = Rates {
    light: 30.0,
    busy: 60.0,
    ladder_from: 150.0,
    block: deck::COLD_PASS,
    window: 7 * deck::COLD_PASS,
    tail_window: 7 * deck::COLD_PASS,
    rounds: 3,
    tail_limit_ms: 50.0,
};

/// Persists and restores per round; their times are medians over the
/// repetitions, as on `serve-hot`.
const STORE_REPEATS: usize = 5;

/// How many children the parent spawns; it reports the median of their
/// set-up times.
const SETUPS: usize = 25;

/// Parent side: collect each child's set-up time (building the deck's
/// automata in a fresh process), then relay the last, full child's
/// figures.
pub fn run(opts: &Opts, metrics: &mut Metrics) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut setups = Vec::new();
    let mut summary = None;
    for k in 0..SETUPS {
        let full = k + 1 == SETUPS;
        let mut cmd = Command::new(&exe);
        cmd.arg("engine-child")
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--work-dir")
            .arg(&opts.work_dir)
            .arg("--out-dir")
            .arg(&opts.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if !full {
            cmd.arg("--setup-only");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        out.read_line(&mut line)
            .map_err(|e| format!("child: {e}"))?;
        let Some(setup) = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|s| s.parse::<f64>().ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("child did not get ready: {line:?}"));
        };
        setups.push(setup);
        let mut relayed = None;
        let mut awake = None;
        for line in out.lines() {
            let line = line.map_err(|e| format!("child: {e}"))?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["awake", "1"] => awake = Some(KeepAwake::start()),
                ["awake", "0"] => awake = None,
                ["metric", name, value] => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("bad metric line {line:?}"))?;
                    metrics.set(name, v, crate::unit_of(name));
                }
                ["summary", a, f, c] => {
                    relayed = Some(Summary {
                        attempted: a.parse().unwrap_or(0),
                        failed: f.parse().unwrap_or(u64::MAX),
                        correct: *c == "true",
                    });
                }
                _ => eprintln!("child: {line}"),
            }
        }
        drop(awake);
        let status = child.wait().map_err(|e| format!("wait child: {e}"))?;
        if !status.success() {
            return Err(format!("engine child failed ({status})"));
        }
        if full {
            summary = relayed;
        }
    }
    util::report_repeats("setup", &setups);
    metrics.set("setup_s", median(&setups), "s");
    summary.ok_or_else(|| "engine child printed no summary".into())
}

/// What one cold query observed.
#[derive(Clone, Default)]
struct ColdReply {
    ok: bool,
    tier: Option<Tier>,
    hits: u64,
    misses: u64,
}

impl Outcome for ColdReply {
    fn ok(&self) -> bool {
        self.ok
    }

    fn exact(&self) -> bool {
        self.tier.is_some_and(Tier::is_exact)
    }
}

/// Distinct answers per shape with how often each was returned; each
/// is checked against the oracle once the run is over.
struct Answers {
    variants: Vec<Vec<(Rendered, Tier, f64, u64)>>,
    errors: Vec<String>,
}

impl Answers {
    fn record(&mut self, shape: usize, dist: Rendered, tier: Tier, bound: f64) {
        let vs = &mut self.variants[shape];
        match vs.iter_mut().find(|(r, t, b, _)| {
            *t == tier && b.to_bits() == bound.to_bits() && same_bits(r, &dist)
        }) {
            Some(v) => v.3 += 1,
            None => vs.push((dist, tier, bound, 1)),
        }
    }
}

/// The store pass, run at the end of every round so that its timings
/// sample the whole run: the host's speed drifts over seconds, and a
/// burst of repetitions at the end of the run caught one moment of it.
/// Each round fills one shared cache per automaton (as `RobustConfig`
/// documents sharing) with a deck pass, persists them, and restores
/// them into fresh caches, replaying the deck on each; the caches are
/// dropped when the round ends.
struct StorePass<'a> {
    queries: &'a [Query],
    mc_seed: u64,
    families: Vec<String>,
    dirs: Vec<std::path::PathBuf>,
    /// The first fill's answers, which every replay must repeat.
    before: Vec<(Rendered, Tier)>,
    persists: Vec<f64>,
    restarts: Vec<f64>,
    replay_ok: bool,
}

impl<'a> StorePass<'a> {
    fn new(work_dir: &Path, queries: &'a [Query], mc_seed: u64) -> Result<Self, String> {
        let mut families: Vec<String> = queries.iter().map(|q| q.auto.name()).collect();
        families.sort();
        families.dedup();
        let dirs: Vec<std::path::PathBuf> = (0..families.len())
            .map(|f| work_dir.join(format!("cold-store-{f}")))
            .collect();
        for dir in &dirs {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(StorePass {
            queries,
            mc_seed,
            families,
            dirs,
            before: Vec::new(),
            persists: Vec::new(),
            restarts: Vec::new(),
            replay_ok: true,
        })
    }

    /// Answer the deck on one shared cache per automaton, recording
    /// every answer.
    fn pass(
        &self,
        caches: &[Arc<EngineCache>],
        answers: &Mutex<Answers>,
    ) -> Result<Vec<(Rendered, Tier)>, String> {
        let mut out = Vec::new();
        for (s, q) in self.queries.iter().enumerate() {
            let family = self
                .families
                .binary_search(&q.auto.name())
                .expect("listed family");
            let (dist, prov) = robust_observation_dist(
                q.auto.as_ref(),
                q.sched.as_ref(),
                q.horizon,
                &q.obs,
                &q.config(Some(Arc::clone(&caches[family])), self.mc_seed),
            )
            .map_err(|e| format!("{}: {e}", q.label))?;
            let (dist, tier) = (check::render(&dist), tier_of(prov.engine));
            answers
                .lock()
                .expect("answers lock")
                .record(s, dist.clone(), tier, prov.error_bound);
            out.push((dist, tier));
        }
        Ok(out)
    }

    /// Check a replay against the first fill.
    fn compare(&mut self, replay: &[(Rendered, Tier)], what: &str) {
        for ((q, (dist, tier)), (again, _)) in self.queries.iter().zip(&self.before).zip(replay) {
            if tier.is_exact() && !same_bits(dist, again) {
                self.replay_ok = false;
                eprintln!("{what} of {} differs", q.label);
            }
        }
    }

    fn round(&mut self, answers: &Mutex<Answers>) -> Result<(), String> {
        let traced = trace::enabled();
        trace::enable(false);
        let warm: Vec<Arc<EngineCache>> = self
            .families
            .iter()
            .map(|_| EngineCache::shared())
            .collect();
        let fill = self.pass(&warm, answers)?;
        if self.before.is_empty() {
            self.before = fill;
        } else {
            self.compare(&fill, "refill");
        }
        for _ in 0..STORE_REPEATS {
            let mut total = 0.0;
            for (cache, dir) in warm.iter().zip(&self.dirs) {
                let t = layers::persist(cache, dir)?;
                total += (t.encode_ms + t.write_ms) / 1e3;
            }
            self.persists.push(total);
        }
        drop(warm);
        for _ in 0..STORE_REPEATS {
            let mut caches = Vec::new();
            let mut total = 0.0;
            for dir in &self.dirs {
                let (cache, decode_ms) = layers::restore(dir)?;
                caches.push(cache);
                total += decode_ms / 1e3;
            }
            self.restarts.push(total);
            let replay = self.pass(&caches, answers)?;
            self.compare(&replay, "replay after restore");
        }
        trace::enable(traced);
        Ok(())
    }

    fn report(&self, metrics: &mut Metrics) {
        util::report_repeats("persist", &self.persists);
        metrics.set("persist_s", median(&self.persists), "s");
        util::report_repeats("restart", &self.restarts);
        metrics.set("restart_s", median(&self.restarts), "s");
    }
}

/// Child side: the process under test. Its first line is `ready` and
/// the seconds it took to build the deck. Timing inside the child keeps
/// process creation, which the program does not control and the host
/// makes noisy, out of `setup_s`.
pub fn child_main(opts: &Opts, setup_only: bool) -> Result<(), String> {
    let t0 = Instant::now();
    let shapes = deck::cold_shapes();
    let queries: Vec<Query> = shapes.iter().map(|s| s.query.clone()).collect();
    println!("ready {:?}", t0.elapsed().as_secs_f64());
    let _ = std::io::stdout().flush();
    if setup_only {
        return Ok(());
    }
    let probe = shapes
        .iter()
        .find(|s| s.dyadic && s.share == deck::Share::GeneralExact)
        .expect("the deck has a dyadic general-exact shape");
    check::self_test(&check::oracle(&probe.query, true))?;
    let mut rng = Rng::new(opts.seed);
    let mc_seed = rng.next_u64();
    let order: Vec<usize> = (0..400)
        .flat_map(|_| deck::cold_pass(&shapes, &mut rng))
        .collect();
    let configs: Vec<_> = queries.iter().map(|q| q.config(None, mc_seed)).collect();
    let answers = Mutex::new(Answers {
        variants: vec![Vec::new(); shapes.len()],
        errors: Vec::new(),
    });
    let mut metrics = Metrics::default();

    let run_query = |i: usize| -> (Instant, ColdReply) {
        let s = order[i % order.len()];
        let q = &queries[s];
        let root = trace::begin("client.query", None, i as u64);
        let span = trace::begin("engine.query", root.as_ref(), i as u64);
        let res = robust_observation_dist(
            q.auto.as_ref(),
            q.sched.as_ref(),
            q.horizon,
            &q.obs,
            &configs[s],
        );
        let done = Instant::now();
        trace::end(span, Some(done));
        let record = trace::begin("client.record", root.as_ref(), i as u64);
        let mut answers = answers.lock().expect("answers lock");
        let out = match res {
            Ok((dist, prov)) => {
                let tier = tier_of(prov.engine);
                answers.record(s, check::render(&dist), tier, prov.error_bound);
                (
                    done,
                    ColdReply {
                        ok: true,
                        tier: Some(tier),
                        hits: prov.cache_hits.unwrap_or(0),
                        misses: prov.cache_misses.unwrap_or(0),
                    },
                )
            }
            Err(e) => {
                answers.errors.push(format!("{}: {e}", q.label));
                (done, ColdReply::default())
            }
        };
        trace::end(record, None);
        trace::end(root, None);
        out
    };

    let mut store = StorePass::new(&opts.work_dir, &queries, mc_seed)?;
    // The peak resident set is read before the first store round, whose
    // warm caches hold several times what a cold query does: every round
    // runs the same deck on fresh caches, so the first round reaches the
    // queries' peak.
    let mut peak_rss = None;
    let phases = load::run_phases(
        &RATES,
        opts.seconds as f64,
        1,
        opts.trace,
        |first| move |i| run_query(first + i),
        AskParent::start,
        || {
            peak_rss.get_or_insert_with(|| peak_rss_mb(Who::Myself));
            store.round(&answers)
        },
    )?;
    phases.report(&RATES, &mut metrics)?;
    let peak_rss = peak_rss.ok_or("no round ran")?;
    metrics.set("peak_rss_mb", peak_rss, "MiB");
    trace::enable(false);

    store.report(&mut metrics);
    let replay_ok = store.replay_ok;
    let answers = answers.into_inner().expect("answers lock");

    let replies: Vec<&ColdReply> = phases
        .untraced
        .iter()
        .map(|t| &t.result)
        .chain(phases.timed())
        .collect();
    let share = |f: &dyn Fn(&ColdReply) -> bool| {
        replies.iter().filter(|r| f(r)).count() as f64 / replies.len() as f64
    };

    // The oracle, now that nothing is timed any more.
    let mut tally = Tally::default();
    let oracles: Vec<check::Oracle> = shapes
        .iter()
        .map(|s| check::oracle(&s.query, s.dyadic))
        .collect();
    for ((s, variants), oracle) in shapes.iter().zip(&answers.variants).zip(&oracles) {
        for (dist, tier, bound, count) in variants {
            let verdict = check::check(oracle, dist, *tier, *bound)
                .map_err(|e| format!("{}: {e}", s.query.label));
            for _ in 0..*count {
                tally.record(verdict.clone());
            }
        }
    }
    for e in &answers.errors {
        tally.record(Err(e.clone()));
    }

    if opts.trace {
        trace::enable(true);
        layers::engine_metrics(&queries, &oracles, &opts.work_dir, &mut metrics)?;
        let hits: u64 = replies.iter().map(|r| r.hits).sum();
        let misses: u64 = replies.iter().map(|r| r.misses).sum();
        let lookups = (hits + misses).max(1) as f64;
        metrics.set("cache.hit_frac", hits as f64 / lookups, "frac");
        metrics.set("memo.miss_frac", misses as f64 / lookups, "frac");
        for (name, tier) in [
            ("lumped", Tier::Lumped),
            ("exact", Tier::Exact),
            ("hybrid", Tier::Hybrid),
            ("mc", Tier::MonteCarlo),
        ] {
            metrics.set(
                &format!("engine.{name}_frac"),
                share(&|r| r.tier == Some(tier)),
                "frac",
            );
        }
        // No server, strata or JSON work happens on this workload.
        for name in crate::SERVER_ONLY_LAYER_METRICS {
            metrics.set(name, 0.0, crate::unit_of(name));
        }
        eprintln!(
            "engine-cold does no server, JSON or strata work; reported as 0: {}",
            crate::SERVER_ONLY_LAYER_METRICS.join(", ")
        );
        layers::check_metrics(&tally, &mut metrics);
        crate::finish_trace(trace::drain(), &opts.out_dir, "engine-cold", opts.seed);
    }
    tally.report();
    for (name, (value, _)) in metrics.iter() {
        println!("metric {name} {value:?}");
    }
    let failed = replies.iter().filter(|r| !r.ok).count() as u64;
    println!(
        "summary {} {} {}",
        replies.len(),
        failed,
        tally.failures == 0 && failed == 0 && replay_ok
    );
    Ok(())
}
