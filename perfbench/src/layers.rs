//! Per-layer figures for the traced run: timed calls into the public
//! functions of `sched`, `core`, `prob`, `store` and the server's JSON
//! layer, each inside a span, on the workload's own queries.

use crate::check::{self, Oracle, Tally};
use crate::trace;
use crate::util::{median, ms, Metrics};
use dpioa_core::{canonical, Automaton, AutomatonExt, IValue, Value};
use dpioa_prob::Disc;
use dpioa_sched::{
    robust_observation_dist, try_execution_measure_flat, try_execution_measure_pooled,
    try_lumped_observation_dist_cached, Budget, EngineCache, EngineKind, ExpansionOutcome,
    Observation, ParallelPolicy, Provenance, RobustConfig, Scheduler, StrataConfig,
};
use dpioa_store::{
    automaton_fingerprint, decode_into_cache, decode_strata, encode_cache, encode_strata,
    read_file, write_file, FileKind,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One query of a workload, as the library sees it.
#[derive(Clone)]
pub struct Query {
    pub label: String,
    pub auto: Arc<dyn Automaton>,
    pub sched: Arc<dyn Scheduler>,
    pub obs: Observation,
    pub horizon: usize,
    pub max_expansions: Option<usize>,
}

/// Lanes of the exact and sampling tiers, as the server runs them.
pub const LANES: usize = 2;
/// Salvage / Monte-Carlo samples of the library workload.
pub const MC_SAMPLES: usize = crate::deck::SALVAGE_SAMPLES;
/// Depth stride of stratum deposits (the server default).
pub const STRATA_STRIDE: usize = 4;

impl Query {
    pub fn budget(&self) -> Budget {
        let b = Budget::unlimited().with_max_entries(1 << 16);
        match self.max_expansions {
            Some(n) => b.with_max_expansions(n),
            None => b,
        }
    }

    /// The cascade configuration: a fresh per-call cache when `cache`
    /// is `None`, no breaker, no deadline.
    pub fn config(&self, cache: Option<Arc<EngineCache>>, mc_seed: u64) -> RobustConfig {
        let strata = cache.as_ref().map(|_| StrataConfig {
            fingerprint: automaton_fingerprint(self.auto.as_ref()),
            stride: STRATA_STRIDE,
        });
        RobustConfig {
            budget: self.budget(),
            exact_threads: LANES,
            par_cutover: None,
            cache,
            mc_samples: MC_SAMPLES,
            mc_threads: LANES,
            mc_seed,
            confidence_delta: 1e-3,
            breaker: None,
            strata,
        }
    }

    /// One timed cascade call. The workloads' queries never fail, so a
    /// failure here is a broken benchmark, not a measurement.
    pub fn cascade(&self, config: &RobustConfig) -> (f64, Disc<Value>, Provenance) {
        let (took, res) = timed_ms("sched.cascade", || {
            robust_observation_dist(
                self.auto.as_ref(),
                self.sched.as_ref(),
                self.horizon,
                &self.obs,
                config,
            )
        });
        let (dist, prov) = res.unwrap_or_else(|e| panic!("{}: cascade failed: {e}", self.label));
        (took, dist, prov)
    }
}

/// Repetitions of each timed call.
const REPS: usize = 7;

fn timed_ms<T>(name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    timed_in(name, None, f)
}

/// [`timed_ms`] inside a parent span.
fn timed_in<T>(
    name: &'static str,
    parent: Option<&trace::Open>,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let span = trace::begin(name, parent, 0);
    let t = Instant::now();
    let out = f();
    let took = ms(t.elapsed());
    trace::end(span, None);
    (took, out)
}

/// Timings of a cache's persist and restore through the store.
pub struct StoreTimes {
    pub encode_ms: f64,
    pub write_ms: f64,
    pub bytes: usize,
}

const STORE_FP: u64 = 0xBE4C_0000_0000_0001;

/// Encode and write `cache` (transitions, choices and strata) to `dir`.
pub fn persist(cache: &EngineCache, dir: &Path) -> Result<StoreTimes, String> {
    let root = trace::begin("store.persist", None, 0);
    let (encode_ms, (snap, strata)) = timed_in("store.encode", root.as_ref(), || {
        (encode_cache(cache), encode_strata(&cache.export_strata()))
    });
    let (write_ms, res) = timed_in("store.write", root.as_ref(), || {
        write_file(
            &dir.join("cache.dpst"),
            FileKind::CacheSnapshot,
            STORE_FP,
            &snap,
        )?;
        write_file(
            &dir.join("strata.dpst"),
            FileKind::Strata,
            STORE_FP,
            &strata,
        )
    });
    trace::end(root, None);
    res.map_err(|e| format!("persist: {e}"))?;
    Ok(StoreTimes {
        encode_ms,
        write_ms,
        bytes: snap.len() + strata.len(),
    })
}

/// Read and decode what [`persist`] wrote into a fresh cache.
pub fn restore(dir: &Path) -> Result<(Arc<EngineCache>, f64), String> {
    let cache = EngineCache::shared();
    let (decode_ms, res) = timed_ms("store.decode", || -> Result<(), dpioa_store::StoreError> {
        let snap = read_file(&dir.join("cache.dpst"), FileKind::CacheSnapshot, STORE_FP)?;
        decode_into_cache(&snap, &cache)?;
        let strata = read_file(&dir.join("strata.dpst"), FileKind::Strata, STORE_FP)?;
        for (fp, scope, obs, depth, ckpt) in decode_strata(&strata)? {
            cache.import_stratum(fp, &scope, &obs, depth, ckpt);
        }
        Ok(())
    });
    res.map_err(|e| format!("restore: {e}"))?;
    Ok((cache, decode_ms))
}

/// Every per-layer engine, core, prob and store figure on `queries`.
/// Returns each query's warm-cascade median (ms).
pub fn engine_metrics(
    queries: &[Query],
    oracles: &[Oracle],
    work_dir: &Path,
    metrics: &mut Metrics,
) -> Result<Vec<f64>, String> {
    // Warm cascade: one shared cache with strata across every automaton
    // of the workload, as the server keeps one across its catalog. Its
    // fill is checked: a wrong answer here is a cache shared unsoundly
    // across automata, counted and reported, not a failed run.
    let warm = EngineCache::shared();
    let mut shared_errors = 0;
    for (q, oracle) in queries.iter().zip(oracles) {
        let (_, dist, prov) = q.cascade(&q.config(Some(warm.clone()), 1));
        let tier = crate::check::tier_of(prov.engine);
        if let Err(e) = check::check(oracle, &check::render(&dist), tier, prov.error_bound) {
            shared_errors += 1;
            eprintln!("shared cache answered {} wrongly: {e}", q.label);
        }
    }
    metrics.set(
        "check.shared_cache_errors",
        f64::from(shared_errors),
        "count",
    );
    let mut warm_ms = Vec::new();
    let mut warm_all = Vec::new();
    for q in queries {
        let cfg = q.config(Some(warm.clone()), 1);
        let times: Vec<f64> = (0..REPS).map(|_| q.cascade(&cfg).0).collect();
        warm_ms.push(median(&times));
        warm_all.extend(times);
    }
    metrics.set("sched.cascade_warm_ms.p50", median(&warm_all), "ms");

    // Cold cascade and the direct tier call on the same query.
    let (mut by_tier, mut overhead) = ([Vec::new(), Vec::new(), Vec::new()], Vec::new());
    let (mut lumped_ms, mut exact_ms, mut flat_ms, mut observe_ms, mut salvage_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut entries, mut ns_per_entry) = (Vec::new(), Vec::new());
    let (mut steals, mut splits, mut lane_jobs, mut pooled_frac) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in queries {
        let cfg = q.config(None, 1);
        let mut cascade = Vec::new();
        let mut tier = EngineKind::Exact;
        for _ in 0..REPS {
            let (t, _, prov) = q.cascade(&cfg);
            cascade.push(t);
            tier = prov.engine;
            if let Some(pool) = &prov.pool {
                steals.push(pool.steals as f64);
                splits.push(pool.splits as f64);
                lane_jobs.push(pool.lane_jobs.iter().sum::<u64>() as f64);
            }
            if let Some(d) = prov.pooled_depths {
                pooled_frac.push(d as f64 / q.horizon.max(1) as f64);
            }
        }
        let cascade = median(&cascade);
        let budget = q.budget();
        let (a, s) = (q.auto.as_ref(), q.sched.as_ref());
        let policy = ParallelPolicy::auto(LANES);
        match tier {
            EngineKind::Lumped => {
                by_tier[0].push(cascade);
                let direct: Vec<f64> = (0..REPS)
                    .map(|_| {
                        let cache = EngineCache::new();
                        timed_ms("sched.lumped", || {
                            try_lumped_observation_dist_cached(
                                a, s, q.horizon, &q.obs, &budget, &cache,
                            )
                        })
                        .0
                    })
                    .collect();
                lumped_ms.push(median(&direct));
                overhead.push(cascade - median(&direct));
            }
            EngineKind::Exact => {
                by_tier[1].push(cascade);
                let mut direct = Vec::new();
                for _ in 0..REPS {
                    let cache = EngineCache::new();
                    let (t, m) = timed_ms("sched.exact_pooled", || {
                        try_execution_measure_pooled(a, s, q.horizon, &budget, policy, &cache)
                    });
                    let (m, _) = m.map_err(|e| format!("{}: {e}", q.label))?;
                    direct.push(t);
                    entries.push(m.len() as f64);
                    ns_per_entry.push(t * 1e6 / m.len().max(1) as f64);
                    let (t, d) = timed_ms("prob.observe", || m.observe(|e| q.obs.apply(a, e)));
                    std::hint::black_box(d);
                    observe_ms.push(t);
                    let cache = EngineCache::new();
                    let (t, f) = timed_ms("sched.exact_flat", || {
                        try_execution_measure_flat(a, s, q.horizon, &budget, policy, &cache)
                    });
                    if let Ok((ExpansionOutcome::Complete(m), _)) = f {
                        std::hint::black_box(m);
                        flat_ms.push(t);
                    }
                }
                exact_ms.push(median(&direct));
                overhead.push(cascade - median(&direct));
            }
            EngineKind::Hybrid | EngineKind::MonteCarlo => {
                by_tier[2].push(cascade);
                // Salvage share: the hybrid answer minus the tripped
                // exact attempt that precedes it.
                let tripped: Vec<f64> = (0..REPS)
                    .map(|_| {
                        let cache = EngineCache::new();
                        timed_ms("sched.exact_tripped", || {
                            try_execution_measure_pooled(a, s, q.horizon, &budget, policy, &cache)
                        })
                        .0
                    })
                    .collect();
                salvage_ms.push(cascade - median(&tripped));
            }
        }
    }
    for (name, v) in ["lumped", "exact", "hybrid"].iter().zip(&by_tier) {
        metrics.set(&format!("sched.cascade_ms.{name}"), median(v), "ms");
    }
    metrics.set("sched.cascade_overhead_ms", median(&overhead), "ms");
    metrics.set("lumped.expand_ms.p50", median(&lumped_ms), "ms");
    metrics.set("exact.expand_ms.p50", median(&exact_ms), "ms");
    metrics.set("exact.flat_expand_ms.p50", median(&flat_ms), "ms");
    metrics.set("exact.entries", median(&entries), "count");
    metrics.set("exact.expand_ns_per_entry", median(&ns_per_entry), "ns");
    metrics.set("prob.observe_ms.p50", median(&observe_ms), "ms");
    metrics.set("sample.salvage_ms.p50", median(&salvage_ms), "ms");
    metrics.set("pool.steals", mean(&steals), "count");
    metrics.set("pool.splits", mean(&splits), "count");
    metrics.set("pool.lane_jobs", mean(&lane_jobs), "count");
    metrics.set("pool.pooled_depth_frac", mean(&pooled_frac), "frac");

    memo_metrics(queries, metrics);

    // Store: the warm cache of this workload, persisted and restored.
    let dir = work_dir.join("layer-store");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (mut enc, mut wr, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let st = persist(&warm, &dir)?;
        enc.push(st.encode_ms);
        wr.push(st.write_ms);
        bytes = st.bytes;
        dec.push(restore(&dir)?.1);
    }
    metrics.set("store.encode_ms", median(&enc), "ms");
    metrics.set("store.write_ms", median(&wr), "ms");
    metrics.set("store.bytes", bytes as f64, "bytes");
    metrics.set("store.decode_ms", median(&dec), "ms");
    Ok(warm_ms)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Memo probes (`EngineCache::successors`) on a fresh cache (misses)
/// and again (hits), and `canonical` interning, over every state and
/// enabled action the queries' automata reach.
fn memo_metrics(queries: &[Query], metrics: &mut Metrics) {
    let mut keys: Vec<(usize, Value, dpioa_core::Action)> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let auto = q.auto.as_ref();
        let mut seen: Vec<Value> = vec![auto.start_state()];
        let mut next = 0;
        while next < seen.len() && seen.len() < 4096 {
            let state = seen[next].clone();
            next += 1;
            for a in auto.locally_controlled(&state) {
                keys.push((qi, state.clone(), a));
                if let Some(eta) = auto.transition(&state, a) {
                    for (q2, _) in eta.iter() {
                        if !seen.contains(q2) {
                            seen.push(q2.clone());
                        }
                    }
                }
            }
        }
    }
    let ids: Vec<IValue> = keys.iter().map(|(_, v, _)| IValue::of(v)).collect();
    let (mut miss_ns, mut hit_ns, mut intern_ns) = (Vec::new(), Vec::new(), Vec::new());
    let n = keys.len().max(1) as f64;
    for _ in 0..REPS {
        let cache = EngineCache::new();
        let probe = || {
            for ((qi, v, a), id) in keys.iter().zip(&ids) {
                std::hint::black_box(cache.successors(queries[*qi].auto.as_ref(), v, *id, *a));
            }
        };
        miss_ns.push(timed_ms("memo.probe_miss", probe).0 * 1e6 / n);
        hit_ns.push(timed_ms("memo.probe_hit", probe).0 * 1e6 / n);
        intern_ns.push(
            timed_ms("core.intern", || {
                for (_, v, _) in &keys {
                    std::hint::black_box(canonical(v));
                }
            })
            .0 * 1e6
                / n,
        );
    }
    metrics.set("memo.probe_ns.miss", median(&miss_ns), "ns");
    metrics.set("memo.probe_ns.hit", median(&hit_ns), "ns");
    metrics.set("core.intern_ns", median(&intern_ns), "ns");
}

/// The server's JSON layer on the deck's request bodies and on served
/// response bodies, microseconds per parse.
pub fn json_metrics(requests: &[String], responses: &[Vec<u8>], metrics: &mut Metrics) {
    let per_parse = |docs: &[&str]| {
        let runs: Vec<f64> = (0..REPS)
            .map(|_| {
                timed_ms("json.parse", || {
                    for _ in 0..20 {
                        for d in docs {
                            std::hint::black_box(dpioa_server::json::Json::parse(d).ok());
                        }
                    }
                })
                .0 * 1e3
                    / (20 * docs.len().max(1)) as f64
            })
            .collect();
        median(&runs)
    };
    let req: Vec<&str> = requests.iter().map(String::as_str).collect();
    let resp: Vec<&str> = responses
        .iter()
        .filter_map(|b| std::str::from_utf8(b).ok())
        .collect();
    metrics.set("json.parse_us.request", per_parse(&req), "us");
    metrics.set("json.parse_us.response", per_parse(&resp), "us");
}

/// The checker's own counts.
pub fn check_metrics(tally: &Tally, metrics: &mut Metrics) {
    metrics.set("check.answers", tally.checked as f64, "count");
    metrics.set("check.rounded_answers", tally.rounded as f64, "count");
    metrics.set(
        "check.rounded_bits_differ",
        tally.rounded_bits_differ as f64,
        "count",
    );
    let within = if tally.sampled == 0 {
        0.0
    } else {
        tally.sampled_within_1x as f64 / tally.sampled as f64
    };
    metrics.set("check.mc_within_1x_frac", within, "frac");
}
