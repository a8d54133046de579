//! The load generator: open-loop fixed-rate phases, a closed loop, and
//! the fixed geometric rate ladder.
//!
//! Open-loop requests are due on a fixed schedule regardless of how
//! the system keeps up; each is timed from when it was due, so a stall
//! charges its wait to every request queued behind it. At most
//! [`MAX_LANES`] lanes (threads, each owning at most one connection)
//! ever run, the calling thread being one of them.

use crate::check::Rendered;
use crate::util::{
    block_median, median, ms_between, quantile, sleep_until, window_rate, window_tail, Metrics,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The generator's thread and connection limit.
pub const MAX_LANES: usize = 2;

/// A workload's fixed rates, requests per second (the two latency
/// phases and the floor of the rate ladder), and the units its figures
/// are taken over. A block holds the same mix of queries on every seed
/// (a zipf block, a deck pass); a window is a whole number of blocks:
/// the requests of one ladder rung and the unit every phase runs a
/// whole number of. A tail window divides a window: the unit the
/// phases' tails are taken over.
pub struct Rates {
    pub light: f64,
    pub busy: f64,
    pub ladder_from: f64,
    pub block: usize,
    pub window: usize,
    pub tail_window: usize,
    /// Rounds the timed phases are split into, so that each figure
    /// samples the whole run rather than one stretch of it.
    pub rounds: usize,
    /// A ladder rung fails when its tail exceeds this.
    pub tail_limit_ms: f64,
}

/// Rate ladder: geometric 5% steps up from the floor.
pub const LADDER_STEP: f64 = 1.05;
/// A rung fails when the median send lag of its last third exceeds
/// that of its first third by more than this (the backlog grows): an
/// overload keeps growing it, a passing stall of the host does not.
pub const BACKLOG_GROWTH_MS: f64 = 10.0;
const LADDER_MAX_RUNGS: usize = 40;

/// One timed request.
pub struct Timed<R> {
    /// Milliseconds from due to completion.
    pub latency_ms: f64,
    /// Milliseconds from due to send (queueing behind busy lanes).
    pub lag_ms: f64,
    /// How late an idle lane woke for its due time (instrument health).
    pub lateness_ms: Option<f64>,
    pub index: usize,
    pub result: R,
}

/// What a lane reports about one request.
pub trait Outcome {
    fn ok(&self) -> bool;
    /// Answered by the `lumped` or `exact` tier.
    fn exact(&self) -> bool;
}

/// Run `requests` requests open-loop at `rate` over `lanes`. Request
/// `i` is due at `start + i / rate`; lanes take the next index when
/// free. A lane returns when its request completed (its own checking
/// afterwards is not charged to the request) and what it observed.
pub fn open_loop<R, L>(lanes: &mut [L], rate: f64, requests: usize) -> Vec<Timed<R>>
where
    R: Send,
    L: FnMut(usize) -> (Instant, R) + Send,
{
    assert!(
        (1..=MAX_LANES).contains(&lanes.len()),
        "the generator runs one or two lanes"
    );
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let period = 1.0 / rate;
    let run = |lane: &mut L| {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= requests {
                return out;
            }
            let due = start + Duration::from_secs_f64(i as f64 * period);
            let lateness = (Instant::now() < due).then(|| sleep_until(due));
            let sent = Instant::now();
            let (done, result) = lane(i);
            out.push(Timed {
                latency_ms: ms_between(due, done),
                lag_ms: ms_between(due, sent),
                lateness_ms: lateness.map(crate::util::ms),
                index: i,
                result,
            });
        }
    };
    let (first, rest) = lanes.split_first_mut().expect("one lane at least");
    let mut all = std::thread::scope(|scope| {
        let helper = rest.first_mut().map(|lane| scope.spawn(|| run(lane)));
        let mut mine = run(first);
        if let Some(h) = helper {
            mine.extend(h.join().expect("generator lane panicked"));
        }
        mine
    });
    all.sort_by_key(|t| t.index);
    all
}

/// Run one lane closed-loop: the next request goes out when the
/// previous one returns, until `keep_going(count, elapsed)` says stop.
/// Returns the requests and the time they were in flight (the lane's
/// own bookkeeping between requests excluded).
pub fn closed_loop<R>(
    mut lane: impl FnMut(usize) -> (Instant, R),
    mut keep_going: impl FnMut(usize, Duration) -> bool,
) -> (Vec<Timed<R>>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut busy_ms = 0.0;
    while keep_going(out.len(), start.elapsed()) {
        let sent = Instant::now();
        let (done, result) = lane(out.len());
        busy_ms += ms_between(sent, done);
        out.push(Timed {
            latency_ms: ms_between(sent, done),
            lag_ms: 0.0,
            lateness_ms: None,
            index: out.len(),
            result,
        });
    }
    (out, busy_ms)
}

/// Latency summary of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    pub requests: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub lateness_p99_ms: f64,
    pub backlog_grew: bool,
}

impl PhaseStats {
    /// Figures of one phase: the lower quartile of its per-block
    /// medians and the lowest of its tails per `tail_window` requests.
    pub fn of<R: Outcome>(timed: &[Timed<R>], rates: &Rates, tail_window: usize) -> PhaseStats {
        let lat: Vec<f64> = timed.iter().map(|t| t.latency_ms).collect();
        let late: Vec<f64> = timed.iter().filter_map(|t| t.lateness_ms).collect();
        let third = timed.len() / 3;
        let lag = |s: &[Timed<R>]| median(&s.iter().map(|t| t.lag_ms).collect::<Vec<_>>());
        let backlog_grew = third > 0
            && lag(&timed[timed.len() - third..]) > lag(&timed[..third]) + BACKLOG_GROWTH_MS;
        let t = window_tail(&lat, tail_window);
        PhaseStats {
            requests: timed.len(),
            failed: timed.iter().filter(|t| !t.result.ok()).count(),
            p50_ms: block_median(&lat, rates.block),
            tail_ms: t.map_or(f64::NAN, |t| t.value),
            tail_pct: t.map_or(f64::NAN, |t| t.percentile),
            lateness_p99_ms: quantile(&late, 0.99),
            backlog_grew,
        }
    }

    /// The ladder's pass rule.
    pub fn sustains(&self, tail_limit_ms: f64) -> bool {
        self.failed == 0 && self.tail_ms <= tail_limit_ms && !self.backlog_grew
    }
}

/// Generator lateness (p99) above which a phase is flagged invalid: the
/// instrument, not the system, fell behind.
pub const LATENESS_INVALID_MS: f64 = 2.0;

/// Climbs of the ladder per run, spread evenly over the rounds; each
/// starts a rung above the best rung held so far.
const CLIMBS: usize = 3;

/// Climb the ladder from rung `first`, rung `k` being the rate
/// `rates.ladder_from * LADDER_STEP^k`; `run_rung(rate, requests)` runs
/// one rung of `rates.window` requests. A rung holds when one of at
/// most three attempts passes, so a short stall of the machine cannot
/// end the climb; the climb stops at the first rung that fails three
/// times in a row. Returns the highest rung held (`first - 1` when even
/// the first fails) with every rung run.
pub fn climb(
    rates: &Rates,
    first: usize,
    mut run_rung: impl FnMut(f64, usize) -> PhaseStats,
) -> (usize, Vec<(f64, PhaseStats)>) {
    let mut best = first - 1;
    let mut rungs = Vec::new();
    for k in first..=LADDER_MAX_RUNGS {
        let rate = rates.ladder_from * LADDER_STEP.powi(k as i32);
        let mut held = false;
        for _ in 0..3 {
            let stats = run_rung(rate, rates.window);
            held = stats.sustains(rates.tail_limit_ms);
            rungs.push((rate, stats));
            if held {
                break;
            }
        }
        if !held {
            break;
        }
        best = k;
    }
    (best, rungs)
}

/// Share of `--seconds` the closed loop may take, over all rounds (at
/// least one whole window per round).
const CLOSED_SHARE: f64 = 0.2;
/// Share of `--seconds` each fixed-rate phase takes, over all rounds
/// (rounded up to whole windows per round).
const OPEN_SHARE: f64 = 0.2;

/// Everything the timed phases measured.
pub struct Phases<R> {
    closed: Vec<Timed<R>>,
    closed_busy_ms: f64,
    /// Traced runs only: the untraced closed loops and their time in
    /// flight, to price the tracing.
    pub untraced: Vec<Timed<R>>,
    untraced_busy_ms: f64,
    pub light: Vec<Timed<R>>,
    pub busy: Vec<Timed<R>>,
    /// The rungs of each climb.
    climbs: Vec<Vec<(f64, PhaseStats)>>,
    ladder: Vec<R>,
    max_rate: f64,
}

/// Run the timed phases: `rates.rounds` rounds of a one-lane closed loop
/// and the `light` and `busy` phases on `lanes` lanes, [`CLIMBS`] of
/// them followed by a climb of the rate ladder, `after_round` closing
/// each round. Rounds let each figure sample the whole run rather than
/// one stretch of it; the highest rung any climb held is the run's
/// sustained rate. `lane(first)` makes a lane whose request `i` is
/// request `first + i` of the run; every phase starts on a window
/// boundary and runs whole windows. Traced runs add an untraced closed
/// loop to each round, to price the tracing. Open-loop lanes sleep
/// between due times, so each open-loop phase and rung runs while a
/// guard from `awake` lives, which keeps every CPU from idling (see
/// [`crate::awake`]).
pub fn run_phases<R, L, G>(
    rates: &Rates,
    seconds: f64,
    lanes: usize,
    traced: bool,
    lane: impl Fn(usize) -> L,
    awake: impl Fn() -> G,
    mut after_round: impl FnMut() -> Result<(), String>,
) -> Result<Phases<R>, String>
where
    R: Outcome + Send,
    L: FnMut(usize) -> (Instant, R) + Send,
{
    // The next request index; every phase starts on a window boundary.
    let mut next = 0usize;
    let rounds = rates.rounds as f64;
    let closed_limit = Duration::from_secs_f64(CLOSED_SHARE * seconds / rounds);
    let closed = |traced: bool, next: &mut usize| {
        crate::trace::enable(traced);
        let first = next.next_multiple_of(rates.window);
        // Whole windows; another starts only if it should end in time.
        let (timed, busy_ms) = closed_loop(lane(first), |n, el| {
            n % rates.window != 0
                || n == 0
                || el.mul_f64((n + rates.window) as f64 / n as f64) <= closed_limit
        });
        *next = first + timed.len();
        (timed, busy_ms)
    };
    let open = |rate: f64, requests: usize, next: &mut usize| {
        let first = next.next_multiple_of(rates.window);
        *next = first + requests;
        let mut ls: Vec<L> = (0..lanes).map(|_| lane(first)).collect();
        let _awake = awake();
        open_loop(&mut ls, rate, requests)
    };
    let per_round = |rate: f64| {
        ((rate * OPEN_SHARE * seconds / rounds) as usize).next_multiple_of(rates.window)
    };
    let mut p = Phases {
        closed: Vec::new(),
        closed_busy_ms: 0.0,
        untraced: Vec::new(),
        untraced_busy_ms: 0.0,
        light: Vec::new(),
        busy: Vec::new(),
        climbs: Vec::new(),
        ladder: Vec::new(),
        max_rate: 0.0,
    };
    // The best rung held so far; rung 0 is the ladder's floor.
    let mut best = 0usize;
    for round in 1..=rates.rounds {
        if traced {
            let (timed, busy_ms) = closed(false, &mut next);
            p.untraced.extend(timed);
            p.untraced_busy_ms += busy_ms;
        }
        let (timed, busy_ms) = closed(traced, &mut next);
        p.closed.extend(timed);
        p.closed_busy_ms += busy_ms;
        p.light
            .extend(open(rates.light, per_round(rates.light), &mut next));
        p.busy
            .extend(open(rates.busy, per_round(rates.busy), &mut next));
        if round % (rates.rounds / CLIMBS) == 0 {
            let ladder_results = &mut p.ladder;
            let (held, rungs) = climb(rates, best + 1, |rate, n| {
                let timed = open(rate, n, &mut next);
                let stats = PhaseStats::of(&timed, rates, rates.window);
                ladder_results.extend(timed.into_iter().map(|t| t.result));
                stats
            });
            best = best.max(held);
            p.climbs.push(rungs);
        }
        after_round()?;
    }
    p.max_rate = rates.ladder_from * LADDER_STEP.powi(best as i32);
    Ok(p)
}

impl<R: Outcome> Phases<R> {
    /// The timed requests' results: closed loop, fixed rates, ladder.
    pub fn timed(&self) -> impl Iterator<Item = &R> {
        self.closed
            .iter()
            .chain(&self.light)
            .chain(&self.busy)
            .map(|t| &t.result)
            .chain(&self.ladder)
    }

    /// Set the phases' end-to-end metrics (and, traced,
    /// `trace.overhead_frac`) and report the phases on stderr.
    pub fn report(&self, rates: &Rates, metrics: &mut Metrics) -> Result<(), String> {
        let lat: Vec<f64> = self.closed.iter().map(|t| t.latency_ms).collect();
        let qt = window_tail(&lat, rates.tail_window).ok_or("closed loop too short for a tail")?;
        let qps = window_rate(&lat, rates.window);
        metrics.set("query_p50_ms", block_median(&lat, rates.block), "ms");
        metrics.set("query_tail_ms", qt.value, "ms");
        metrics.set("throughput_qps", qps, "1/s");
        eprintln!(
            "closed loop: {} requests, {qps:.1} qps, tail p{:.2} {:.3} ms",
            qt.samples, qt.percentile, qt.value
        );
        if !self.untraced.is_empty() {
            let untraced_qps = self.untraced.len() as f64 / (self.untraced_busy_ms / 1e3);
            let traced_qps = lat.len() as f64 / (self.closed_busy_ms / 1e3);
            metrics.set(
                "trace.overhead_frac",
                untraced_qps / traced_qps - 1.0,
                "frac",
            );
        }
        for (name, rate, timed) in [
            ("light", rates.light, &self.light),
            ("busy", rates.busy, &self.busy),
        ] {
            let stats = PhaseStats::of(timed, rates, rates.tail_window);
            report_phase(name, rate, &stats, metrics);
        }
        for (c, rungs) in self.climbs.iter().enumerate() {
            eprintln!("ladder climb {}:", c + 1);
            for (rate, st) in rungs {
                eprintln!(
                    "  rung {rate:7.1} qps: tail p{:.2} {:.3} ms, backlog grew {}, failed {}",
                    st.tail_pct, st.tail_ms, st.backlog_grew, st.failed
                );
            }
        }
        eprintln!("max sustained rate: {:.1} qps", self.max_rate);
        metrics.set("max_rate_qps", self.max_rate, "1/s");
        let n = self.timed().count() as f64;
        let share = |f: fn(&R) -> bool| self.timed().filter(|r| f(r)).count() as f64 / n;
        metrics.set("ok_frac", share(R::ok), "frac");
        metrics.set("exact_frac", share(R::exact), "frac");
        Ok(())
    }
}

fn report_phase(name: &str, rate: f64, st: &PhaseStats, metrics: &mut Metrics) {
    metrics.set(&format!("lat_p50_ms.{name}"), st.p50_ms, "ms");
    metrics.set(&format!("lat_tail_ms.{name}"), st.tail_ms, "ms");
    metrics.set(
        &format!("gen.lateness_ms.p99.{name}"),
        st.lateness_p99_ms,
        "ms",
    );
    let invalid = st.lateness_p99_ms > LATENESS_INVALID_MS;
    eprintln!(
        "phase {name}: {rate} qps, {} requests, {} failed, p50 {:.3} ms, tail p{:.2} {:.3} ms, generator lateness p99 {:.3} ms{}",
        st.requests,
        st.failed,
        st.p50_ms,
        st.tail_pct,
        st.tail_ms,
        st.lateness_p99_ms,
        if invalid { " -- INVALID: the generator fell behind" } else { "" }
    );
    metrics.set(
        &format!("gen.invalid.{name}"),
        f64::from(u8::from(invalid)),
        "count",
    );
}

/// Two rendered answers with the same support and the same `p_bits`.
pub fn same_bits(a: &Rendered, b: &Rendered) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}
