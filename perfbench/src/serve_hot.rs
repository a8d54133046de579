//! `serve-hot`: the deployed service under repeat-heavy traffic.
//!
//! Set-up starts the release `dpioa-serve` (default config plus a store
//! directory) and runs one warm-up pass over the deck, nine times over
//! fresh store directories; the last server takes the timed traffic:
//! rounds of a one-connection closed loop, the `light` and `busy`
//! fixed-rate phases, a climb of the rate ladder and ten persists. The
//! store pass shuts the server down gracefully and restarts it on the
//! same directory thirty times, replaying the deck after each restart;
//! replayed answers must be bit-identical to the answers before.

use crate::awake::KeepAwake;
use crate::check::{self, Oracle, Pass, Rendered, Tally, Tier};
use crate::deck::{self, SERVE_DECK};
use crate::layers;
use crate::load::{self, same_bits, Outcome, Rates};
use crate::trace;
use crate::util::{self, median, ms_between, peak_rss_mb, quantile, Metrics, Rng, Who};
use crate::wire::{self, Conn, J};
use crate::{Opts, Summary};
use dpioa_server::catalog::Catalog;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The fixed rates: about a quarter and half of the closed-loop
/// capacity of one connection; the ladder starts at about that
/// capacity, as two connections carry twice it. A window is four zipf
/// blocks, so a rung is long enough that a rate a few percent over
/// capacity grows a backlog the ladder sees. A phase's tail is taken
/// per two blocks: ten requests beyond it and six h14 cones in each,
/// so the p95 sits among the cheap templates rather than on the h14
/// cones' lowest values, where every request the host delayed past
/// them moved it along the cones' spread. Six rounds spread each
/// phase's six windows over the run.
pub const RATES: Rates = Rates {
    light: 100.0,
    busy: 200.0,
    ladder_from: 400.0,
    block: deck::ZIPF_BLOCK,
    window: 4 * deck::ZIPF_BLOCK,
    tail_window: 2 * deck::ZIPF_BLOCK,
    rounds: 6,
    tail_limit_ms: 25.0,
};

/// `POST /persist`s closing each round, and restarts in the store
/// pass. Persist and restart times are medians over the repetitions:
/// both are mostly encoding or decoding megabytes, so they follow the
/// host's speed, which drifts over seconds to minutes on a shared
/// host, and the median of many moved less from run to run than the
/// fastest.
const PERSISTS_PER_ROUND: usize = 10;
const RESTARTS: usize = 30;

/// A running `dpioa-serve` child.
struct Server {
    child: Child,
    addr: String,
    // Held open so the server's final status line never meets a closed
    // pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path, store: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store-dir")
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {line:?}"));
        };
        Ok(Server {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    fn wait_ready(&self) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(60);
        while Instant::now() < give_up {
            if let Ok(mut c) = Conn::open(&self.addr) {
                if matches!(c.call("GET", "/readyz", b""), Ok(r) if r.status == 200) {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server never became ready".into())
    }

    /// Graceful shutdown (the server writes its parting snapshot), then
    /// wait for the process to end.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr).and_then(|mut c| c.call("POST", "/shutdown", b""));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        match asked {
            Ok(r) if r.status == 200 && status.success() => Ok(()),
            _ => Err(format!("server did not shut down cleanly ({status})")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one request observed.
#[derive(Clone, Default)]
pub struct Reply {
    ok: bool,
    template: usize,
    tier: Option<Tier>,
    rtt_ms: f64,
    service_ms: f64,
    stratum: bool,
    hits: u64,
    misses: u64,
}

impl Outcome for Reply {
    fn ok(&self) -> bool {
        self.ok
    }

    fn exact(&self) -> bool {
        self.tier.is_some_and(Tier::is_exact)
    }
}

struct Decoded {
    dist: Rendered,
    tier: Tier,
    error_bound: f64,
    service_ms: f64,
    stratum: bool,
    hits: u64,
    misses: u64,
}

fn decode(body: &[u8]) -> Result<Decoded, String> {
    let doc = wire::parse(body)?;
    let mut dist: Rendered = Vec::new();
    let Some(J::Arr(items)) = doc.get("dist") else {
        return Err("response without dist".into());
    };
    for item in items {
        let value = item
            .get("value")
            .and_then(J::str)
            .ok_or("outcome without value")?;
        let bits = item
            .get("p_bits")
            .and_then(J::str)
            .and_then(|b| u64::from_str_radix(b, 16).ok())
            .ok_or("outcome without p_bits")?;
        dist.push((value.to_string(), f64::from_bits(bits)));
    }
    dist.sort_by(|a, b| a.0.cmp(&b.0));
    let prov = doc.get("provenance").ok_or("response without provenance")?;
    let tier = prov
        .get("engine")
        .and_then(J::str)
        .and_then(Tier::parse)
        .ok_or("response without engine")?;
    let count = |k: &str| prov.get(k).and_then(J::num).unwrap_or(0.0) as u64;
    Ok(Decoded {
        dist,
        tier,
        error_bound: prov.get("error_bound").and_then(J::num).unwrap_or(0.0),
        service_ms: doc
            .get("service_ns")
            .and_then(J::num)
            .ok_or("no service_ns")?
            / 1e6,
        stratum: !matches!(prov.get("stratum_depth"), None | Some(J::Null)),
        hits: count("cache_hits"),
        misses: count("cache_misses"),
    })
}

/// Inputs and checker state shared by every lane of the run.
struct Shared<'a> {
    draws: &'a [usize],
    bodies: &'a [String],
    oracles: &'a [Oracle],
    /// Per template: answers already checked against the oracle.
    verified: Mutex<Vec<Vec<(Rendered, Pass)>>>,
    tally: Mutex<Tally>,
}

impl Shared<'_> {
    fn check(&self, template: usize, dist: &Rendered, tier: Tier, bound: f64) {
        let known = if tier.is_exact() {
            self.verified.lock().expect("verified lock")[template]
                .iter()
                .find(|(r, _)| same_bits(r, dist))
                .map(|(_, p)| *p)
        } else {
            None
        };
        let verdict = match known {
            Some(pass) => Ok(pass),
            None => {
                let v = check::check(&self.oracles[template], dist, tier, bound);
                if let (Ok(pass), true) = (&v, tier.is_exact()) {
                    self.verified.lock().expect("verified lock")[template]
                        .push((dist.clone(), *pass));
                }
                v.map_err(|e| format!("{}: {e}", SERVE_DECK[template].label))
            }
        };
        self.tally.lock().expect("tally lock").record(verdict);
    }
}

/// One generator lane: one connection to one server.
struct Lane<'a> {
    shared: &'a Shared<'a>,
    addr: &'a str,
    conn: Option<Conn>,
    offset: usize,
}

impl<'a> Lane<'a> {
    fn new(shared: &'a Shared<'a>, addr: &'a str, offset: usize) -> Lane<'a> {
        Lane {
            shared,
            addr,
            conn: None,
            offset,
        }
    }

    fn request(&mut self, i: usize) -> (Instant, Reply) {
        let template = self.shared.draws[(self.offset + i) % self.shared.draws.len()];
        let sent = self.send(template, (self.offset + i) as u64);
        (sent.done, sent.reply)
    }

    /// Send one template.
    fn send(&mut self, template: usize, request: u64) -> Sent {
        let mut reply = Reply {
            template,
            ..Reply::default()
        };
        let root = trace::begin("client.request", None, request);
        let sent = Instant::now();
        let span = trace::begin("server.call", root.as_ref(), request);
        let resp = match self.conn.take().map_or_else(|| Conn::open(self.addr), Ok) {
            Ok(mut c) => {
                let r = c.call("POST", "/v1/query", self.shared.bodies[template].as_bytes());
                if r.is_ok() {
                    self.conn = Some(c);
                }
                r
            }
            Err(e) => Err(e),
        };
        let done = Instant::now();
        trace::end(span, Some(done));
        reply.rtt_ms = ms_between(sent, done);
        let resp = match resp {
            Ok(r) if r.status == 200 => r,
            _ => {
                trace::end(root, None);
                return Sent {
                    done,
                    reply,
                    answer: None,
                    body: Vec::new(),
                };
            }
        };
        let span = trace::begin("client.decode_check", root.as_ref(), request);
        let answer = match decode(&resp.body) {
            Ok(d) => {
                reply.ok = true;
                reply.tier = Some(d.tier);
                reply.service_ms = d.service_ms;
                reply.stratum = d.stratum;
                reply.hits = d.hits;
                reply.misses = d.misses;
                self.shared.check(template, &d.dist, d.tier, d.error_bound);
                Some(d.dist)
            }
            Err(e) => {
                self.shared
                    .tally
                    .lock()
                    .expect("tally lock")
                    .record(Err(format!("undecodable response: {e}")));
                None
            }
        };
        trace::end(span, None);
        trace::end(root, None);
        Sent {
            done,
            reply,
            answer,
            body: resp.body,
        }
    }
}

/// One request as sent by [`Lane::send`].
struct Sent {
    done: Instant,
    reply: Reply,
    answer: Option<Rendered>,
    body: Vec<u8>,
}

/// `POST /persist`, timed in seconds.
fn persist(addr: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let r = Conn::open(addr)
        .and_then(|mut c| c.call("POST", "/persist", b""))
        .map_err(|e| format!("persist: {e}"))?;
    if r.status != 200 {
        return Err(format!("persist answered {}", r.status));
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Ok(r) = Conn::open(addr).and_then(|mut c| c.call("GET", "/metrics", b"")) {
        for line in String::from_utf8_lossy(&r.body).lines() {
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

fn delta(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, k: &str) -> f64 {
    b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0)
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One pass over the deck, one template at a time.
fn deck_pass(shared: &Shared<'_>, addr: &str) -> Vec<Sent> {
    let mut lane = Lane::new(shared, addr, 0);
    (0..SERVE_DECK.len()).map(|t| lane.send(t, 0)).collect()
}

pub fn run(opts: &Opts, metrics: &mut Metrics) -> Result<Summary, String> {
    let catalog = Catalog::standard();
    let oracles = deck::serve_oracles(&catalog);
    check::self_test(&oracles[0])?;
    let bodies: Vec<String> = SERVE_DECK.iter().map(|t| t.body()).collect();
    let draws = deck::zipf_draws(&mut Rng::new(opts.seed), 500);
    let bin = opts.serve_bin.as_ref().ok_or("--serve-bin is required")?;
    let shared = Shared {
        draws: &draws,
        bodies: &bodies,
        oracles: &oracles,
        verified: Mutex::new(vec![Vec::new(); SERVE_DECK.len()]),
        tally: Mutex::new(Tally::default()),
    };
    let mut every: Vec<Reply> = Vec::new();

    // Set-up, nine times over fresh store directories: spawn to
    // /readyz plus the warm-up pass.
    let mut setups = Vec::new();
    let mut kept = None;
    const SETUPS: usize = 9;
    for k in 0..SETUPS {
        let dir = fresh_dir(&opts.work_dir, &format!("store-{k}"))?;
        let t0 = Instant::now();
        let server = Server::spawn(bin, &dir)?;
        server.wait_ready()?;
        let pass = deck_pass(&shared, &server.addr);
        setups.push(t0.elapsed().as_secs_f64());
        let answers: Vec<Option<Rendered>> = pass.iter().map(|s| s.answer.clone()).collect();
        every.extend(pass.into_iter().map(|s| s.reply));
        if k + 1 < SETUPS {
            server.shutdown()?;
        } else {
            kept = Some((server, dir, answers));
        }
    }
    util::report_repeats("setup", &setups);
    metrics.set("setup_s", median(&setups), "s");
    let (server, store_dir, warm_answers) = kept.expect("the last set-up keeps its server");
    let addr = server.addr.clone();
    let before = scrape(&addr);

    // The timed phases; persists close each round.
    let mut persists = Vec::new();
    let phases = load::run_phases(
        &RATES,
        opts.seconds as f64,
        load::MAX_LANES,
        opts.trace,
        |first| {
            let mut lane = Lane::new(&shared, &addr, first);
            move |i| lane.request(i)
        },
        KeepAwake::start,
        || {
            for _ in 0..PERSISTS_PER_ROUND {
                persists.push(persist(&addr)?);
            }
            Ok(())
        },
    )?;
    phases.report(&RATES, metrics)?;
    util::report_repeats("persist", &persists);
    metrics.set("persist_s", median(&persists), "s");
    let after = scrape(&addr);

    // Store pass: graceful shutdown, then restarts on the same
    // directory, each replaying the deck.
    server.shutdown()?;
    metrics.set("peak_rss_mb", peak_rss_mb(Who::Children), "MiB");

    let mut restarts = Vec::new();
    let mut replay_ok = true;
    let mut response_bodies = Vec::new();
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let server = Server::spawn(bin, &store_dir)?;
        server.wait_ready()?;
        restarts.push(t0.elapsed().as_secs_f64());
        let pass = deck_pass(&shared, &server.addr);
        for (t, (a, sent)) in warm_answers.iter().zip(&pass).enumerate() {
            if !matches!((a, &sent.answer), (Some(a), Some(b)) if same_bits(a, b)) {
                replay_ok = false;
                eprintln!("replay of {} differs after restart", SERVE_DECK[t].label);
            }
        }
        response_bodies = pass.iter().map(|s| s.body.clone()).collect();
        every.extend(pass.into_iter().map(|s| s.reply));
        server.shutdown()?;
    }
    util::report_repeats("restart", &restarts);
    metrics.set("restart_s", median(&restarts), "s");

    let fixed_rate: Vec<&Reply> = phases
        .light
        .iter()
        .chain(&phases.busy)
        .map(|t| &t.result)
        .collect();
    report_templates(&fixed_rate);
    every.extend(phases.untraced.iter().map(|t| t.result.clone()));
    every.extend(phases.timed().cloned());

    let tally = shared.tally.into_inner().expect("tally lock");
    if opts.trace {
        let queries: Vec<layers::Query> = SERVE_DECK
            .iter()
            .map(|t| deck::resolve(&catalog, t))
            .collect();
        let warm = layers::engine_metrics(&queries, &oracles, &opts.work_dir, metrics)?;
        server_layer_metrics(&before, &after, &fixed_rate, &every, &warm, metrics);
        layers::json_metrics(&bodies, &response_bodies, metrics);
        layers::check_metrics(&tally, metrics);
    }
    tally.report();
    let failed = every.iter().filter(|r| !r.ok).count() as u64;
    Ok(Summary {
        attempted: every.len() as u64,
        failed,
        correct: tally.failures == 0 && failed == 0 && replay_ok,
    })
}

/// Per-template service time and stratum resumes of the fixed-rate
/// phases, on stderr.
fn report_templates(replies: &[&Reply]) {
    let mut by: Vec<Vec<&Reply>> = vec![Vec::new(); SERVE_DECK.len()];
    for r in replies.iter().filter(|r| r.ok) {
        by[r.template].push(r);
    }
    for (t, rs) in SERVE_DECK.iter().zip(&by) {
        let service: Vec<f64> = rs.iter().map(|r| r.service_ms).collect();
        let strata = rs.iter().filter(|r| r.stratum).count();
        eprintln!(
            "  {:<24} {:>5} requests, service p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms, {strata} from strata",
            t.label,
            rs.len(),
            median(&service),
            quantile(&service, 0.9),
            service.iter().copied().fold(0.0, f64::max)
        );
    }
}

fn server_layer_metrics(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    timed: &[&Reply],
    every: &[Reply],
    warm_ms: &[f64],
    metrics: &mut Metrics,
) {
    let ok: Vec<&&Reply> = timed.iter().filter(|r| r.ok).collect();
    let of = |f: &dyn Fn(&Reply) -> f64| median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>());
    metrics.set("client.rtt_ms.p50", of(&|r| r.rtt_ms), "ms");
    metrics.set("server.service_ms.p50", of(&|r| r.service_ms), "ms");
    metrics.set(
        "server.transport_ms.p50",
        of(&|r| r.rtt_ms - r.service_ms),
        "ms",
    );
    // Service time minus the in-process warm cascade of the same
    // template: the coalesce window and queueing inside the server.
    metrics.set(
        "server.coalesce_wait_ms.p50",
        of(&|r| r.service_ms - warm_ms[r.template]),
        "ms",
    );
    let d = |k: &str| delta(before, after, k);
    let requests = d("dpioa_requests_total").max(1.0);
    metrics.set(
        "server.coalesce_frac",
        d("dpioa_coalesce_hits_total") / requests,
        "frac",
    );
    metrics.set(
        "server.batch_fanout.mean",
        d("dpioa_batched_queries_total") / d("dpioa_batches_total").max(1.0),
        "count",
    );
    metrics.set("server.shed_frac", d("dpioa_shed_total") / requests, "frac");
    let tiers = [
        ("lumped", "lumped"),
        ("exact", "exact"),
        ("hybrid", "hybrid"),
        ("mc", "monte-carlo"),
    ];
    let answers: Vec<f64> = tiers
        .iter()
        .map(|(_, e)| d(&format!("dpioa_engine_answers_total{{engine=\"{e}\"}}")))
        .collect();
    let total = answers.iter().sum::<f64>().max(1.0);
    for ((name, _), n) in tiers.iter().zip(&answers) {
        metrics.set(&format!("engine.{name}_frac"), n / total, "frac");
    }
    let served: Vec<&Reply> = every.iter().filter(|r| r.ok).collect();
    let hits: u64 = served.iter().map(|r| r.hits).sum();
    let misses: u64 = served.iter().map(|r| r.misses).sum();
    let lookups = (hits + misses).max(1) as f64;
    metrics.set("cache.hit_frac", hits as f64 / lookups, "frac");
    metrics.set("memo.miss_frac", misses as f64 / lookups, "frac");
    let strata = served.iter().filter(|r| r.stratum).count();
    metrics.set(
        "strata.resume_frac",
        strata as f64 / served.len().max(1) as f64,
        "frac",
    );
}
