//! The answer checker: every answer is compared with the sequential
//! DFS oracle (`try_execution_measure_in`, then the observation).
//!
//! * `lumped` / `exact` answers on dyadic weights must match the oracle
//!   bit for bit, with the same support.
//! * `lumped` / `exact` answers on non-dyadic weights (1/3 choices) must
//!   have the same support and each outcome within [`ROUNDED_TOL`]; they
//!   are counted as rounded answers so the f64 rounding of "exact"
//!   answers stays visible instead of being waved through.
//! * `hybrid` / `monte-carlo` answers must have each outcome within
//!   twice their reported `error_bound` (at δ = 1e-3 a 1x bound would
//!   fail about one correct answer in a thousand; 2x fails one in about
//!   1e13), and no outcome outside the oracle's support.

use crate::layers::Query;
use dpioa_core::Value;
use dpioa_prob::Disc;
use dpioa_sched::{try_execution_measure_in, Budget};

/// Per-outcome tolerance for non-dyadic exact answers: about 100x the
/// 7.2e-15 lumped-vs-cone gap measured on `mixer-4x3`.
pub const ROUNDED_TOL: f64 = 1e-12;

/// An answer or oracle as rendered outcomes, sorted by rendering.
pub type Rendered = Vec<(String, f64)>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Lumped,
    Exact,
    Hybrid,
    MonteCarlo,
}

impl Tier {
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "lumped" => Some(Tier::Lumped),
            "exact" => Some(Tier::Exact),
            "hybrid" => Some(Tier::Hybrid),
            "monte-carlo" => Some(Tier::MonteCarlo),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Tier::Lumped => "lumped",
            Tier::Exact => "exact",
            Tier::Hybrid => "hybrid",
            Tier::MonteCarlo => "monte-carlo",
        }
    }

    pub fn is_exact(self) -> bool {
        matches!(self, Tier::Lumped | Tier::Exact)
    }
}

/// The tier that answered, from the cascade's provenance.
pub fn tier_of(kind: dpioa_sched::EngineKind) -> Tier {
    use dpioa_sched::EngineKind;
    match kind {
        EngineKind::Lumped => Tier::Lumped,
        EngineKind::Exact => Tier::Exact,
        EngineKind::Hybrid => Tier::Hybrid,
        EngineKind::MonteCarlo => Tier::MonteCarlo,
    }
}

/// The oracle answer of one query.
pub struct Oracle {
    pub outcomes: Rendered,
    /// Every weight in the query is a dyadic rational, so f64 arithmetic
    /// in any order is exact and answers must match bit for bit.
    pub dyadic: bool,
}

/// How an accepted answer passed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pass {
    BitIdentical,
    /// Non-dyadic exact answer within tolerance; `bits_differ` says
    /// whether any outcome differs from the oracle in its last bits.
    Rounded {
        bits_differ: bool,
    },
    /// Sampled answer within 2x its bound; `within_1x` when within 1x.
    Sampled {
        within_1x: bool,
    },
}

/// Render a distribution the way the server does: `Display` of the
/// value, sorted by that rendering.
pub fn render(dist: &Disc<Value>) -> Rendered {
    let mut out: Rendered = dist.iter().map(|(v, &p)| (format!("{v}"), p)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The sequential-DFS oracle for one query.
pub fn oracle(q: &Query, dyadic: bool) -> Oracle {
    let (auto, obs) = (q.auto.as_ref(), &q.obs);
    let measure = try_execution_measure_in(
        auto,
        q.sched.as_ref(),
        q.horizon,
        &Budget::unlimited(),
        Ok::<f64, _>,
    )
    .expect("oracle expansion is unbudgeted");
    let dist = measure.observe(|e| obs.apply(auto, e));
    Oracle {
        outcomes: render(&dist),
        dyadic,
    }
}

/// Check one answer against its oracle.
pub fn check(
    oracle: &Oracle,
    answer: &Rendered,
    tier: Tier,
    error_bound: f64,
) -> Result<Pass, String> {
    if tier.is_exact() {
        if answer.len() != oracle.outcomes.len() {
            return Err(format!(
                "{} answer has {} outcomes, oracle {}",
                tier.name(),
                answer.len(),
                oracle.outcomes.len()
            ));
        }
        let mut bits_differ = false;
        for ((av, ap), (ov, op)) in answer.iter().zip(&oracle.outcomes) {
            if av != ov {
                return Err(format!("support differs: {av:?} vs oracle {ov:?}"));
            }
            if ap.to_bits() != op.to_bits() {
                if oracle.dyadic {
                    return Err(format!(
                        "dyadic outcome {av}: p_bits {:016x} vs oracle {:016x}",
                        ap.to_bits(),
                        op.to_bits()
                    ));
                }
                if (ap - op).abs() > ROUNDED_TOL {
                    return Err(format!(
                        "outcome {av}: {ap} vs oracle {op} beyond {ROUNDED_TOL}"
                    ));
                }
                bits_differ = true;
            }
        }
        return Ok(if oracle.dyadic {
            Pass::BitIdentical
        } else {
            Pass::Rounded { bits_differ }
        });
    }
    if !(error_bound > 0.0 && error_bound.is_finite()) {
        return Err(format!(
            "{} answer with error bound {error_bound}",
            tier.name()
        ));
    }
    let lookup = |set: &Rendered, v: &str| {
        set.binary_search_by(|(k, _)| k.as_str().cmp(v))
            .ok()
            .map(|i| set[i].1)
    };
    let mut worst: f64 = 0.0;
    for (v, p) in answer {
        let Some(q) = lookup(&oracle.outcomes, v) else {
            return Err(format!("sampled outcome {v} is outside the oracle support"));
        };
        worst = worst.max((p - q).abs());
    }
    for (v, q) in &oracle.outcomes {
        if lookup(answer, v).is_none() {
            worst = worst.max(*q);
        }
    }
    if worst > 2.0 * error_bound {
        return Err(format!(
            "{} answer off by {worst} > 2 x bound {error_bound}",
            tier.name()
        ));
    }
    Ok(Pass::Sampled {
        within_1x: worst <= error_bound,
    })
}

/// Tallies over every checked answer.
#[derive(Default, Clone, Debug)]
pub struct Tally {
    pub checked: u64,
    pub failures: u64,
    pub rounded: u64,
    pub rounded_bits_differ: u64,
    pub sampled: u64,
    pub sampled_within_1x: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, verdict: Result<Pass, String>) {
        self.checked += 1;
        match verdict {
            Ok(Pass::BitIdentical) => {}
            Ok(Pass::Rounded { bits_differ }) => {
                self.rounded += 1;
                self.rounded_bits_differ += u64::from(bits_differ);
            }
            Ok(Pass::Sampled { within_1x }) => {
                self.sampled += 1;
                self.sampled_within_1x += u64::from(within_1x);
            }
            Err(e) => {
                self.failures += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(e);
                }
            }
        }
    }

    /// The counts, on stderr.
    pub fn report(&self) {
        eprintln!(
            "checker: {} answers checked, {} failed, {} rounded (non-dyadic; {} differ from the oracle in their last bits), {} sampled ({} within 1x bound)",
            self.checked,
            self.failures,
            self.rounded,
            self.rounded_bits_differ,
            self.sampled,
            self.sampled_within_1x
        );
        if let Some(f) = &self.first_failure {
            eprintln!("checker: first failure: {f}");
        }
    }
}

/// The checker must reject a flipped `p_bits`, a dropped outcome and a
/// sampled answer at 3x its bound, and accept the oracle itself and a
/// sampled answer inside its bound. Returns the first broken promise.
pub fn self_test(oracle: &Oracle) -> Result<(), String> {
    if oracle.outcomes.len() < 2 || !oracle.dyadic {
        return Err("self-test needs a dyadic oracle with two outcomes".into());
    }
    let good = oracle.outcomes.clone();
    if check(oracle, &good, Tier::Exact, 0.0).is_err() {
        return Err("the oracle itself was rejected".into());
    }
    let mut flipped = good.clone();
    flipped[0].1 = f64::from_bits(flipped[0].1.to_bits() ^ 1);
    if check(oracle, &flipped, Tier::Exact, 0.0).is_ok() {
        return Err("a flipped p_bits value was accepted".into());
    }
    let mut dropped = good.clone();
    dropped.pop();
    if check(oracle, &dropped, Tier::Lumped, 0.0).is_ok() {
        return Err("a dropped outcome was accepted".into());
    }
    let bound = 1e-3;
    let shifted = |k: f64| {
        let mut s = good.clone();
        s[0].1 += k * bound;
        s[1].1 -= k * bound;
        s
    };
    if check(oracle, &shifted(3.0), Tier::MonteCarlo, bound).is_ok() {
        return Err("a sampled answer at 3x its bound was accepted".into());
    }
    if check(oracle, &shifted(0.5), Tier::Hybrid, bound).is_err() {
        return Err("a sampled answer at 0.5x its bound was rejected".into());
    }
    Ok(())
}
