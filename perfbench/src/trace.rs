//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's
//! epoch), a parent span (0 for none) and a request id. Self time is a
//! span's duration minus the time its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::with_capacity(1 << 16)),
    })
}

/// Switch recording on or off (off by default: end-to-end figures come
/// from untraced runs only).
pub fn enable(on: bool) {
    recorder();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closed by [`end`].
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

/// Open a span (a no-op handle when tracing is off).
pub fn begin(name: &'static str, parent: Option<&Open>, request: u64) -> Option<Open> {
    if !enabled() {
        return None;
    }
    Some(Open {
        id: recorder().next_id.fetch_add(1, Ordering::Relaxed),
        parent: parent.map_or(0, |p| p.id),
        request,
        name,
        start: Instant::now(),
    })
}

/// Close a span at `at` (now, when `None`).
pub fn end(span: Option<Open>, at: Option<Instant>) {
    let Some(s) = span else { return };
    let r = recorder();
    let end = at.unwrap_or_else(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(r.epoch).as_nanos() as u64;
    r.spans.lock().expect("span buffer lock").push(Span {
        id: s.id,
        parent: s.parent,
        request: s.request,
        name: s.name,
        start_ns: ns(s.start),
        end_ns: ns(end),
    });
}

/// Take every recorded span.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span buffer lock"))
}

/// Per span name: (count, total ms, self ms).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e6;
        e.2 += dur.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Write spans as tab-separated lines: id, parent, request, name,
/// start_ns, end_ns.
pub fn write(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
