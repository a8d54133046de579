//! Keep the machine's CPUs out of their idle state while an open-loop
//! phase runs.
//!
//! On a virtual machine an idle CPU halts, and waking it again (for a
//! timer, a socket or a disk completion) waits on the host: usually a
//! few microseconds, but a few milliseconds for about one wake-up in a
//! hundred, more when the host is busy. Every request of `serve-hot`
//! passes through several such wake-ups (the generator's due time, the
//! server's reads, its coalesce window, the reply), and every open-loop
//! query of `engine-cold` through at least two (the caller's due time,
//! the pool's helper lane), so their latencies counted the host's
//! wake-ups, and how many a run met depended on the host rather than
//! the program. A spinning thread under `SCHED_IDLE` per CPU keeps
//! every CPU running: the kernel runs it only when nothing else is
//! runnable and preempts it as soon as anything is, so the program
//! under test and the generator lose no CPU time to it in the guest.
//! The spinners send no requests and make no calls into the program.
//! They run only while open-loop lanes sleep between due times: the
//! closed loop, the store pass and set-up run without them, because
//! `engine-cold`'s computation-bound figures came out about a tenth
//! slower, and no steadier, with the CPUs kept busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// At most this many spinners, whatever the machine's CPU count.
const MAX_SPINNERS: usize = 8;

/// Linux `SCHED_IDLE`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Spinners running until dropped; dropping stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner per CPU, at most [`MAX_SPINNERS`]. A spinner that
    /// cannot lower itself to `SCHED_IDLE` ends at once rather than
    /// compete with the program under test.
    pub fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus.min(MAX_SPINNERS))
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { priority: 0 };
                    // SAFETY: pid 0 names the calling thread, and
                    // `param` is a live `struct sched_param`.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// In the `engine-cold` child, the process under test: the spinners run
/// in the parent, which starts them on an `awake 1` line from the child
/// and stops them on `awake 0`, so that their threads never count in
/// the child's peak resident set.
pub struct AskParent;

impl AskParent {
    pub fn start() -> AskParent {
        say("awake 1");
        AskParent
    }
}

impl Drop for AskParent {
    fn drop(&mut self) {
        say("awake 0");
    }
}

fn say(line: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_stops_every_spinner() {
        let awake = KeepAwake::start();
        assert!(!awake.threads.is_empty());
        let stop = Arc::clone(&awake.stop);
        drop(awake);
        assert!(stop.load(Ordering::Relaxed));
    }
}
