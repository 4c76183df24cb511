//! In-memory span recorder the benchmark wraps around its calls into each
//! layer (name, start, end, parent span).
//!
//! Recording is off unless [`enable`] was called, and [`timed`] always
//! returns the call's wall time, so the untraced run times its operations
//! with the same helper and pays for one pair of clock reads per call.
//! Spans live in per-thread buffers; [`flush_thread`] moves a thread's
//! spans into the shared list before the thread ends, and [`take`] hands
//! every span to the caller at exit.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One closed span. `start_ns`/`end_ns` count from the first span of the
/// process; `parent` indexes into the same thread's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: String,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Enclosing span on the same thread (index into that thread's spans
    /// as returned by [`take`], after renumbering).
    pub parent: Option<usize>,
    /// Recording thread (0 = the thread that flushed first).
    pub thread: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording spans (already recorded ones are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Runs `f`, returning its result and wall time in milliseconds; while
/// recording is on, also records a span `name` around it.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let record = is_enabled();
    let start = Instant::now();
    let id = if record {
        Some(LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let id = l.spans.len();
            let parent = l.stack.last().copied();
            l.spans.push(Span {
                name: name.to_string(),
                start_ns: ns_since_epoch(start),
                end_ns: 0,
                parent,
                thread: 0,
            });
            l.stack.push(id);
            id
        }))
    } else {
        None
    };
    let out = f();
    let end = Instant::now();
    if let Some(id) = id {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.spans[id].end_ns = ns_since_epoch(end).max(l.spans[id].start_ns);
            l.stack.pop();
        });
    }
    (out, (end - start).as_secs_f64() * 1e3)
}

/// Moves this thread's closed spans into the shared list. Call before a
/// recording thread exits, and on the main thread before [`take`].
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if spans.is_empty() {
        return;
    }
    let mut done = DONE
        .lock()
        .expect("no thread panics while holding the span list");
    let thread = done.iter().map(|s| s.thread + 1).max().unwrap_or(0);
    let base = done.len();
    done.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s.thread = thread;
        s
    }));
}

/// Flushes the calling thread and returns every recorded span.
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(
        &mut *DONE
            .lock()
            .expect("no thread panics while holding the span list"),
    )
}

/// Self time of each span: its duration minus the time its direct
/// children cover (children of one thread nest strictly inside their
/// parent and do not overlap, so their durations add up).
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    own
}

/// Total duration (ms) of spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Total self time (ms) of spans named `name`.
pub fn total_self_ms(spans: &[Span], own: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, o)| *o)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Serializes spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":{}}}\n",
            tp_obs::json::escape(&s.name),
            s.start_ns,
            s.end_ns,
            s.thread
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 10_000_000, None),
            span("a", 1_000_000, 4_000_000, Some(0)),
            span("b", 2_000_000, 3_000_000, Some(1)),
            span("c", 5_000_000, 9_000_000, Some(0)),
        ];
        let own = self_ms(&spans);
        assert_eq!(own, vec![3.0, 2.0, 1.0, 4.0]);
        assert_eq!(total_self_ms(&spans, &own, "op"), 3.0);
        assert_eq!(total_ms(&spans, "a"), 3.0);
    }
}
