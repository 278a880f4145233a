//! In-memory span accumulator for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span. Each span name keeps only its call count and total time. A
//! disabled tracer records nothing and adds only a branch per call, so
//! timed runs carry no tracing cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulates `name → (calls, seconds)` when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    totals: RefCell<BTreeMap<String, (u64, f64)>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, totals: RefCell::new(BTreeMap::new()) }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        let mut totals = self.totals.borrow_mut();
        let entry = match totals.get_mut(name) {
            Some(entry) => entry,
            None => totals.entry(name.to_owned()).or_default(),
        };
        entry.0 += 1;
        entry.1 += seconds;
        out
    }

    /// Number of spans named `name` and their total duration in seconds.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.totals.borrow().get(name).copied().unwrap_or((0, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert_eq!(t.total("a"), (0, 0.0));
    }

    #[test]
    fn totals_accumulate_per_name() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        t.span("inner", || ());
        let (n, outer) = t.total("outer");
        let (m, inner) = t.total("inner");
        assert_eq!((n, m), (1, 2));
        assert!(outer >= inner && inner >= 0.005);
    }
}
