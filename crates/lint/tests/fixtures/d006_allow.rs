use std::sync::atomic::{AtomicU64, Ordering};

// ps-lint: allow(D006): counts calls for a diagnostic print only; no output byte depends on it
static CALLS: AtomicU64 = AtomicU64::new(0);

pub fn call() {
    CALLS.fetch_add(1, Ordering::Relaxed);
}
