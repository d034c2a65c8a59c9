use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static STAMPS: AtomicU64 = AtomicU64::new(0);
static mut SEEN: u64 = 0;
static REGISTRY: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
thread_local! {
    static LAST: Cell<u64> = const { Cell::new(0) };
}

static NAME: &str = "immutable statics are fine";

pub fn stamp(label: &'static str) -> u64 {
    let _ = (label, NAME);
    STAMPS.fetch_add(1, Ordering::Relaxed)
}
