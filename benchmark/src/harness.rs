//! Measuring tools shared by every workload: the wall clock, the
//! in-memory span list of the traced run, order statistics, digests.

use ps_trace::WallTimer;
use std::fmt::Write as _;

/// One recorded span of the traced run. `parent` indexes [`Spans::list`]
/// (`u32::MAX` for a root); `request` is the connect or incident index
/// the span belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// An open span: always carries the start time, so the caller gets its
/// wall reading whether or not spans are being recorded.
pub struct Token {
    idx: u32,
    start_ns: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// The benchmark's clock and span recorder. Every wall reading of the
/// harness goes through here (one process-wide [`WallTimer`]); with
/// recording off `enter`/`exit` only read the clock.
pub struct Spans {
    clock: WallTimer,
    pub recording: bool,
    pub list: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            clock: WallTimer::start(),
            recording: false,
            list: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the benchmark process started measuring.
    pub fn now_ns(&self) -> u64 {
        (self.clock.elapsed_ms() * 1e6) as u64
    }

    pub fn now_s(&self) -> f64 {
        self.clock.elapsed_ms() / 1e3
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Token {
        let start_ns = self.now_ns();
        if !self.recording {
            return Token {
                idx: NO_SPAN,
                start_ns,
            };
        }
        let idx = self.list.len() as u32;
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            request,
        });
        self.stack.push(idx);
        Token { idx, start_ns }
    }

    /// Closes the span and returns its duration in nanoseconds.
    pub fn exit(&mut self, token: Token) -> u64 {
        let end_ns = self.now_ns();
        if token.idx != NO_SPAN {
            self.list[token.idx as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(token.idx), "spans close innermost first");
        }
        end_ns - token.start_ns
    }

    /// Times one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let token = self.enter(name, request);
        let out = f();
        (out, self.exit(token))
    }

    /// Records a child of the span closed last, for a duration the callee
    /// reported itself (`Connection::costs.planning_ms` inside a connect);
    /// it is laid at the parent's start.
    pub fn reported_child(&mut self, name: &'static str, request: u64, dur_ns: u64) {
        if !self.recording {
            return;
        }
        let Some(parent) = self.list.len().checked_sub(1) else {
            return;
        };
        let start_ns = self.list[parent].start_ns;
        let end_ns = (start_ns + dur_ns).min(self.list[parent].end_ns);
        self.list.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent as u32,
            request,
        });
    }

    /// Self time per span name: duration minus the part its children
    /// cover. Returns `(name, calls, total_ns, self_ns)` sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, child) in self.list.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*child);
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// The span list as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// The `q`-quantile (nearest rank on the sorted copy); 0 for no samples,
/// which only happens for metrics a workload does not exercise.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the middle pair, so two repetitions average.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the bytes fed in: the input and state digests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
