//! In-memory span recorder for the traced run, Chrome trace export, and
//! the per-layer budget that attributes each operation class.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each layer's public functions. Each span has a name, a
//! layer, start and end, a parent, and the id of the operation it
//! belongs to. A layer's self time is a span's duration minus the time
//! its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer names, in request-path order. `bench` is the benchmark's own
/// glue: its self time is unattributed.
pub const LAYERS: [&str; 7] = [
    "core", "grammar", "lang", "loopir", "forkjoin", "serve", "tune",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When disabled every call is a no-op returning
/// `usize::MAX`, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Wall-clock time of `epoch`, to place spans another process
    /// measured (the load generator) on this tracer's clock.
    epoch_unix_ns: u128,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let epoch_unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        Tracer {
            enabled,
            epoch: Instant::now(),
            epoch_unix_ns,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    pub fn epoch_unix_ns(&self) -> u128 {
        self.epoch_unix_ns
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id shared by the spans of one request or
    /// program run.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if id != usize::MAX {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a span whose bounds were measured elsewhere (by the load
    /// generator, or a pipeline's own per-pass timer).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        dur_ns: u64,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.spans.len() - 1
    }

    /// Record a span given in nanoseconds since the tracer's epoch.
    pub fn record_ns(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if self.enabled {
            let end_ns = start_ns + dur_ns;
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                op,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record a child of `parent` covering the last `dur_ns` of it (a
    /// total the layer reports without start times).
    pub fn record_tail(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &str,
        op: u64,
        dur_ns: u64,
    ) {
        if let Some(p) = self.spans.get(parent) {
            let end_ns = p.end_ns;
            let start_ns = end_ns.saturating_sub(dur_ns).max(p.start_ns);
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                op,
                parent: Some(parent),
                start_ns,
                end_ns,
            });
        }
    }

    /// Pull a span's end back by `ns` (work its call did that the
    /// attributed operation does not).
    pub fn shorten(&mut self, id: usize, ns: u64) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = s.end_ns.saturating_sub(ns).max(s.start_ns);
        }
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Self time per layer of the subtree rooted at `root` (the root
    /// included), in nanoseconds.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        if root == usize::MAX {
            return out;
        }
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let s = &self.spans[id];
            let kids = children.get(&id).cloned().unwrap_or_default();
            let covered: u64 = kids
                .iter()
                .map(|&k| {
                    let c = &self.spans[k];
                    c.end_ns
                        .min(s.end_ns)
                        .saturating_sub(c.start_ns.max(s.start_ns))
                })
                .sum();
            *out.entry(s.layer).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64;
            stack.extend(kids);
        }
        out
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events; one track per
    /// operation id), readable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {}, \"parent\": {}}}}}",
                cmm_serve::json::quote(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Attribution of one operation class: its end-to-end time per
/// operation, how many operations of the class the run made, and the
/// self time each layer spends per operation. Whatever the layers do not
/// cover is unattributed, so the layers plus the remainder sum to the
/// end-to-end time by construction.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub class: String,
    pub count: f64,
    pub total_ns: f64,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Budget {
    pub fn new(class: &str, count: usize, total_ns: f64) -> Budget {
        Budget {
            class: class.to_string(),
            count: count as f64,
            total_ns,
            layers: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, layer: &'static str, ns: f64) {
        *self.layers.entry(layer).or_insert(0.0) += ns;
    }

    pub fn add_all(&mut self, times: &BTreeMap<&'static str, f64>, scale: f64) {
        for (l, ns) in times {
            if *l != "bench" {
                self.add(l, ns * scale);
            }
        }
    }

    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(l, ns)| format!("\"{l}\": {:.1}", ns / 1e3))
            .collect();
        format!(
            "{{\"class\": {}, \"count\": {}, \"total_us\": {:.1}, \"layers_us\": {{{}}}, \"unattributed_us\": {:.1}}}",
            cmm_serve::json::quote(&self.class),
            self.count,
            self.total_ns / 1e3,
            layers.join(", "),
            (self.total_ns - self.layers.values().sum::<f64>()) / 1e3
        )
    }
}

/// Per-layer self-time shares of a workload: each layer's
/// count-weighted self time over the count-weighted end-to-end time of
/// every operation class. The returned map also holds
/// `unattributed`, so the shares sum to 1.
pub fn shares(budgets: &[Budget]) -> BTreeMap<&'static str, f64> {
    let total: f64 = budgets.iter().map(|b| b.count * b.total_ns).sum();
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for b in budgets {
        for (l, ns) in &b.layers {
            *out.entry(l).or_insert(0.0) += b.count * ns / total.max(1.0);
        }
    }
    let covered: f64 = out.values().sum();
    out.insert("unattributed", 1.0 - covered);
    out
}
