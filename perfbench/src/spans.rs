//! In-memory host-time spans around the benchmark's calls into each
//! layer, printed once when the process ends.

use std::time::Instant;

use tmk_machines::Json;

/// The layers a span can be charged to: the workspace crates, with the
/// real-thread runtime apart from the rest of `tmk-core`.
pub const LAYERS: [&str; 9] = [
    "apps", "sim", "core", "net", "mem", "machines", "trace", "bench", "runtime",
];

struct Span {
    name: String,
    layer: usize,
    start_us: f64,
    dur_us: f64,
}

/// Records spans; [`Spans::time`] closes each span when its closure
/// returns.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` charged to `layer`.
    pub fn time<R>(&mut self, layer: &str, name: &str, f: impl FnOnce() -> R) -> R {
        let layer = LAYERS
            .iter()
            .position(|l| *l == layer)
            .unwrap_or_else(|| panic!("unknown span layer {layer}"));
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let dur_us = self.origin.elapsed().as_secs_f64() * 1e6 - start_us;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us,
            dur_us,
        });
        out
    }

    /// The spans in the order they closed, each with its start and
    /// duration in µs from this recorder's creation; `run.py` merges the spans of every process of a run into
    /// one Chrome trace-event file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("name", s.name.as_str())
                        .set("layer", LAYERS[s.layer])
                        .set("start_us", s.start_us)
                        .set("dur_us", s.dur_us)
                })
                .collect(),
        )
    }
}
