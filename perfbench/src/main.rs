//! Host wall-clock benchmark of the BTS stack.
//!
//! ```text
//! perfbench --workload <design-sweep|serving-fleet|ckks-functional>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets a workload up and runs passes over it until `--seconds` have
//! elapsed, checking every pass's outputs. Every untraced pass is bracketed
//! by runs of a fixed reference work (`calib.rs`), and its time is reported
//! as a multiple of theirs, which cancels most of a shared machine's drift in
//! speed. With `--trace 0` it reports the end-to-end metrics, measured with
//! tracing off. With `--trace 1` it alternates untraced and traced passes,
//! reports the per-layer ledger derived from the traced passes' spans, and
//! writes those spans as a Chrome trace-event file. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod ckks_functional;
mod design_sweep;
mod fidelity;
mod serving_fleet;
mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bts_telemetry::Event;
use tracer::{SpanRec, Tracer};

/// End-to-end metrics and their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_norm", "ref"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("paper_err", "ln-ratio"),
];

/// Per-layer metrics and their units, printed with `--trace 1`. A layer a
/// workload bypasses reads 0. The last two are the raw medians behind
/// `pass_norm`: an untraced pass's seconds and the reference work's.
const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.build_s", "s"),
    ("circuit.cse_s", "s"),
    ("circuit.rescale_sched_s", "s"),
    ("circuit.bootstrap_place_s", "s"),
    ("circuit.dce_s", "s"),
    ("circuit.analysis_s", "s"),
    ("circuit.compile_s", "s"),
    ("circuit.lower_s", "s"),
    ("circuit.nodes_in", "count"),
    ("circuit.nodes_out", "count"),
    ("circuit.bootstraps_out", "count"),
    ("circuit.key_switches_out", "count"),
    ("sim.run_s", "s"),
    ("sim.ns_per_op", "ns"),
    ("sim.trace_ops", "count"),
    ("sim.cache_hit_rate", "ratio"),
    ("sched.schedule_s", "s"),
    ("sched.ns_per_op", "ns"),
    ("sched.ops_placed", "count"),
    ("sched.ns_per_placed_op", "ns"),
    ("serve.serve_s", "s"),
    ("serve.us_per_job", "us"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("fault.retries", "count"),
    ("serve.slo_attainment", "ratio"),
    ("cluster.healthy_s", "s"),
    ("cluster.wounded_s", "s"),
    ("cluster.failover_cost_ratio", "ratio"),
    ("cluster.migrated", "count"),
    ("cluster.interconnect_gib", "GiB"),
    ("cluster.goodput_retained", "ratio"),
    ("ckks.helr_exec_s", "s"),
    ("ckks.resnet_exec_s", "s"),
    ("ckks.bootstrap_s", "s"),
    ("math.ntt_s", "s"),
    ("math.bconv_s", "s"),
    ("ckks.key_switch_s", "s"),
    ("ckks.ops", "count"),
    ("ckks.key_switches", "count"),
    ("ckks.bootstrap_max_err", "abs"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.dropped_events", "count"),
    ("bench.pass_s", "s"),
    ("bench.ref_s", "s"),
];

/// Fewest timed passes of each kind a run makes, however short `--seconds`
/// is.
const MIN_PASSES: usize = 3;

/// Before each pass the workload is set up back to back until this long has
/// passed, every set-up timed; the last one feeds the pass. `setup_s` is the
/// median of all of them, so it samples the whole run, not one moment of a
/// shared machine.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// What checking one pass found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations the pass attempted (design points, serve/cluster calls,
    /// functional executions, bootstraps).
    pub attempted: u64,
    /// Operations that failed or whose outputs did not check.
    pub failed: u64,
    /// Per-layer metrics of a traced pass; empty for an untraced one.
    pub layers: BTreeMap<String, f64>,
}

impl Checked {
    /// Counts one operation, failed unless `result` is `Ok`; the failure is
    /// printed so a red run says what broke.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            println!("CHECK FAILED {what}: {e}");
        }
    }
}

/// One workload: a set-up, a timed pass, and a check of the pass's outputs.
pub trait Bench {
    /// Inputs, keys and servers one pass runs on.
    type State;
    /// What a pass produced, checked after the pass clock stops.
    type Output;
    /// Builds the inputs of one pass.
    fn setup(&mut self) -> Self::State;
    /// Runs one pass, recording spans around each layer call when `tracer`
    /// is on.
    fn pass(&mut self, state: &mut Self::State, tracer: &mut Tracer) -> Self::Output;
    /// Checks a pass's outputs; `spans` are the pass's spans (empty when it
    /// ran untraced), from which a traced pass's layer metrics derive.
    fn check(&mut self, state: &Self::State, output: Self::Output, spans: &[SpanRec]) -> Checked;
    /// Events recorded outside the tracer (the global collector's), already
    /// on the tracer's clock, for the trace file.
    fn extra_events(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Where the traced run writes its Chrome trace: inside the build directory,
/// which the repository ignores.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    dir.join(format!("perfbench-trace-{workload}-seed{seed}.json"))
}

/// The run's totals: every pass's check, and the samples the metrics are
/// medians of.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    /// Seconds of the reference work, run before and after each untraced
    /// timed pass.
    ref_s: Vec<f64>,
    /// Each untraced timed pass over the mean of its two reference runs.
    pass_norm: Vec<f64>,
    layers: BTreeMap<String, Vec<f64>>,
}

/// Runs a warm-up pass, then passes until `--seconds` have elapsed and at
/// least [`MIN_PASSES`] of each kind ran; with `--trace 1`, every other pass
/// is traced. Every untraced timed pass runs between two runs of the
/// reference work. Returns the totals and the workload's events recorded
/// outside the tracer.
fn drive<B: Bench>(bench: &mut B, args: &Args, tracer: &mut Tracer) -> (Totals, Vec<Event>) {
    let trace = args.trace;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut totals = Totals::default();
    let mut reference = calib::Reference::new();
    // Untimed, like the warm-up pass.
    reference.time();
    for i in 0.. {
        // Pass 0 lets caches fill and lazy set-up finish: it is checked but
        // not timed. After it, with `--trace 1`, even passes are traced.
        let warmup = i == 0;
        let traced = trace && !warmup && i % 2 == 0;
        let batch = Instant::now();
        let mut state = loop {
            let t0 = Instant::now();
            let state = bench.setup();
            if !warmup {
                totals.setup_s.push(t0.elapsed().as_secs_f64());
            }
            if batch.elapsed() >= SETUP_BATCH {
                break state;
            }
        };

        let calibrated = !traced && !warmup;
        let ref_before = if calibrated { reference.time() } else { 0.0 };
        tracer.set_on(traced);
        let mark = tracer.spans().len();
        let t1 = Instant::now();
        let output = tracer.span("pass", |t| bench.pass(&mut state, t));
        let dt = t1.elapsed().as_secs_f64();
        tracer.set_on(false);
        if traced {
            totals.traced_pass_s.push(dt);
        } else if calibrated {
            let ref_after = reference.time();
            totals.pass_s.push(dt);
            totals.ref_s.extend([ref_before, ref_after]);
            totals.pass_norm.push(dt / ((ref_before + ref_after) / 2.0));
        }
        let spans: Vec<SpanRec> = tracer.spans()[mark..]
            .iter()
            .map(|s| SpanRec {
                parent: s.parent.map(|p| p - mark),
                ..s.clone()
            })
            .collect();
        let checked = bench.check(&state, output, &spans);
        totals.attempted += checked.attempted;
        totals.failed += checked.failed;
        for (name, value) in checked.layers {
            totals.layers.entry(name).or_default().push(value);
        }
        let kinds_done = totals.pass_s.len() >= MIN_PASSES
            && (!trace || totals.traced_pass_s.len() >= MIN_PASSES);
        if kinds_done && start.elapsed() >= budget {
            break;
        }
    }
    (totals, bench.extra_events())
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN: a metric that a failed operation left
            // undefined reads 0, and the failure is counted in `failed`.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    // The global collector stays off unless a workload's traced pass turns
    // it on, and the limb pool keeps its default single worker: the
    // environment (`BTS_TRACE`, `BTS_THREADS`) must not change what is
    // measured.
    bts_telemetry::set_enabled(false);
    bts_math::par::set_threads(1);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tracer = Tracer::off();
    let (totals, extra) = match args.workload.as_str() {
        "design-sweep" => drive(
            &mut design_sweep::DesignSweep::new(args.trace),
            args,
            &mut tracer,
        ),
        "serving-fleet" => drive(
            &mut serving_fleet::ServingFleet::new(args.seed),
            args,
            &mut tracer,
        ),
        "ckks-functional" => drive(
            &mut ckks_functional::CkksFunctional::new(args.seed)?,
            args,
            &mut tracer,
        ),
        other => return Err(format!("unknown workload {other}")),
    };
    println!(
        "operations: {} attempted, {} failed",
        totals.attempted, totals.failed
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
    };
    println!(
        "setup: {} samples, median {:.3} ms",
        totals.setup_s.len(),
        median(&totals.setup_s) * 1e3
    );
    println!("untraced pass ms: {:?}", ms(&totals.pass_s));
    println!("traced pass ms: {:?}", ms(&totals.traced_pass_s));
    println!("reference ms: {:?}", ms(&totals.ref_s));

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers: BTreeMap<String, f64> = totals
            .layers
            .iter()
            .map(|(name, samples)| (name.clone(), median(samples)))
            .collect();
        layers.insert(
            "telemetry.overhead_ratio".to_string(),
            median(&totals.traced_pass_s) / median(&totals.pass_s),
        );
        // Every dropped event counts, not the median pass's.
        let dropped: f64 = totals
            .layers
            .get("telemetry.dropped_events")
            .map_or(0.0, |v| v.iter().sum());
        layers.insert("telemetry.dropped_events".to_string(), dropped);
        layers.insert("bench.pass_s".to_string(), median(&totals.pass_s));
        layers.insert("bench.ref_s".to_string(), median(&totals.ref_s));
        if dropped > 0.0 {
            println!(
                "INCOMPLETE: the global collector dropped {dropped} events; math.ntt_s, \
                 math.bconv_s, ckks.key_switch_s and ckks.key_switches come from a truncated \
                 stream"
            );
        }
        let path = trace_path(&args.workload, args.seed);
        let mut events = tracer::to_events(tracer.spans());
        events.extend(extra);
        let json = bts_telemetry::chrome_trace_json(&events);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        let check = bts_telemetry::validate_chrome_trace(&json)
            .map_err(|e| format!("the written trace does not validate: {e}"))?;
        println!(
            "trace: {} ({} events, {} tracks)",
            path.display(),
            check.events,
            check.tracks
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        // Read before `paper_err`, whose simulations are not the workload's.
        let rss = peak_rss_mb()?;
        let ok_rate = 1.0 - totals.failed as f64 / totals.attempted.max(1) as f64;
        let pairs = fidelity::reproduced_pairs();
        println!(
            "paper_err inputs (reproduced vs paper): HELR {:.2} vs {} ms/iter, \
             ResNet-20 {:.3} vs {} s, T_mult,a/slot {:.2} vs {} ns",
            pairs[0].0, pairs[0].1, pairs[1].0, pairs[1].1, pairs[2].0, pairs[2].1
        );
        let values = [
            median(&totals.setup_s),
            median(&totals.pass_norm),
            rss,
            ok_rate,
            fidelity::paper_err(&pairs),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<30} {value:>14.6} {unit}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        totals.failed == 0,
        totals.attempted,
        totals.failed,
        json_metrics(&metrics)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in `BENCHMARK.json` must agree: later
    /// changes cite them by name.
    #[test]
    fn metric_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let root = bts_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            root.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checked_counts_failures() {
        let mut c = Checked::default();
        c.record("ok", Ok(()));
        c.record("bad", Err("planted".to_string()));
        assert_eq!((c.attempted, c.failed), (2, 1));
    }
}
