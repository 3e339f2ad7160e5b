//! `design-sweep`: the architect's loop. Every registry workload on every
//! Table-4 instance at the paper's 1 TB/s design point goes build → standard
//! pass pipeline → bytecode compile → lowering → serial simulation →
//! scheduled simulation. Most of the time lands in the circuit passes, the
//! simulator and the single-trace scheduler second; serve, cluster and CKKS
//! never run. Every circuit is deterministic, so the workload takes no seed.

use std::collections::BTreeMap;

use bts_circuit::passes::{
    analysis, BootstrapPlacePass, CommonSubexprPass, DeadValuePass, Pass, PassPipeline,
    RescaleSchedPass,
};
use bts_circuit::{compile, CircuitError, HeCircuit, TraceBackend, Workload};
use bts_params::CkksInstance;
use bts_sched::ScheduleExt;
use bts_sim::{BtsConfig, Simulator};
use bts_workloads::{standard_registry, WorkloadRegistry};

use crate::tracer::{self_seconds_by_name, SpanRec, Tracer};
use crate::{Bench, Checked};

/// The standard pipeline's passes, run one by one in the traced pass, with
/// the span each one records.
fn standard_passes() -> [(&'static str, Box<dyn Pass>); 4] {
    [
        ("circuit.cse", Box::new(CommonSubexprPass)),
        ("circuit.rescale_sched", Box::new(RescaleSchedPass)),
        ("circuit.bootstrap_place", Box::new(BootstrapPlacePass)),
        ("circuit.dce", Box::new(DeadValuePass)),
    ]
}

/// One `compile` row of `BENCH_FIGURES.json`: what the optimized, compiled
/// and lowered circuit must look like.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    ops: f64,
    key_switches: f64,
    bootstraps: f64,
    registers: f64,
    serial_seconds: f64,
}

/// Reads the `compile` rows at the `bts-1tb` design point, keyed by
/// (workload, instance).
fn expected_rows() -> Result<BTreeMap<(String, String), Expected>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_FIGURES.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = bts_telemetry::json::parse(&text)?;
    let rows = root
        .get("compile")
        .and_then(|v| v.as_array())
        .ok_or("BENCH_FIGURES.json has no compile section")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let text = |k: &str| row.get(k).and_then(|v| v.as_str()).map(str::to_string);
        let num = |k: &str| {
            row.get(k)
                .and_then(|v| v.as_number())
                .ok_or_else(|| format!("compile row without {k}"))
        };
        if text("config").as_deref() != Some("bts-1tb") {
            continue;
        }
        let key = (
            text("workload").ok_or("compile row without workload")?,
            text("instance").ok_or("compile row without instance")?,
        );
        out.insert(
            key,
            Expected {
                ops: num("ops_after")?,
                key_switches: num("key_switches_after")?,
                bootstraps: num("bootstraps_after")?,
                registers: num("registers")?,
                serial_seconds: num("serial_seconds_after")?,
            },
        );
    }
    Ok(out)
}

/// What one design point produced.
pub struct Point {
    workload: String,
    instance: String,
    nodes_in: usize,
    nodes_out: usize,
    /// The optimized circuit, kept only where a traced pass is compared
    /// against the untraced pass before it.
    optimized: Option<HeCircuit>,
    ops: usize,
    key_switches: usize,
    bootstraps: usize,
    registers: u32,
    serial: f64,
    scheduled_serial: f64,
    scheduled: f64,
    critical_path: f64,
    cache_hits: usize,
    cache_misses: usize,
}

/// Inputs of one pass.
pub struct State {
    registry: WorkloadRegistry,
    sims: Vec<Simulator>,
    pipeline: PassPipeline,
    expected: Result<BTreeMap<(String, String), Expected>, String>,
}

/// The design-sweep workload.
pub struct DesignSweep {
    /// Traced run: keep each untraced pass's optimized circuits as the
    /// reference the next traced pass's pass-by-pass output must equal.
    traced_run: bool,
    reference: BTreeMap<(String, String), HeCircuit>,
}

impl DesignSweep {
    /// A sweep; `traced_run` keeps optimizer references between passes.
    pub fn new(traced_run: bool) -> Self {
        Self {
            traced_run,
            reference: BTreeMap::new(),
        }
    }
}

/// The standard pipeline run pass by pass, each pass and each re-analysis
/// in its own span; the same steps `PassPipeline::optimize` takes.
fn optimize_traced(circuit: &HeCircuit, tracer: &mut Tracer) -> Result<HeCircuit, CircuitError> {
    let mut current = circuit.clone();
    tracer.span("circuit.analysis", |_| analysis::check(&current))?;
    for (span, pass) in standard_passes() {
        current = tracer.span(span, |_| pass.run(&current))?;
        tracer.span("circuit.analysis", |_| analysis::check(&current))?;
    }
    Ok(current)
}

fn run_point(
    state: &State,
    sim: &Simulator,
    workload: &dyn Workload,
    keep_optimized: bool,
    tracer: &mut Tracer,
) -> Result<Point, String> {
    let ins = sim.instance();
    let circuit = tracer
        .span("workloads.build", |_| workload.build(ins))
        .map_err(|e| format!("build: {e}"))?;
    let optimized = if tracer.is_on() {
        tracer.span("circuit.optimize", |t| optimize_traced(&circuit, t))
    } else {
        state.pipeline.optimize(&circuit)
    }
    .map_err(|e| format!("optimize: {e}"))?;
    let compiled = tracer
        .span("circuit.compile", |_| compile(&optimized))
        .map_err(|e| format!("compile: {e}"))?;
    let lowered = tracer
        .span("circuit.lower", |_| {
            TraceBackend::new().lower_compiled(&compiled)
        })
        .map_err(|e| format!("lower: {e}"))?;
    let report = tracer.span("sim.run", |_| sim.run(&lowered.trace));
    let scheduled = tracer.span("sched.run_scheduled", |_| {
        sim.run_scheduled(&lowered.trace).report
    });
    Ok(Point {
        workload: workload.name().to_string(),
        instance: ins.name().to_string(),
        nodes_in: circuit.len(),
        nodes_out: optimized.len(),
        optimized: keep_optimized.then_some(optimized),
        ops: lowered.trace.len(),
        key_switches: lowered.trace.key_switch_count(),
        bootstraps: lowered.bootstrap_count,
        registers: compiled.reg_count,
        serial: report.total_seconds,
        scheduled_serial: scheduled.total_seconds,
        scheduled: scheduled.scheduled_seconds.unwrap_or(f64::NAN),
        critical_path: scheduled.critical_path_seconds.unwrap_or(f64::NAN),
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
    })
}

/// A point against its `BENCH_FIGURES.json` row and the schedule brackets.
fn check_point(point: &Point, expected: Option<&Expected>) -> Result<(), String> {
    let row = expected.ok_or("no compile row in BENCH_FIGURES.json")?;
    // The figures file prints serial seconds as `{:.6e}`; equal text parses
    // to the same double.
    let serial_text: f64 = format!("{:.6e}", point.serial)
        .parse()
        .expect("formatted float parses");
    let got = Expected {
        ops: point.ops as f64,
        key_switches: point.key_switches as f64,
        bootstraps: point.bootstraps as f64,
        registers: f64::from(point.registers),
        serial_seconds: serial_text,
    };
    if &got != row {
        return Err(format!("got {got:?}, BENCH_FIGURES.json has {row:?}"));
    }
    if point.scheduled_serial != point.serial {
        return Err(format!(
            "run_scheduled serial {} != Simulator::run {}",
            point.scheduled_serial, point.serial
        ));
    }
    let eps = 1e-9 * point.serial;
    if !(point.critical_path <= point.scheduled + eps && point.scheduled <= point.serial + eps) {
        return Err(format!(
            "need critical path {} <= scheduled {} <= serial {}",
            point.critical_path, point.scheduled, point.serial
        ));
    }
    Ok(())
}

impl Bench for DesignSweep {
    type State = State;
    type Output = Vec<Result<Point, String>>;

    fn setup(&mut self) -> State {
        State {
            registry: standard_registry(),
            sims: CkksInstance::evaluation_set()
                .into_iter()
                .map(|ins| Simulator::new(BtsConfig::bts_default(), ins))
                .collect(),
            pipeline: PassPipeline::standard(),
            expected: expected_rows(),
        }
    }

    fn pass(&mut self, state: &mut State, tracer: &mut Tracer) -> Self::Output {
        let keep = self.traced_run;
        let mut points = Vec::new();
        for sim in &state.sims {
            for (_, workload) in state.registry.iter() {
                tracer.next_group();
                points.push(
                    tracer.span("design_point", |t| run_point(state, sim, workload, keep, t)),
                );
            }
        }
        points
    }

    fn check(&mut self, state: &State, points: Self::Output, spans: &[SpanRec]) -> Checked {
        let mut checked = Checked::default();
        let traced = !spans.is_empty();
        if traced {
            let ours: Vec<&str> = standard_passes().iter().map(|(_, p)| p.name()).collect();
            checked.record(
                "traced pipeline",
                if state.pipeline.pass_names() == ours {
                    Ok(())
                } else {
                    Err(format!(
                        "the standard pipeline is now {:?}",
                        state.pipeline.pass_names()
                    ))
                },
            );
        }
        let mut counts = BTreeMap::<String, f64>::new();
        let mut reference = BTreeMap::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        for point in points {
            let result = point.and_then(|mut p| {
                let key = (p.workload.clone(), p.instance.clone());
                let rows = state.expected.as_ref().map_err(String::clone)?;
                check_point(&p, rows.get(&key))?;
                if let Some(optimized) = p.optimized.take() {
                    if !traced {
                        reference.insert(key, optimized);
                    } else if self.reference.get(&key) != Some(&optimized) {
                        return Err("pass-by-pass output differs from optimize".to_string());
                    }
                }
                for (name, value) in [
                    ("circuit.nodes_in", p.nodes_in),
                    ("circuit.nodes_out", p.nodes_out),
                    ("circuit.bootstraps_out", p.bootstraps),
                    ("circuit.key_switches_out", p.key_switches),
                    ("sim.trace_ops", p.ops),
                ] {
                    *counts.entry(name.to_string()).or_insert(0.0) += value as f64;
                }
                hits += p.cache_hits;
                misses += p.cache_misses;
                Ok(())
            });
            checked.record("design point", result);
        }
        if !traced {
            self.reference = reference;
            return checked;
        }
        let times = self_seconds_by_name(spans);
        let time = |name: &str| times.get(name).copied().unwrap_or(0.0);
        for name in [
            "workloads.build",
            "circuit.cse",
            "circuit.rescale_sched",
            "circuit.bootstrap_place",
            "circuit.dce",
            "circuit.analysis",
            "circuit.compile",
            "circuit.lower",
            "sim.run",
        ] {
            checked.layers.insert(format!("{name}_s"), time(name));
        }
        let ops = counts.get("sim.trace_ops").copied().unwrap_or(0.0);
        let schedule = time("sched.run_scheduled") - time("sim.run");
        checked.layers.extend(counts);
        for (name, value) in [
            ("sim.ns_per_op", time("sim.run") * 1e9 / ops),
            ("sim.cache_hit_rate", hits as f64 / (hits + misses) as f64),
            ("sched.schedule_s", schedule),
            ("sched.ns_per_op", schedule * 1e9 / ops),
        ] {
            checked.layers.insert(name.to_string(), value);
        }
        checked
    }
}
