//! `ckks-functional`: real encrypted execution. The mini HELR and mini
//! ResNet circuits of `tests/circuit_equivalence.rs` run as compiled bytecode
//! on real ciphertexts, and one real bootstrap runs at N = 2^7 with the
//! `tests/bootstrapping.rs` configuration. This is the only workload where
//! `bts-ckks` and `bts-math` (NTT, BConv, key-switching) do the work; no
//! simulator, scheduler, serve or cluster code runs.
//!
//! Execution consumes a backend's encryption randomness, so every pass sets
//! up fresh contexts and keys from the seed; that is the set-up time.

use bts_circuit::{compile, Backend, CompiledCircuit, FunctionalBackend, FunctionalRun, Workload};
use bts_ckks::{
    BootstrapConfig, Bootstrapper, Ciphertext, CkksContext, Complex, KeyBundle, SecretKey,
};
use bts_params::CkksInstance;
use bts_telemetry::Event;
use bts_workloads::{HelrConfig, HelrWorkload, ResNetConfig, ResNetWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tracer::{self_seconds_by_name, spans_from_events, SpanRec, Tracer};
use crate::{Bench, Checked};

/// Largest slot error a refreshed message may carry (`tests/bootstrapping.rs`).
const BOOTSTRAP_MAX_ERR: f64 = 0.15;

/// One circuit on its instance, as `tests/circuit_equivalence.rs` sizes it.
struct Circuit {
    name: &'static str,
    /// The span its execution records.
    span: &'static str,
    instance: CkksInstance,
    workload: Box<dyn Workload>,
}

fn circuits() -> [Circuit; 2] {
    [
        Circuit {
            name: "helr",
            span: "ckks.helr_exec",
            instance: CkksInstance::toy(11, 12, 2),
            workload: Box::new(HelrWorkload::new(HelrConfig {
                iterations: 1,
                batch: 8,
                features: 4,
            })),
        },
        Circuit {
            name: "resnet",
            span: "ckks.resnet_exec",
            instance: CkksInstance::toy(10, 13, 2),
            workload: Box::new(ResNetWorkload::new(ResNetConfig {
                conv_layers: 2,
                rotations_per_conv: 4,
                relu_depth: 2,
                channel_packing: true,
            })),
        },
    ]
}

/// The bootstrap's context, keys and exhausted input.
pub struct BootInput {
    context: CkksContext,
    secret: SecretKey,
    keys: KeyBundle,
    bootstrapper: Bootstrapper,
    message: Vec<Complex>,
    exhausted: Ciphertext,
}

fn boot_input(seed: u64) -> Result<BootInput, String> {
    let e = |e: bts_ckks::CkksError| e.to_string();
    let mut rng = StdRng::seed_from_u64(seed);
    let context = CkksContext::new(1 << 7, 52, 1, 45, 40, 60).map_err(e)?;
    // A sparse secret keeps the ModRaise overflow inside the EvalMod range.
    let secret = context.gen_sparse_secret_key(&mut rng, 4);
    let mut keys = context.generate_bundle_for(&secret, &mut rng).map_err(e)?;
    keys.set_conjugation(context.gen_conjugation_key(&secret, &mut rng).map_err(e)?);
    let bootstrapper =
        Bootstrapper::new(&context, BootstrapConfig::functional_test()).map_err(e)?;
    for r in bootstrapper.required_rotations() {
        keys.insert_rotation(
            r,
            context.gen_rotation_key(&secret, r, &mut rng).map_err(e)?,
        );
    }
    let message: Vec<Complex> = (0..context.slots())
        .map(|i| Complex::new(0.25 * ((i as f64) * 0.37).cos(), 0.0))
        .collect();
    let pt = context.encode_at(&message, 0, context.scale()).map_err(e)?;
    let exhausted = context.encrypt(&pt, &secret, &mut rng).map_err(e)?;
    Ok(BootInput {
        context,
        secret,
        keys,
        bootstrapper,
        message,
        exhausted,
    })
}

/// Inputs of one pass.
pub struct State {
    runs: Vec<(FunctionalBackend, CompiledCircuit)>,
    boot: BootInput,
}

/// What one pass produced.
pub struct Output {
    runs: Vec<Result<FunctionalRun, String>>,
    boot: Result<Ciphertext, String>,
    /// The global collector's events of a traced pass, and how many it
    /// dropped.
    events: Vec<Event>,
    dropped: u64,
}

/// The ckks-functional workload.
pub struct CkksFunctional {
    seed: u64,
    circuits: [Circuit; 2],
    /// Tree-walking `FunctionalBackend::execute` outputs on the same seeds:
    /// what the compiled runs must reproduce bit for bit.
    reference: Vec<FunctionalRun>,
    /// Collector epoch on the tracer's clock, fixed by the first traced pass.
    offset_ns: Option<f64>,
    /// The first traced pass's collector events, for the trace file.
    events: Vec<Event>,
}

impl CkksFunctional {
    /// The workload with keys and encryption randomness from `seed`; runs
    /// the tree-walking reference once, outside any timed region.
    pub fn new(seed: u64) -> Result<Self, String> {
        let circuits = circuits();
        let mut reference = Vec::new();
        for (i, c) in circuits.iter().enumerate() {
            let circuit = c
                .workload
                .build(&c.instance)
                .map_err(|e| format!("{}: {e}", c.name))?;
            let run = FunctionalBackend::new(&c.instance, seed.wrapping_add(i as u64))
                .and_then(|mut b| b.execute(&circuit))
                .map_err(|e| format!("{} reference: {e}", c.name))?;
            reference.push(run);
        }
        Ok(Self {
            seed,
            circuits,
            reference,
            offset_ns: None,
            events: Vec::new(),
        })
    }
}

fn same_bits(a: &[Vec<Complex>], b: &[Vec<Complex>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                })
        })
}

impl Bench for CkksFunctional {
    type State = Result<State, String>;
    type Output = Output;

    fn setup(&mut self) -> Self::State {
        let mut runs = Vec::new();
        for (i, c) in self.circuits.iter().enumerate() {
            // Each pass compiles afresh, as a user would per program.
            let circuit = c.workload.build(&c.instance).map_err(|e| e.to_string())?;
            let compiled = compile(&circuit).map_err(|e| e.to_string())?;
            let backend = FunctionalBackend::new(&c.instance, self.seed.wrapping_add(i as u64))
                .map_err(|e| e.to_string())?;
            runs.push((backend, compiled));
        }
        Ok(State {
            runs,
            boot: boot_input(self.seed.wrapping_add(2))?,
        })
    }

    fn pass(&mut self, state: &mut Self::State, tracer: &mut Tracer) -> Output {
        let Ok(state) = state else {
            return Output {
                runs: Vec::new(),
                boot: Err("set-up failed".to_string()),
                events: Vec::new(),
                dropped: 0,
            };
        };
        if tracer.is_on() {
            bts_telemetry::reset();
            bts_telemetry::set_enabled(true);
            // The collector's clock starts at its first span.
            self.offset_ns.get_or_insert_with(|| {
                let offset = tracer.now_ns();
                drop(bts_telemetry::span("perfbench.epoch"));
                offset
            });
        }
        let mut runs = Vec::new();
        for ((backend, compiled), c) in state.runs.iter_mut().zip(&self.circuits) {
            tracer.next_group();
            runs.push(
                tracer
                    .span(c.span, |_| backend.execute_compiled(compiled))
                    .map_err(|e| e.to_string()),
            );
        }
        tracer.next_group();
        let b = &state.boot;
        let boot = tracer
            .span("ckks.bootstrap", |_| {
                b.bootstrapper
                    .bootstrap(&b.context.evaluator(&b.keys), &b.exhausted)
            })
            .map_err(|e| e.to_string());
        let (events, dropped) = if tracer.is_on() {
            bts_telemetry::set_enabled(false);
            (
                bts_telemetry::take_events(),
                bts_telemetry::dropped_events(),
            )
        } else {
            (Vec::new(), 0)
        };
        Output {
            runs,
            boot,
            events,
            dropped,
        }
    }

    fn check(&mut self, state: &Self::State, out: Output, spans: &[SpanRec]) -> Checked {
        let mut checked = Checked::default();
        if let Err(e) = state {
            checked.record("set-up", Err(e.clone()));
            return checked;
        }
        let mut ops = 0usize;
        for ((run, reference), c) in out.runs.iter().zip(&self.reference).zip(&self.circuits) {
            checked.record(
                c.name,
                run.as_ref().map_err(String::clone).and_then(|run| {
                    ops += run.op_counts.values().sum::<usize>();
                    if run.op_counts != reference.op_counts {
                        Err("op counts differ from the tree-walking run".to_string())
                    } else if !same_bits(&run.outputs, &reference.outputs) {
                        Err("decrypted slots differ from the tree-walking run".to_string())
                    } else {
                        Ok(())
                    }
                }),
            );
        }
        let b = &state.as_ref().expect("checked above").boot;
        let mut max_err = f64::NAN;
        checked.record(
            "bootstrap",
            out.boot.and_then(|refreshed| {
                let decrypted = b
                    .context
                    .decrypt(&refreshed, &b.secret)
                    .and_then(|pt| b.context.decode(&pt))
                    .map_err(|e| e.to_string())?;
                // A NaN slot poisons the maximum, so it fails the bound.
                max_err = b
                    .message
                    .iter()
                    .zip(&decrypted)
                    .map(|(m, d)| (m.re - d.re).abs())
                    .fold(0.0, |acc: f64, e| {
                        if acc.is_nan() || e.is_nan() {
                            f64::NAN
                        } else {
                            acc.max(e)
                        }
                    });
                if refreshed.level() < 2 {
                    Err(format!("refreshed to level {} only", refreshed.level()))
                } else if max_err < BOOTSTRAP_MAX_ERR {
                    Ok(())
                } else {
                    Err(format!(
                        "max slot error {max_err}, bound {BOOTSTRAP_MAX_ERR}"
                    ))
                }
            }),
        );
        if spans.is_empty() {
            return checked;
        }
        let offset = self.offset_ns.unwrap_or(0.0);
        let kernels = spans_from_events(&out.events, offset);
        let kernel_times = self_seconds_by_name(&kernels);
        let kernel = |name: &str| kernel_times.get(name).copied().unwrap_or(0.0);
        let times = self_seconds_by_name(spans);
        let time = |name: &str| times.get(name).copied().unwrap_or(0.0);
        for (name, value) in [
            ("ckks.helr_exec_s", time("ckks.helr_exec")),
            ("ckks.resnet_exec_s", time("ckks.resnet_exec")),
            ("ckks.bootstrap_s", time("ckks.bootstrap")),
            ("math.ntt_s", kernel("ntt.forward") + kernel("ntt.inverse")),
            ("math.bconv_s", kernel("bconv.convert_into")),
            ("ckks.key_switch_s", kernel("ckks.key_switch")),
            ("ckks.ops", ops as f64),
            (
                "ckks.key_switches",
                kernels
                    .iter()
                    .filter(|s| s.name == "ckks.key_switch")
                    .count() as f64,
            ),
            ("ckks.bootstrap_max_err", max_err),
            ("telemetry.dropped_events", out.dropped as f64),
        ] {
            checked.layers.insert(name.to_string(), value);
        }
        // The trace file keeps the kernel events of the first traced pass
        // only: about 90k a pass, too many to keep for every pass.
        if self.events.is_empty() {
            self.events = out
                .events
                .into_iter()
                .map(|mut e| {
                    e.ts_ns += offset;
                    e
                })
                .collect();
        }
        checked
    }

    fn extra_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}
