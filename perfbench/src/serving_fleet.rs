//! `serving-fleet`: the operator's loop. One seeded open-loop arrival stream
//! (arrival times are simulated, fixed before serving starts) of INS-1 jobs
//! is served three ways per pass: on one chip with transient faults and a
//! retry budget, on a healthy 4-chip NVLink fleet, and on the same fleet
//! losing chip 1 halfway through the healthy makespan. The work lands in the
//! multi-DAG scheduler, the serve admission loop and the cluster failover
//! fixpoint; no circuit pass and no CKKS runs (serving lowers raw circuits).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hash::Hasher;

use bts_cluster::{
    ChipSpec, ClusterOptions, ClusterReport, ClusterServer, Interconnect, PlacementPolicy,
};
use bts_fault::{FaultPlan, RetryPolicy};
use bts_params::CkksInstance;
use bts_serve::{BtsServer, JobRequest, QueuePolicy, ServeOptions, ServeReport, SyntheticArrivals};
use bts_sim::ArchPreset;

use crate::tracer::{self_seconds_by_name, SpanRec, Tracer};
use crate::{Bench, Checked};

/// Jobs in the stream.
const JOBS: usize = 4000;
/// Tenants the jobs are spread across.
const TENANTS: u32 = 16;
/// Mean simulated gap between arrivals. An INS-1 bootstrap job takes
/// 15.1 ms simulated and an amortized-mult job 15.7 ms, so the 3:1 mix
/// averages 15.2 ms; with 2% of executions redriven after a transient fault,
/// this gap keeps one chip about 84% busy.
const MEAN_GAP_SECONDS: f64 = 18.5e-3;
/// Per-job deadline: arrival + this slack.
const DEADLINE_SLACK_SECONDS: f64 = 0.25;
/// Bound on each chip's waiting queue; overflow is shed at arrival.
const QUEUE_CAPACITY: usize = 8;
/// Jobs co-resident on one chip.
const MAX_IN_FLIGHT: usize = 2;
/// Transient-fault rate of the single-chip run, per (job, attempt).
const TRANSIENT_RATE: f64 = 0.02;
/// Chips in the fleet, and the one the wounded run loses.
const CHIPS: usize = 4;
const KILLED_CHIP: usize = 1;

/// Checks that every submitted job resolves exactly once across the
/// outcome lists.
pub fn check_accounting(submitted: &[u64], resolved: &[Vec<u64>]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for &id in resolved.iter().flatten() {
        if !seen.insert(id) {
            return Err(format!("job {id} is counted twice"));
        }
    }
    let want: BTreeSet<u64> = submitted.iter().copied().collect();
    if seen != want {
        let missing = want.difference(&seen).count();
        let extra = seen.difference(&want).count();
        return Err(format!(
            "{missing} submitted jobs unresolved, {extra} unknown jobs resolved"
        ));
    }
    Ok(())
}

fn serve_ids(r: &ServeReport) -> Vec<Vec<u64>> {
    vec![
        r.jobs.iter().map(|j| j.id).collect(),
        r.shed.iter().map(|j| j.id).collect(),
        r.interrupted.iter().map(|j| j.id).collect(),
    ]
}

fn cluster_ids(r: &ClusterReport) -> Vec<Vec<u64>> {
    vec![
        r.jobs.iter().map(|j| j.id).collect(),
        r.shed.iter().map(|j| j.id).collect(),
    ]
}

/// Feeds formatted text straight into a hasher, so digesting a report
/// allocates no copy of its text.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A digest of a report's full `Debug` text: every field, floats to the
/// last bit.
fn digest(report: &impl std::fmt::Debug) -> u64 {
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{report:?}").expect("hashing cannot fail");
    w.0.finish()
}

/// Inputs of one pass.
pub struct State {
    jobs: Vec<JobRequest>,
    ids: Vec<u64>,
    single: BtsServer,
    fleet: ClusterOptions,
    healthy: ClusterServer,
}

/// What one pass produced.
pub struct Output {
    single: Result<ServeReport, String>,
    healthy: Result<ClusterReport, String>,
    wounded: Result<ClusterReport, String>,
}

/// The serving-fleet workload.
pub struct ServingFleet {
    seed: u64,
    /// Digests of the first pass's three reports; every later pass on the
    /// same seed must reproduce them.
    first: Option<[u64; 3]>,
}

impl ServingFleet {
    /// The workload on the arrival and fault stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, first: None }
    }
}

impl Bench for ServingFleet {
    type State = State;
    type Output = Output;

    fn setup(&mut self) -> State {
        let jobs: Vec<JobRequest> = SyntheticArrivals::new(CkksInstance::ins1(), self.seed)
            .mean_interarrival_seconds(MEAN_GAP_SECONDS)
            .tenants(TENANTS)
            .mix(vec![
                ("bootstrap".to_string(), 3.0),
                ("amortized-mult".to_string(), 1.0),
            ])
            .generate(JOBS)
            .into_iter()
            .map(|j| {
                let deadline = j.arrival_seconds + DEADLINE_SLACK_SECONDS;
                j.with_deadline(deadline)
            })
            .collect();
        let single = BtsServer::new(
            ServeOptions::new(MAX_IN_FLIGHT)
                .with_policy(QueuePolicy::ShortestJobFirst)
                .with_queue_capacity(QUEUE_CAPACITY)
                .with_retry(RetryPolicy::default())
                .with_fault_plan(
                    FaultPlan::none()
                        .with_seed(self.seed)
                        .with_transient_rate(TRANSIENT_RATE),
                ),
        );
        let fleet = ClusterOptions::new(
            ChipSpec::preset(ArchPreset::Bts, CHIPS)
                .with_interconnect(Interconnect::nvlink_class()),
        )
        .with_placement(PlacementPolicy::TenantAffinity)
        .with_policy(QueuePolicy::ShortestJobFirst)
        .with_max_in_flight(MAX_IN_FLIGHT)
        .with_queue_capacity(QUEUE_CAPACITY);
        State {
            ids: jobs.iter().map(|j| j.id).collect(),
            jobs,
            single,
            healthy: ClusterServer::new(fleet.clone()),
            fleet,
        }
    }

    fn pass(&mut self, state: &mut State, tracer: &mut Tracer) -> Output {
        let jobs = &state.jobs;
        tracer.next_group();
        let single = tracer
            .span("serve.serve", |_| state.single.serve(jobs))
            .map_err(|e| e.to_string());
        tracer.next_group();
        let healthy = tracer
            .span("cluster.healthy", |_| state.healthy.serve(jobs))
            .map_err(|e| e.to_string());
        tracer.next_group();
        let wounded = match &healthy {
            Ok(h) => {
                let plan =
                    FaultPlan::none().with_chip_failure(KILLED_CHIP, h.makespan_seconds() * 0.5);
                let server = ClusterServer::new(state.fleet.clone().with_fault_plan(plan));
                tracer
                    .span("cluster.wounded", |_| server.serve(jobs))
                    .map_err(|e| e.to_string())
            }
            Err(_) => Err("no healthy makespan to fail a chip at".to_string()),
        };
        Output {
            single,
            healthy,
            wounded,
        }
    }

    fn check(&mut self, state: &State, out: Output, spans: &[SpanRec]) -> Checked {
        let mut checked = Checked::default();
        let digests = [
            out.single.as_ref().map(digest).unwrap_or(0),
            out.healthy.as_ref().map(digest).unwrap_or(0),
            out.wounded.as_ref().map(digest).unwrap_or(0),
        ];
        let first = *self.first.get_or_insert(digests);
        let same = |i: usize| {
            if digests[i] == first[i] {
                Ok(())
            } else {
                Err("report differs from the first pass on the same seed".to_string())
            }
        };
        checked.record(
            "single-chip serve",
            out.single
                .as_ref()
                .map_err(String::clone)
                .and_then(|r| check_accounting(&state.ids, &serve_ids(r)))
                .and_then(|()| same(0)),
        );
        for (i, (what, report)) in [
            ("healthy fleet", &out.healthy),
            ("wounded fleet", &out.wounded),
        ]
        .into_iter()
        .enumerate()
        {
            checked.record(
                what,
                report
                    .as_ref()
                    .map_err(String::clone)
                    .and_then(|r| check_accounting(&state.ids, &cluster_ids(r)))
                    .and_then(|()| same(i + 1)),
            );
        }
        let (Ok(single), Ok(healthy), Ok(wounded), false) =
            (&out.single, &out.healthy, &out.wounded, spans.is_empty())
        else {
            return checked;
        };
        let times = self_seconds_by_name(spans);
        let time = |name: &str| times.get(name).copied().unwrap_or(0.0);
        let ops_placed: usize = single
            .jobs
            .iter()
            .chain(healthy.chips.iter().flat_map(|c| &c.report.jobs))
            .chain(wounded.chips.iter().flat_map(|c| &c.report.jobs))
            .map(|j| j.ops)
            .sum();
        let serve_s = time("serve.serve");
        let (healthy_s, wounded_s) = (time("cluster.healthy"), time("cluster.wounded"));
        for (name, value) in [
            ("serve.serve_s", serve_s),
            (
                "serve.us_per_job",
                serve_s * 1e6 / single.submitted_count() as f64,
            ),
            ("serve.completed", single.job_count() as f64),
            ("serve.shed", single.shed_count() as f64),
            (
                "serve.deadline_missed",
                single.deadline_missed_count() as f64,
            ),
            ("fault.retries", single.retry_count() as f64),
            ("serve.slo_attainment", single.slo_attainment()),
            ("cluster.healthy_s", healthy_s),
            ("cluster.wounded_s", wounded_s),
            ("cluster.failover_cost_ratio", wounded_s / healthy_s),
            ("cluster.migrated", wounded.migration_count() as f64),
            (
                "cluster.interconnect_gib",
                wounded.interconnect_bytes() as f64 / (1u64 << 30) as f64,
            ),
            (
                "cluster.goodput_retained",
                wounded.goodput_jobs_per_sec() / healthy.goodput_jobs_per_sec(),
            ),
            ("sched.ops_placed", ops_placed as f64),
            (
                "sched.ns_per_placed_op",
                (serve_s + healthy_s + wounded_s) * 1e9 / ops_placed as f64,
            ),
        ] {
            checked.layers.insert(name.to_string(), value);
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accepts_an_exact_partition() {
        let submitted = [0, 1, 2, 3];
        assert!(check_accounting(&submitted, &[vec![0, 2], vec![3], vec![1]]).is_ok());
    }

    #[test]
    fn accounting_catches_a_planted_double_count() {
        // Job 2 is both completed and shed.
        let submitted = [0, 1, 2, 3];
        let err = check_accounting(&submitted, &[vec![0, 2], vec![2, 3], vec![1]]).unwrap_err();
        assert!(err.contains("job 2"), "{err}");
    }

    #[test]
    fn accounting_catches_a_lost_job() {
        let submitted = [0, 1, 2];
        assert!(check_accounting(&submitted, &[vec![0], vec![2]]).is_err());
    }
}
