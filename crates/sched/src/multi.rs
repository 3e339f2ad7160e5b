//! The scheduler: list-schedules a *set* of tagged job DAGs onto one shared
//! machine, so ops from different jobs interleave on the
//! NTTU/BConvU/element-wise/HBM channels the way a multi-tenant accelerator
//! keeps its pipelines busy. A single trace is the one-job case
//! ([`crate::ScheduleExt::run_scheduled`]).
//!
//! # Model
//!
//! Every job is an [`bts_sim::OpTrace`] with per-op charges
//! ([`bts_sim::OpTiming`]) and its own dependency DAG ([`TraceDag`]), plus a
//! *release time* before which none of its ops may start (the serving layer
//! sets it to the job's admission time). Bootstrap-region barriers are
//! **per-job**: a job's refresh pipeline serializes only that job's ops —
//! other tenants keep streaming through the idle units, which is exactly the
//! amortized-throughput story of the paper's evaluation.
//!
//! Each op occupies a latency *window* of exactly its serial engine charge
//! `d = max(compute, hbm)`. Within the window the op reserves each unit class
//! it touches for that class's busy time; the reservation may *float*: it
//! starts at `max(op_start, channel_horizon)` as long as it still ends inside
//! the window. An op can therefore start while a predecessor on some unit is
//! still draining, as long as its own share of that unit fits in what remains
//! of its window — that is how rescales and element-wise tails slide under
//! the evaluation-key streams of neighbouring key-switches (Fig. 8).
//!
//! Placement is greedy and deterministic: among the *next* unplaced op of
//! every active job (per-job program order), the scheduler places the op with
//! the earliest feasible start (dependencies, per-job barrier, release time,
//! channel reservations); ties go to the job admitted first.
//!
//! # Guarantees
//!
//! * Per-job program order of placement and all data/barrier dependencies are
//!   respected.
//! * No channel ever holds two overlapping reservations.
//! * `makespan ≤ max(release) + Σ durations` (each placement extends the
//!   horizon by at most its own duration beyond its release), and
//!   `makespan ≥ max_j (release_j + critical_path_j)` (the DAG lower bound of
//!   every job still applies). For one job released at 0 this pins the
//!   schedule to `critical_path ≤ makespan ≤ serial`.
//!
//! [`MultiScheduler`] is incremental: jobs can be admitted *while earlier
//! jobs are mid-flight* ([`MultiScheduler::add_job`]), and
//! [`MultiScheduler::run_until_completion`] advances placement just far
//! enough to learn the next job completion time — the hook the `bts-serve`
//! admission loop is built on.

use bts_sim::{HeOp, OpTiming, OpTrace, TimelineSegment};

use crate::dag::TraceDag;
use crate::resources::{FuKind, MachineModel, OpDemand};

/// One op's placement in a multi-job schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiScheduledOp {
    /// Tag of the job the op belongs to.
    pub job: u32,
    /// Index of the op in its job's program order.
    pub index: usize,
    /// Operation kind.
    pub op: HeOp,
    /// Ciphertext level the op executes at.
    pub level: usize,
    /// Whether the op belongs to its job's bootstrapping region.
    pub in_bootstrap: bool,
    /// Start time in seconds from the start of the schedule.
    pub start_seconds: f64,
    /// End time in seconds.
    pub end_seconds: f64,
}

impl MultiScheduledOp {
    /// The op's latency window in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// An exclusive reservation of one channel by one placed op of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBusyInterval {
    /// Index into [`MultiSchedule::ops`] (placement order).
    pub placement: usize,
    /// Which channel of the unit class is held.
    pub channel: usize,
    /// Reservation start in seconds.
    pub start_seconds: f64,
    /// Reservation end in seconds.
    pub end_seconds: f64,
}

/// Aggregate figures of one job inside a multi-job schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// The job's tag.
    pub tag: u32,
    /// Earliest time any of the job's ops may start.
    pub release_seconds: f64,
    /// Start of the job's first op (= `release_seconds` for empty jobs).
    pub first_start_seconds: f64,
    /// End of the job's last-finishing op (= `release_seconds` for empty
    /// jobs) — the job's completion time.
    pub finish_seconds: f64,
    /// Sum of the job's op durations (its serial engine charge).
    pub serial_seconds: f64,
    /// The job's own critical path (data edges + its barriers), seconds.
    pub critical_path_seconds: f64,
    /// Number of ops in the job.
    pub ops: usize,
    /// Number of ops actually placed (`== ops` unless the job was
    /// cancelled mid-flight).
    pub placed_ops: usize,
    /// Whether the job was cancelled via [`MultiScheduler::cancel_job`]
    /// before completing. Cancelled jobs keep the machine time their placed
    /// ops already consumed — the chip did the work before it died — but
    /// never complete.
    pub cancelled: bool,
}

impl JobStats {
    /// Time the job spent on the machine (`finish − release`).
    pub fn service_seconds(&self) -> f64 {
        self.finish_seconds - self.release_seconds
    }
}

/// A completed job, as reported by [`MultiScheduler::run_until_completion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCompletion {
    /// The completed job's tag.
    pub tag: u32,
    /// The job's completion time in seconds.
    pub finish_seconds: f64,
}

/// A complete schedule of a set of tagged jobs over one shared machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSchedule {
    /// Every placed op, in placement order (the order the greedy scheduler
    /// committed them; per-job subsequences are in program order).
    pub ops: Vec<MultiScheduledOp>,
    /// Per-unit-class busy intervals, in placement order.
    pub busy: [Vec<MultiBusyInterval>; FuKind::COUNT],
    /// Per-job aggregates, in admission order.
    pub jobs: Vec<JobStats>,
    /// Completion time of the last job (0 for an empty schedule).
    pub makespan_seconds: f64,
    /// The machine the schedule was built for.
    pub machine: MachineModel,
}

impl MultiSchedule {
    /// Stats of the job with the given tag.
    pub fn job(&self, tag: u32) -> Option<&JobStats> {
        self.jobs.iter().find(|j| j.tag == tag)
    }

    /// Sum of every job's serial charge — what one-at-a-time execution
    /// starting at time 0 would take.
    pub fn serial_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.serial_seconds).sum()
    }

    /// Busy fraction of one unit class over the makespan, computed from the
    /// actual reservation intervals.
    pub fn unit_utilization(&self, kind: FuKind) -> f64 {
        if self.makespan_seconds <= 0.0 {
            return 0.0;
        }
        let reserved: f64 = self.busy[kind.index()]
            .iter()
            .map(|b| b.end_seconds - b.start_seconds)
            .sum();
        reserved / (self.machine.channels(kind) as f64 * self.makespan_seconds)
    }

    /// Utilization of all unit classes, indexed by [`FuKind::index`].
    pub fn utilizations(&self) -> [f64; FuKind::COUNT] {
        let mut out = [0.0; FuKind::COUNT];
        for kind in FuKind::ALL {
            out[kind.index()] = self.unit_utilization(kind);
        }
        out
    }

    /// Fig. 8-style timeline of the first `limit` reservations per unit
    /// class, with job-tagged labels (`J2#14 HMult@L23`), ready for the same
    /// rendering as [`bts_sim::hmult_timeline`].
    pub fn timeline(&self, limit: usize) -> Vec<TimelineSegment> {
        let mut segments = Vec::new();
        for kind in FuKind::ALL {
            for b in self.busy[kind.index()].iter().take(limit) {
                let op = &self.ops[b.placement];
                segments.push(TimelineSegment {
                    unit: kind.label(),
                    label: format!("J{}#{} {:?}@L{}", op.job, op.index, op.op, op.level),
                    start_ns: b.start_seconds * 1e9,
                    end_ns: b.end_seconds * 1e9,
                });
            }
        }
        segments
    }

    /// Checks every structural invariant the multi-job scheduler guarantees:
    ///
    /// 1. each job's ops were placed in program order, starting no earlier
    ///    than the job's release time (all of them for completed jobs,
    ///    exactly `placed_ops` for cancelled ones),
    /// 2. every op window is well-formed and inside `[0, makespan]`,
    /// 3. every reservation lies inside its op's window on a valid channel,
    /// 4. no channel holds two overlapping reservations,
    /// 5. `max_j (release_j + critical_path_j) ≤ makespan ≤
    ///    max(release) + Σ serial` (up to float rounding; the lower bound
    ///    applies only to jobs that ran to completion),
    /// 6. every job's recorded finish is the max end over its ops.
    ///
    /// (Data-edge and barrier respect are checked against the traces by the
    /// property suite, which still holds the [`TraceDag`]s.)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let serial_sum = self.serial_seconds();
        let eps = 1e-9 * serial_sum.max(1e-12);
        let mut next_index: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        let mut max_end: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for op in &self.ops {
            let job = self
                .job(op.job)
                .ok_or_else(|| format!("op {op:?} references unknown job {}", op.job))?;
            let expected = next_index.entry(op.job).or_insert(0);
            if op.index != *expected {
                return Err(format!(
                    "job {} placed op #{} out of program order (expected #{})",
                    op.job, op.index, expected
                ));
            }
            *expected += 1;
            if op.start_seconds < job.release_seconds - eps {
                return Err(format!(
                    "job {} op #{} starts at {} before its release {}",
                    op.job, op.index, op.start_seconds, job.release_seconds
                ));
            }
            if !(op.start_seconds <= op.end_seconds
                && op.end_seconds <= self.makespan_seconds + eps)
            {
                return Err(format!("op window is malformed: {op:?}"));
            }
            let e = max_end.entry(op.job).or_insert(0.0);
            *e = e.max(op.end_seconds);
        }
        for job in &self.jobs {
            let placed = next_index.get(&job.tag).copied().unwrap_or(0);
            if placed != job.placed_ops {
                return Err(format!(
                    "job {} records {} placed ops but {} were placed",
                    job.tag, job.placed_ops, placed
                ));
            }
            if !job.cancelled && placed != job.ops {
                return Err(format!(
                    "job {} has {} ops but {} were placed",
                    job.tag, job.ops, placed
                ));
            }
            let finish = max_end
                .get(&job.tag)
                .copied()
                .unwrap_or(job.release_seconds);
            if (finish - job.finish_seconds).abs() > eps {
                return Err(format!(
                    "job {} finish {} disagrees with its ops' max end {}",
                    job.tag, job.finish_seconds, finish
                ));
            }
            // A cancelled job never ran its full DAG, so its critical path
            // no longer lower-bounds the makespan.
            let lower = if job.cancelled {
                job.release_seconds
            } else {
                job.release_seconds + job.critical_path_seconds
            };
            if lower > self.makespan_seconds + eps {
                return Err(format!(
                    "job {} release + critical path {} exceeds makespan {}",
                    job.tag, lower, self.makespan_seconds
                ));
            }
        }
        let max_release = self
            .jobs
            .iter()
            .map(|j| j.release_seconds)
            .fold(0.0f64, f64::max);
        if self.makespan_seconds > max_release + serial_sum + eps {
            return Err(format!(
                "makespan {} exceeds max release {} + serial sum {}",
                self.makespan_seconds, max_release, serial_sum
            ));
        }
        for kind in FuKind::ALL {
            let intervals = &self.busy[kind.index()];
            for b in intervals {
                let op = self
                    .ops
                    .get(b.placement)
                    .ok_or_else(|| format!("{} reservation {b:?} dangles", kind.label()))?;
                if b.start_seconds < op.start_seconds - eps || b.end_seconds > op.end_seconds + eps
                {
                    return Err(format!(
                        "{} reservation {b:?} escapes op window [{}, {}]",
                        kind.label(),
                        op.start_seconds,
                        op.end_seconds
                    ));
                }
                if b.channel >= self.machine.channels(kind) {
                    return Err(format!(
                        "{} reservation {b:?} uses non-existent channel",
                        kind.label()
                    ));
                }
            }
            for channel in 0..self.machine.channels(kind) {
                let mut on_channel: Vec<&MultiBusyInterval> =
                    intervals.iter().filter(|b| b.channel == channel).collect();
                on_channel.sort_by(|a, b| {
                    a.start_seconds
                        .partial_cmp(&b.start_seconds)
                        .expect("finite")
                });
                for pair in on_channel.windows(2) {
                    if pair[1].start_seconds < pair[0].end_seconds - eps {
                        return Err(format!(
                            "{} channel {channel} double-booked: {:?} overlaps {:?}",
                            kind.label(),
                            pair[0],
                            pair[1]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-job scheduling state.
#[derive(Debug, Clone)]
struct JobState {
    tag: u32,
    release: f64,
    /// Number of ops in the job.
    len: usize,
    /// Next unplaced op (program-order cursor).
    next: usize,
    /// Per-op inputs, released once the last op is placed or the job is
    /// cancelled.
    per_op: Option<PerOpState>,
    /// Barrier bookkeeping: max finish over all ops of earlier segments,
    /// maintained as a running max snapshotted at segment boundaries.
    barrier: f64,
    running_max_finish: f64,
    max_end: f64,
    first_start: Option<f64>,
    serial: f64,
    critical_path: f64,
    cancelled: bool,
}

/// What a job needs per op until its last op is placed.
#[derive(Debug, Clone)]
struct PerOpState {
    ops: Vec<(HeOp, u32, bool)>, // (op, level, in_bootstrap)
    demands: Vec<OpDemand>,
    dag: TraceDag,
    /// Finish time of each placed op.
    finish: Vec<f64>,
}

/// Incremental list scheduler for a set of tagged job DAGs over one shared
/// [`MachineModel`]: per-job program order, data edges, bootstrap barriers
/// and release times are respected while all jobs compete for the same
/// channels, with
/// `max_j (release_j + critical_path_j) ≤ makespan ≤ max(release) + Σ serial`
/// guaranteed structurally (see the module-level docs above).
#[derive(Debug, Clone)]
pub struct MultiScheduler {
    machine: MachineModel,
    horizons: [Vec<f64>; FuKind::COUNT],
    busy: [Vec<MultiBusyInterval>; FuKind::COUNT],
    ops: Vec<MultiScheduledOp>,
    jobs: Vec<JobState>,
    /// Indices into `jobs` with unplaced ops, in admission order.
    active: Vec<usize>,
    /// Completions of empty jobs, reported on the next
    /// [`MultiScheduler::run_until_completion`] call.
    pending: std::collections::VecDeque<JobCompletion>,
    makespan: f64,
}

impl MultiScheduler {
    /// A scheduler packing jobs onto the given machine.
    pub fn new(machine: MachineModel) -> Self {
        Self {
            machine,
            horizons: std::array::from_fn(|k| vec![0.0; machine.channels(FuKind::ALL[k])]),
            busy: std::array::from_fn(|_| Vec::new()),
            ops: Vec::new(),
            jobs: Vec::new(),
            active: Vec::new(),
            pending: std::collections::VecDeque::new(),
            makespan: 0.0,
        }
    }

    /// The machine jobs are packed onto.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Admits a job: its ops become candidates for placement, none starting
    /// before `release_seconds`. The trace's dependency DAG is built here;
    /// per-op charges come from the caller (resolve them with
    /// [`bts_sim::Simulator::try_run`] against the job's own instance).
    ///
    /// # Panics
    ///
    /// Panics if `timings` does not cover exactly the trace's ops, if
    /// `release_seconds` is negative or non-finite, or if `tag` was already
    /// admitted.
    pub fn add_job(
        &mut self,
        tag: u32,
        trace: &OpTrace,
        timings: &[OpTiming],
        release_seconds: f64,
    ) {
        assert_eq!(timings.len(), trace.ops.len(), "one timing per op");
        assert!(
            release_seconds.is_finite() && release_seconds >= 0.0,
            "release time must be finite and non-negative"
        );
        assert!(
            self.jobs.iter().all(|j| j.tag != tag),
            "job tag {tag} admitted twice"
        );
        let dag = TraceDag::from_trace(trace);
        let demands: Vec<OpDemand> = timings.iter().map(|t| self.machine.demand(t)).collect();
        let durations: Vec<f64> = demands.iter().map(|d| d.duration).collect();
        let critical_path = dag.critical_path(&durations).seconds;
        let serial: f64 = durations.iter().sum();
        let len = trace.ops.len();
        self.ops.reserve(len);
        for (k, busy) in self.busy.iter_mut().enumerate() {
            busy.reserve(demands.iter().filter(|d| d.busy[k] > 0.0).count());
        }
        let empty = len == 0;
        self.jobs.push(JobState {
            tag,
            release: release_seconds,
            len,
            next: 0,
            per_op: (!empty).then(|| PerOpState {
                ops: trace
                    .ops
                    .iter()
                    .map(|o| (o.op, o.level as u32, o.in_bootstrap))
                    .collect(),
                demands,
                dag,
                finish: vec![0.0; len],
            }),
            barrier: 0.0,
            running_max_finish: 0.0,
            max_end: release_seconds,
            first_start: None,
            serial,
            critical_path,
            cancelled: false,
        });
        if empty {
            self.pending.push_back(JobCompletion {
                tag,
                finish_seconds: release_seconds,
            });
            self.makespan = self.makespan.max(release_seconds);
        } else {
            self.active.push(self.jobs.len() - 1);
        }
    }

    /// Number of admitted jobs that still have unplaced ops.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Cancels a job mid-flight: its remaining ops will never be placed and
    /// its completion will never be reported. Ops already placed keep their
    /// channel reservations — the machine did that work before the
    /// cancellation (a dying chip does not refund the cycles it burned).
    ///
    /// Returns `true` if the job was still in flight (unplaced ops remaining,
    /// or fully placed with its completion not yet reported); `false` if the
    /// tag is unknown, already cancelled, or its completion was already
    /// handed out by [`MultiScheduler::run_until_completion`].
    pub fn cancel_job(&mut self, tag: u32) -> bool {
        let Some(j) = self.jobs.iter().position(|job| job.tag == tag) else {
            return false;
        };
        if self.jobs[j].cancelled {
            return false;
        }
        if let Some(pos) = self.active.iter().position(|&a| a == j) {
            self.active.remove(pos);
            self.jobs[j].cancelled = true;
            self.jobs[j].per_op = None;
            return true;
        }
        if let Some(pos) = self.pending.iter().position(|c| c.tag == tag) {
            self.pending.remove(pos);
            self.jobs[j].cancelled = true;
            return true;
        }
        false
    }

    /// Places ops greedily until the next job completion is known, and
    /// reports it. Completions come back in *finish-time* order, not
    /// placement order: a job whose last op happens to be placed early but
    /// end late is held back while any still-active job could finish sooner
    /// (an op's earliest start lower-bounds every later end, so placement
    /// continues until no active job can beat the earliest pending finish).
    /// Returns `None` once every admitted job has completed.
    pub fn run_until_completion(&mut self) -> Option<JobCompletion> {
        loop {
            let min_finish = self
                .pending
                .iter()
                .map(|c| c.finish_seconds)
                .fold(f64::INFINITY, f64::min);
            if min_finish.is_finite() {
                let could_beat = self
                    .active
                    .iter()
                    .any(|&j| self.earliest_start(&self.jobs[j]) < min_finish);
                if !could_beat {
                    let pos = self
                        .pending
                        .iter()
                        .position(|c| c.finish_seconds == min_finish)
                        .expect("min over non-empty pending");
                    return self.pending.remove(pos);
                }
            } else if self.active.is_empty() {
                return None;
            }
            self.place_best();
        }
    }

    /// Places every remaining op.
    pub fn run_to_end(&mut self) {
        while !self.active.is_empty() {
            self.place_best();
        }
        self.pending.clear();
    }

    /// Drains remaining ops and builds the final [`MultiSchedule`].
    pub fn finish(mut self) -> MultiSchedule {
        self.run_to_end();
        MultiSchedule {
            ops: self.ops,
            busy: self.busy,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobStats {
                    tag: j.tag,
                    release_seconds: j.release,
                    first_start_seconds: j.first_start.unwrap_or(j.release),
                    finish_seconds: j.max_end,
                    serial_seconds: j.serial,
                    critical_path_seconds: j.critical_path,
                    ops: j.len,
                    placed_ops: j.next,
                    cancelled: j.cancelled,
                })
                .collect(),
            makespan_seconds: self.makespan,
            machine: self.machine,
        }
    }

    /// Earliest feasible start of a job's next op under the current horizons.
    fn earliest_start(&self, job: &JobState) -> f64 {
        let i = job.next;
        let per_op = job.per_op.as_ref().expect("active job keeps its ops");
        let demand = &per_op.demands[i];
        let barrier = if i > 0 && per_op.dag.segment(i) != per_op.dag.segment(i - 1) {
            job.running_max_finish
        } else {
            job.barrier
        };
        let mut ready = job.release.max(barrier);
        for &d in per_op.dag.deps(i) {
            ready = ready.max(per_op.finish[d as usize]);
        }
        // Earliest start honouring every unit: the chosen channel frees at
        // h, and the op's reservation of b seconds must end within the window
        // [s, s + d], so s ≥ h + b − d.
        let mut start = ready;
        for kind in FuKind::ALL {
            let k = kind.index();
            if demand.busy[k] <= 0.0 {
                continue;
            }
            let (_, h) = min_horizon(&self.horizons[k]);
            start = start.max(h + demand.busy[k] - demand.duration);
        }
        start
    }

    /// Places the active op with the earliest feasible start (ties go to the
    /// job admitted first), committing its channel reservations.
    fn place_best(&mut self) {
        debug_assert!(!self.active.is_empty());
        let mut best: Option<(f64, usize)> = None; // (start, position in self.active)
        for (pos, &j) in self.active.iter().enumerate() {
            let start = self.earliest_start(&self.jobs[j]);
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, pos));
            }
        }
        let (start, pos) = best.expect("non-empty active set");
        let j = self.active[pos];
        let job = &mut self.jobs[j];
        let i = job.next;
        let per_op = job.per_op.as_mut().expect("active job keeps its ops");
        let demand = per_op.demands[i];
        if i > 0 && per_op.dag.segment(i) != per_op.dag.segment(i - 1) {
            job.barrier = job.running_max_finish;
        }
        let end = start + demand.duration;
        let (op, level, in_bootstrap) = per_op.ops[i];
        per_op.finish[i] = end;
        job.running_max_finish = job.running_max_finish.max(end);
        job.max_end = job.max_end.max(end);
        if job.first_start.is_none() {
            job.first_start = Some(start);
        }
        job.next += 1;
        let completed = job.next == job.len;
        if completed {
            job.per_op = None;
        }
        let completion = JobCompletion {
            tag: job.tag,
            finish_seconds: job.max_end,
        };
        let placement = self.ops.len();
        self.ops.push(MultiScheduledOp {
            job: completion.tag,
            index: i,
            op,
            level: level as usize,
            in_bootstrap,
            start_seconds: start,
            end_seconds: end,
        });
        let telemetry_on = bts_telemetry::enabled();
        for kind in FuKind::ALL {
            let k = kind.index();
            if demand.busy[k] <= 0.0 {
                continue;
            }
            let (channel, h) = min_horizon(&self.horizons[k]);
            let res_start = start.max(h);
            let res_end = res_start + demand.busy[k];
            self.horizons[k][channel] = res_end;
            self.busy[k].push(MultiBusyInterval {
                placement,
                channel,
                start_seconds: res_start,
                end_seconds: res_end,
            });
            if telemetry_on {
                use bts_telemetry::ArgValue;
                // The start/end args carry the exact reservation floats so
                // utilization derived from the event stream sums the same
                // values in the same order as `unit_utilization`.
                bts_telemetry::emit_complete(
                    &format!("{}.{}", kind.label(), channel),
                    &format!("J{}#{} {:?}@L{}", completion.tag, i, op, level),
                    res_start,
                    res_end - res_start,
                    &[
                        ("job", ArgValue::U64(u64::from(completion.tag))),
                        ("op_index", ArgValue::U64(i as u64)),
                        ("level", ArgValue::U64(u64::from(level))),
                        ("channel", ArgValue::U64(channel as u64)),
                        ("start_s", ArgValue::F64(res_start)),
                        ("end_s", ArgValue::F64(res_end)),
                    ],
                );
            }
        }
        self.makespan = self.makespan.max(end);
        if completed {
            self.active.remove(pos);
            self.pending.push_back(completion);
            if telemetry_on {
                use bts_telemetry::ArgValue;
                let job = &self.jobs[j];
                bts_telemetry::emit_instant(
                    "sched",
                    "job-complete",
                    job.max_end,
                    &[
                        ("job", ArgValue::U64(u64::from(job.tag))),
                        ("critical_path_s", ArgValue::F64(job.critical_path)),
                        ("serial_s", ArgValue::F64(job.serial)),
                    ],
                );
            }
        }
    }
}

/// Index and value of the smallest horizon (first wins ties, so the choice
/// is deterministic).
fn min_horizon(horizons: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    for (i, &h) in horizons.iter().enumerate() {
        if h < horizons[best] {
            best = i;
        }
    }
    (best, horizons[best])
}

/// One-shot convenience: admits every `(tag, trace, timings, release)` job up
/// front and schedules all of them to completion.
///
/// # Panics
///
/// Panics on the same conditions as [`MultiScheduler::add_job`].
pub fn schedule_jobs(
    machine: MachineModel,
    jobs: &[(u32, &OpTrace, &[OpTiming], f64)],
) -> MultiSchedule {
    let mut scheduler = MultiScheduler::new(machine);
    for &(tag, trace, timings, release) in jobs {
        scheduler.add_job(tag, trace, timings, release);
    }
    scheduler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::{BtsConfig, Eviction, Simulator, TraceBuilder};

    fn keyswitch_heavy(ins: &CkksInstance, mults: usize) -> OpTrace {
        let mut b = TraceBuilder::new(ins);
        let x = b.fresh_ct(ins.max_level());
        let mut cur = x;
        for _ in 0..mults {
            cur = b.hmult_at(cur, cur, ins.max_level());
        }
        b.build()
    }

    fn timings_of(sim: &Simulator, trace: &OpTrace) -> Vec<OpTiming> {
        sim.try_run(trace, Eviction::Lru).unwrap().0
    }

    fn machine_and_timings(
        ins: &CkksInstance,
        config: BtsConfig,
        trace: &OpTrace,
    ) -> (MachineModel, Vec<OpTiming>) {
        let sim = Simulator::new(config, ins.clone());
        let timings = timings_of(&sim, trace);
        (MachineModel::from_config(sim.config()), timings)
    }

    /// A trace scheduled alone, released at 0.
    fn one_job(trace: &OpTrace) -> MultiSchedule {
        let (machine, timings) =
            machine_and_timings(&trace.instance, BtsConfig::bts_default(), trace);
        let s = schedule_jobs(machine, &[(0, trace, &timings, 0.0)]);
        s.check_invariants().unwrap();
        s
    }

    fn speedup(s: &MultiSchedule) -> f64 {
        s.serial_seconds() / s.makespan_seconds
    }

    #[test]
    fn dependent_chain_degenerates_to_serial() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let mut cur = b.hmult(x, x);
        for _ in 0..4 {
            cur = b.hmult_at(cur, cur, 27);
        }
        let s = one_job(&b.build());
        let (serial, cp) = (s.serial_seconds(), s.jobs[0].critical_path_seconds);
        // A pure key-switch chain is HBM-bound back to back: no overlap.
        assert!((s.makespan_seconds - serial).abs() < 1e-12 * serial);
        assert!((cp - serial).abs() < 1e-12 * serial);
        assert!((speedup(&s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_mixed_ops_overlap() {
        // Rescales and additions on ciphertexts unrelated to a string of
        // HMults: their compute hides under the HMults' evk streaming.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        for _ in 0..4 {
            b.hmult_at(x, x, 27);
            b.hrescale_at(y, 27);
            b.hadd(y, y, 27);
        }
        let s = one_job(&b.build());
        assert!(speedup(&s) > 1.1, "speedup = {}", speedup(&s));
        assert!(s.makespan_seconds >= s.jobs[0].critical_path_seconds);
    }

    #[test]
    fn schedules_are_deterministic() {
        let ins = CkksInstance::ins2();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(39);
        let r = b.hrot(x, 5, 39);
        let m = b.hmult_at(r, x, 39);
        b.hrescale_at(m, 39);
        b.hadd(r, m, 39);
        let trace = b.build();
        assert_eq!(one_job(&trace), one_job(&trace));
    }

    #[test]
    fn reservations_float_inside_the_window() {
        // op0: HMult (NTTU busy ~76% of window, HBM full). op1: rescale of
        // op0's output — its NTTU reservation must wait for op0's NTTU to
        // drain only, not for a whole extra window.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let m = b.hmult(x, x);
        b.hrescale_at(m, 27);
        let s = one_job(&b.build());
        // Dependent: rescale starts exactly when the HMult finishes.
        assert!((s.ops[1].start_seconds - s.ops[0].end_seconds).abs() < 1e-15);
    }

    #[test]
    fn two_jobs_interleave_and_beat_back_to_back_when_compute_matters() {
        // At 2 TB/s an HMult chain leaves NTTU/BConvU slack; a second job's
        // key-switches stream their evks while the first job computes, so the
        // merged makespan beats running the jobs back to back.
        let ins = CkksInstance::ins1();
        let config = BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb());
        let trace = keyswitch_heavy(&ins, 6);
        let (machine, timings) = machine_and_timings(&ins, config, &trace);
        let multi = schedule_jobs(
            machine,
            &[(0, &trace, &timings, 0.0), (1, &trace, &timings, 0.0)],
        );
        multi.check_invariants().unwrap();
        let serial_sum = multi.serial_seconds();
        assert!(
            multi.makespan_seconds < serial_sum * 0.98,
            "no co-scheduling overlap: makespan {} vs serial {}",
            multi.makespan_seconds,
            serial_sum
        );
        // Both jobs' stats are recorded and consistent.
        for tag in [0, 1] {
            let j = multi.job(tag).unwrap();
            assert!(j.finish_seconds <= multi.makespan_seconds + 1e-15);
            assert!(j.critical_path_seconds <= j.serial_seconds + 1e-15);
        }
    }

    #[test]
    fn release_times_hold_ops_back() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 2);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let release = 1.0;
        let multi = schedule_jobs(
            machine,
            &[(0, &trace, &timings, 0.0), (1, &trace, &timings, release)],
        );
        multi.check_invariants().unwrap();
        for op in multi.ops.iter().filter(|o| o.job == 1) {
            assert!(op.start_seconds >= release - 1e-15);
        }
        assert!(
            multi.job(1).unwrap().finish_seconds
                >= release + multi.job(1).unwrap().critical_path_seconds - 1e-12
        );
    }

    #[test]
    fn barriers_stay_per_job() {
        // One job alone: its barrier serializes two data-independent ops.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        b.hrescale_at(x, 27); // segment 0
        b.set_bootstrap_region(true);
        b.hrescale_at(y, 27); // segment 1, independent data-wise
        let s = one_job(&b.build());
        assert!(s.ops[1].start_seconds >= s.ops[0].end_seconds - 1e-18);

        // Job 0: a chain of cheap element-wise ops — only the first pays an
        // HBM miss, the rest are forwarded compute. Job 1: two HMults
        // separated by a bootstrap barrier. The barrier serializes job 1's
        // ops only; job 0's chain keeps flowing through the element-wise
        // unit while job 1 sits at its own barrier.
        let mut b0 = TraceBuilder::new(&ins);
        let z = b0.fresh_ct(27);
        let mut cur = b0.cmult(z, 27);
        for _ in 0..5 {
            cur = b0.cmult(cur, 27);
        }
        let t0 = b0.build();

        let mut b1 = TraceBuilder::new(&ins);
        let x = b1.fresh_ct(27);
        b1.hmult_at(x, x, 27);
        b1.set_bootstrap_region(true);
        let y = b1.fresh_ct(27);
        b1.hmult_at(y, y, 27);
        let t1 = b1.build();

        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let machine = MachineModel::from_config(sim.config());
        let tm0 = timings_of(&sim, &t0);
        let tm1 = timings_of(&sim, &t1);
        let multi = schedule_jobs(machine, &[(0, &t0, &tm0, 0.0), (1, &t1, &tm1, 0.0)]);
        multi.check_invariants().unwrap();
        // Job 1's post-barrier HMult waits for its own first op…
        let j1: Vec<_> = multi.ops.iter().filter(|o| o.job == 1).collect();
        assert!(j1[1].start_seconds >= j1[0].end_seconds - 1e-15);
        // …but job 0's chain is untouched by job 1's barrier: its last op
        // starts (and finishes) well before job 1's second HMult begins.
        let j0_last = multi.ops.iter().rev().find(|o| o.job == 0).unwrap();
        assert!(
            j0_last.end_seconds < j1[1].start_seconds,
            "job 0 chain (ends {}) was serialized behind job 1's barrier (starts {})",
            j0_last.end_seconds,
            j1[1].start_seconds
        );
    }

    #[test]
    fn empty_jobs_complete_at_their_release() {
        let ins = CkksInstance::ins1();
        let empty = TraceBuilder::new(&ins).build();
        let mut scheduler = MultiScheduler::new(MachineModel::default());
        scheduler.add_job(7, &empty, &[], 0.25);
        assert_eq!(scheduler.active_jobs(), 0);
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 7);
        assert!((done.finish_seconds - 0.25).abs() < 1e-15);
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        assert_eq!(multi.jobs.len(), 1);
        assert!((multi.makespan_seconds - 0.25).abs() < 1e-15);
    }

    #[test]
    fn incremental_admission_reports_completions_in_order() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 3);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let timings = timings_of(&sim, &trace);
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &trace, &timings, 0.0);
        let first = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 0);
        // Admit the next job only after the first completed, as a serving
        // loop with max_in_flight = 1 would.
        scheduler.add_job(1, &trace, &timings, first.finish_seconds);
        let second = scheduler.run_until_completion().unwrap();
        assert_eq!(second.tag, 1);
        assert!(second.finish_seconds >= first.finish_seconds);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        // Back-to-back admission degenerates to serial execution.
        assert!(
            (multi.makespan_seconds - multi.serial_seconds()).abs() < 1e-9 * multi.serial_seconds()
        );
    }

    #[test]
    fn completions_come_back_in_finish_order_not_placement_order() {
        // Job 0: one long HMult, fully placed first (admission-order tie
        // win). Job 1: one tiny low-level CMult on a second HBM channel,
        // placed later but finishing two orders of magnitude earlier. The
        // scheduler must report job 1's completion first.
        let ins = CkksInstance::ins1();
        let mut b0 = TraceBuilder::new(&ins);
        let x = b0.fresh_ct(27);
        b0.hmult_at(x, x, 27);
        let t0 = b0.build();
        let mut b1 = TraceBuilder::new(&ins);
        let y = b1.fresh_ct(0);
        b1.cmult(y, 0);
        let t1 = b1.build();

        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm0 = timings_of(&sim, &t0);
        let tm1 = timings_of(&sim, &t1);
        let machine = MachineModel::from_config(sim.config()).with_channels(FuKind::Hbm, 2);
        let mut scheduler = MultiScheduler::new(machine);
        scheduler.add_job(0, &t0, &tm0, 0.0);
        scheduler.add_job(1, &t1, &tm1, 0.0);
        let first = scheduler.run_until_completion().unwrap();
        let second = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 1, "short job must complete first");
        assert_eq!(second.tag, 0);
        assert!(first.finish_seconds < second.finish_seconds);
        assert_eq!(scheduler.run_until_completion(), None);
        scheduler.finish().check_invariants().unwrap();
    }

    #[test]
    fn cancelled_jobs_never_complete_and_invariants_still_hold() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 6);
        let short = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm_long = timings_of(&sim, &long);
        let tm_short = timings_of(&sim, &short);
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &long, &tm_long, 0.0);
        scheduler.add_job(1, &short, &tm_short, 0.0);
        // Cancel the long job before any placement: only the short one runs.
        assert!(scheduler.cancel_job(0));
        assert!(!scheduler.cancel_job(0), "double cancel must be a no-op");
        assert!(!scheduler.cancel_job(99), "unknown tag must be a no-op");
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 1);
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        let j0 = multi.job(0).unwrap();
        assert!(j0.cancelled);
        assert_eq!(j0.placed_ops, 0);
        assert_eq!(j0.finish_seconds, 0.0); // never started: finish = release
        let j1 = multi.job(1).unwrap();
        assert!(!j1.cancelled);
        assert_eq!(j1.placed_ops, j1.ops);
    }

    #[test]
    fn cancelling_a_partially_placed_job_keeps_its_burned_time() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 6);
        let short = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm_long = timings_of(&sim, &long);
        let tm_short = timings_of(&sim, &short);
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &long, &tm_long, 0.0);
        scheduler.add_job(1, &short, &tm_short, 0.0);
        // Drive until the short job completes; the long one is mid-flight.
        let first = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 1);
        assert!(
            scheduler.cancel_job(0),
            "mid-flight job must be cancellable"
        );
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        let j0 = multi.job(0).unwrap();
        assert!(j0.cancelled);
        assert!(j0.placed_ops < j0.ops, "cancel must stop further placement");
        // Whatever was placed stays on the books.
        let placed = multi.ops.iter().filter(|o| o.job == 0).count();
        assert_eq!(placed, j0.placed_ops);
    }

    #[test]
    fn cancelling_a_reported_completion_is_refused() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let timings = timings_of(&sim, &trace);
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &trace, &timings, 0.0);
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 0);
        assert!(
            !scheduler.cancel_job(0),
            "a completion already handed out cannot be revoked"
        );
        scheduler.finish().check_invariants().unwrap();
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let timings = timings_of(&sim, &trace);
        let result = std::panic::catch_unwind(|| {
            let mut s = MultiScheduler::new(MachineModel::from_config(sim.config()));
            s.add_job(3, &trace, &timings, 0.0);
            s.add_job(3, &trace, &timings, 0.0);
        });
        assert!(result.is_err());
    }
}
