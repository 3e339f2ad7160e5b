//! Scheduled execution as a simulator entry point: `run_scheduled` runs the
//! engine once, schedules its per-op timings as a one-job [`MultiSchedule`],
//! and returns the familiar [`SimReport`] with the schedule-derived fields
//! filled in, next to the schedule for timeline/utilization inspection.

use bts_sim::{Eviction, HeOp, OpTrace, SimReport, Simulator, TraceError};

use crate::dag::TraceDag;
use crate::multi::{schedule_jobs, MultiSchedule};
use crate::resources::MachineModel;

/// One op on the critical path, for "what limits this workload" reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalOp {
    /// Index of the op in program order.
    pub index: usize,
    /// Operation kind.
    pub op: HeOp,
    /// Ciphertext level.
    pub level: usize,
    /// The op's latency window in seconds.
    pub seconds: f64,
}

/// Result of a scheduled run: the serial-accounting [`SimReport`] with
/// `scheduled_seconds` / `critical_path_seconds` filled in, plus the one-job
/// [`MultiSchedule`] (job tag 0, released at 0).
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    /// The simulator report; `total_seconds` is still the serial charge,
    /// `scheduled_seconds` the pipelined makespan.
    pub report: SimReport,
    /// Per-op placements (in program order) and per-unit busy intervals.
    pub schedule: MultiSchedule,
}

impl ScheduledRun {
    /// The `n` largest ops on one critical path of `trace` — the ops a
    /// latency optimization would have to attack first. The witness path is
    /// rebuilt here from the trace's [`TraceDag`] under the scheduled op
    /// windows, so scheduling itself never pays for it.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is not the trace this run scheduled.
    pub fn top_critical_ops(&self, trace: &OpTrace, n: usize) -> Vec<CriticalOp> {
        let ops = &self.schedule.ops;
        assert_eq!(ops.len(), trace.ops.len(), "run scheduled another trace");
        let windows: Vec<f64> = ops.iter().map(|o| o.duration_seconds()).collect();
        let mut top: Vec<CriticalOp> = TraceDag::from_trace(trace)
            .critical_path(&windows)
            .ops
            .into_iter()
            .map(|i| CriticalOp {
                index: i,
                op: ops[i].op,
                level: ops[i].level,
                seconds: windows[i],
            })
            .collect();
        top.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).expect("finite durations"));
        top.truncate(n);
        top
    }
}

/// Scheduled execution for [`Simulator`]: the `run_scheduled` entry point the
/// serial `run`/`try_run` pair grows once `bts-sched` is linked in.
pub trait ScheduleExt {
    /// Validates the trace, resolves per-op charges under `eviction`, and
    /// executes the trace as a dependency DAG over the bounded functional
    /// units of the configuration's [`MachineModel`]. The serial accounting
    /// and the schedule see the same cache behaviour.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found in the trace.
    fn try_run_scheduled(
        &self,
        trace: &OpTrace,
        eviction: Eviction<'_>,
    ) -> Result<ScheduledRun, TraceError>;

    /// Panicking LRU shorthand for [`ScheduleExt::try_run_scheduled`],
    /// mirroring [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if the trace fails [`OpTrace::validate`].
    fn run_scheduled(&self, trace: &OpTrace) -> ScheduledRun {
        match self.try_run_scheduled(trace, Eviction::Lru) {
            Ok(run) => run,
            Err(e) => panic!("invalid op trace: {e}"),
        }
    }
}

impl ScheduleExt for Simulator {
    fn try_run_scheduled(
        &self,
        trace: &OpTrace,
        eviction: Eviction<'_>,
    ) -> Result<ScheduledRun, TraceError> {
        let (timings, mut report) = self.try_run(trace, eviction)?;
        let machine = MachineModel::from_config(self.config());
        let schedule = schedule_jobs(machine, &[(0, trace, &timings, 0.0)]);
        report.scheduled_seconds = Some(schedule.makespan_seconds);
        report.critical_path_seconds = Some(schedule.jobs[0].critical_path_seconds);
        Ok(ScheduledRun { report, schedule })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuKind;
    use bts_params::CkksInstance;
    use bts_sim::{BtsConfig, EvictionHints, TraceBuilder};

    fn bsgs_like_trace(ins: &CkksInstance) -> OpTrace {
        // A baby-step/giant-step-shaped stage: independent rotations of one
        // ciphertext, each followed by a plaintext product and folded into an
        // accumulator — the overlap pattern of C2S/S2C and convolutions.
        let mut b = TraceBuilder::new(ins);
        let x = b.fresh_ct(27);
        let mut acc = b.pmult(x, 27);
        for r in 1..6 {
            let rot = b.hrot(x, r, 27);
            let prod = b.pmult(rot, 27);
            acc = b.hadd(acc, prod, 27);
        }
        b.hrescale_at(acc, 27);
        b.build()
    }

    #[test]
    fn run_scheduled_fills_the_report_fields() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let trace = bsgs_like_trace(&ins);
        let run = sim.run_scheduled(&trace);
        run.schedule.check_invariants().unwrap();
        let serial = sim.run(&trace);
        assert!((run.report.total_seconds - serial.total_seconds).abs() < 1e-15);
        let scheduled = run.report.scheduled_seconds.unwrap();
        assert!(scheduled <= serial.total_seconds);
        assert!(run.report.critical_path_seconds.unwrap() <= scheduled + 1e-15);
        assert!(run.report.parallel_speedup().unwrap() >= 1.0);
    }

    #[test]
    fn bsgs_stage_shows_real_overlap_when_bandwidth_allows() {
        let ins = CkksInstance::ins1();
        // At the paper's 1 TB/s design point the machine is evk-streaming
        // bound: the schedule matches serial almost exactly and HBM stays
        // saturated over the makespan.
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let run = sim.run_scheduled(&bsgs_like_trace(&ins));
        assert!(run.schedule.unit_utilization(FuKind::Hbm) > 0.9);
        // The Fig. 9 2 TB/s ablation makes compute matter, and the scheduler
        // overlaps it with the key streams of neighbouring rotations.
        let fast = Simulator::new(
            BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb()),
            ins.clone(),
        );
        let run2 = fast.run_scheduled(&bsgs_like_trace(&ins));
        run2.schedule.check_invariants().unwrap();
        assert!(
            run2.report.parallel_speedup().unwrap() > 1.05,
            "speedup = {:?}",
            run2.report.parallel_speedup()
        );
    }

    #[test]
    fn top_critical_ops_are_sorted_and_on_the_path() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let trace = bsgs_like_trace(&ins);
        let run = sim.run_scheduled(&trace);
        let top = run.top_critical_ops(&trace, 3);
        assert!(!top.is_empty() && top.len() <= 3);
        for pair in top.windows(2) {
            assert!(pair[0].seconds >= pair[1].seconds);
        }
        let windows: Vec<f64> = run
            .schedule
            .ops
            .iter()
            .map(|o| o.duration_seconds())
            .collect();
        let path = TraceDag::from_trace(&trace).critical_path(&windows).ops;
        for op in &top {
            assert!(path.contains(&op.index));
        }
        // The witness is a longest chain: its windows sum to the critical path.
        let length: f64 = path.iter().map(|&i| windows[i]).sum();
        let cp = run.schedule.jobs[0].critical_path_seconds;
        assert!((length - cp).abs() <= 1e-9 * cp);
        assert!(!run.schedule.timeline(8).is_empty());
    }

    #[test]
    fn hinted_scheduling_composes_with_eviction_hints() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(320 * 1024 * 1024),
            ins.clone(),
        );
        let trace = bsgs_like_trace(&ins);
        let hints = EvictionHints::from_trace(&trace);
        let hinted = sim
            .try_run_scheduled(&trace, Eviction::Hinted(&hints))
            .unwrap();
        let plain = sim.run_scheduled(&trace);
        hinted.schedule.check_invariants().unwrap();
        assert!(hinted.report.cache_hit_rate() >= plain.report.cache_hit_rate());
        assert!(
            hinted.report.scheduled_seconds.unwrap() <= plain.report.total_seconds,
            "hinted schedule cannot exceed the plain serial bound"
        );
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let mut trace = b.build();
        trace.ops[0].inputs.push(4242);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        assert!(sim.try_run_scheduled(&trace, Eviction::Lru).is_err());
    }
}
