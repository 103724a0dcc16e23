//! The simulated outcome of a run: a hash over everything simulated, so
//! two runs can be proven identical, and the figures a user reads,
//! pooled over a workload's trace instances.

use scda_experiments::RunResult;
use scda_metrics::{FctStats, FlowRecord};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// What one run simulated: its hash and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// FNV-1a hash of the system, the completed count, every FCT record,
    /// the throughput series, violations, rounds and the control-plane
    /// counters.
    pub hash: u64,
    /// Flows the workload requested.
    pub requested: usize,
    /// External flows completed by the horizon.
    pub completed: usize,
    /// SLA violations the control plane detected.
    pub sla_violations: usize,
    /// Control rounds executed.
    pub control_rounds: usize,
    /// Reserve-bandwidth mitigations applied.
    pub mitigations_applied: usize,
    /// Internal replication writes completed.
    pub replications_completed: usize,
    /// Σ over rounds of node-directions whose allocation moved > 5 %.
    pub changed_dirs_total: usize,
}

impl Outcome {
    /// Reduce a run result.
    pub fn of(r: &RunResult) -> Outcome {
        let mut h = Fnv::new();
        for b in r.system.bytes() {
            h.word(u64::from(b));
        }
        for n in [
            r.requested,
            r.completed,
            r.sla_violations,
            r.control_rounds,
            r.mitigations_applied,
            r.replications_completed,
            r.changed_dirs_total,
        ] {
            h.word(n as u64);
        }
        for rec in r.fct.records() {
            h.f64(rec.size_bytes);
            h.f64(rec.start);
            h.f64(rec.finish);
        }
        for p in r.throughput.points() {
            h.f64(p.time);
            h.f64(p.aggregate);
            h.f64(p.active_flows);
        }
        Outcome {
            hash: h.0,
            requested: r.requested,
            completed: r.completed,
            sla_violations: r.sla_violations,
            control_rounds: r.control_rounds,
            mitigations_applied: r.mitigations_applied,
            replications_completed: r.replications_completed,
            changed_dirs_total: r.changed_dirs_total,
        }
    }

    /// The outcome as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"hash\":\"{:016x}\",\"requested\":{},\"completed\":{},\"sla_violations\":{},\
             \"control_rounds\":{},\"mitigations_applied\":{},\"replications_completed\":{},\
             \"changed_dirs_total\":{}",
            self.hash,
            self.requested,
            self.completed,
            self.sla_violations,
            self.control_rounds,
            self.mitigations_applied,
            self.replications_completed,
            self.changed_dirs_total,
        )
    }
}

/// The user-facing simulated figures, pooled over one or more runs: FCT
/// statistics over every completed external flow of every run, goodput
/// averaged over the runs.
#[derive(Debug, Default)]
pub struct SimMetrics {
    fct: FctStats,
    goodput_sum_mbps: f64,
    runs: usize,
}

impl SimMetrics {
    /// Add one run's flows and throughput.
    pub fn add(&mut self, r: &RunResult) {
        for &rec in r.fct.records() {
            self.fct.push(rec);
        }
        self.goodput_sum_mbps += r.throughput.mean_aggregate() * 8.0 / 1e6;
        self.runs += 1;
    }

    /// The pooled figures as JSON object members (no braces): mean,
    /// median, 99th-percentile and maximum FCT in simulated seconds, and
    /// mean delivered throughput in Mb/s.
    pub fn json_members(&self) -> String {
        let max = self
            .fct
            .records()
            .iter()
            .map(FlowRecord::fct)
            .fold(f64::NAN, f64::max);
        format!(
            "\"afct_s\":{},\"fct_p50_s\":{},\"fct_p99_s\":{},\"fct_max_s\":{},\"goodput_mbps\":{}",
            json_f64(self.fct.mean_fct().unwrap_or(f64::NAN)),
            json_f64(self.fct.quantile(0.5).unwrap_or(f64::NAN)),
            json_f64(self.fct.quantile(0.99).unwrap_or(f64::NAN)),
            json_f64(max),
            json_f64(self.goodput_sum_mbps / self.runs.max(1) as f64),
        )
    }
}

/// A JSON number for a finite `x`, `null` otherwise.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
