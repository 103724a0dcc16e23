//! The benchmark's workloads and the system compositions that run them.
//!
//! Each workload is a paper scenario (an open-loop arrival trace in
//! simulated time, generated from the seed) plus the system that replays
//! it. [`Setup::new`] composes the run exactly as `run_scda` /
//! `run_randtcp` do — same constructors, same call order, same policy
//! objects — but times each set-up stage and hands the policies to
//! [`SimKernel::run`] itself, so a traced run can wrap them.

use std::time::{Duration, Instant};

use scda_core::SlaPolicy;
use scda_experiments::runner::{
    BestRatePlacement, ExplicitRateTransport, RandTcpControl, RandomPlacement, RunAccounting,
    ScdaControl, TcpTransport,
};
use scda_experiments::{
    run_randtcp, run_scda, ControlPolicy, Placement, RunResult, Scale, ScdaOptions, Scenario,
    SimKernel, TransportPolicy,
};
use scda_obs::Obs;
use scda_simnet::Network;

use crate::trace::{
    Hook, TraceSummary, TracedAccounting, TracedControl, TracedPlacement, TracedTransport, Tracer,
};

/// Arrival window kept from the fig-7 trace at `Scale::FullLarge`, in
/// simulated seconds. The full 100 s trace costs ~15 s of wall clock per
/// run on a 2-core x86-64 host; 20 s of arrivals keeps a run near 3 s.
pub const FULL100_ARRIVAL_WINDOW_S: f64 = 20.0;

/// Simulated time after the last kept arrival before the horizon, so
/// every requested flow completes (the full scenarios drain for 40 s).
pub const FULL100_DRAIN_S: f64 = 10.0;

/// Scenario-seed distance between a workload's trace instances, so the
/// instances of consecutive benchmark seeds never coincide.
pub const INSTANCE_SEED_STRIDE: u64 = 1_000_000;

/// Scenario seed of trace instance `k` of benchmark seed `seed`
/// (instance 0 replays `seed` itself).
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(INSTANCE_SEED_STRIDE))
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7: video traces with control flows, SCDA defaults, 163×10.
    Fig7VideoFull,
    /// Figs. 13-14 datacenter traces at K = 1 under SCDA with write
    /// replication and the §IV-C mitigation ladder, 163×10.
    DcK1WritesFull,
    /// Figs. 17-18 Pareto/Poisson traces under the RandTCP baseline.
    RandtcpParetoFull,
    /// Fig. 7 at the paper's n = 100 (163×100), first
    /// [`FULL100_ARRIVAL_WINDOW_S`] seconds of arrivals.
    Fig7VideoFull100,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7VideoFull,
        Workload::DcK1WritesFull,
        Workload::RandtcpParetoFull,
        Workload::Fig7VideoFull100,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7VideoFull => "fig7_video_full",
            Workload::DcK1WritesFull => "dc_k1_writes_full",
            Workload::RandtcpParetoFull => "randtcp_pareto_full",
            Workload::Fig7VideoFull100 => "fig7_video_full100",
        }
    }

    /// Look a workload up by [`name`](Workload::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent trace instances (scenario seeds) the simulated
    /// figures pool over: enough flows that the FCT tail varies little
    /// from one benchmark seed to the next.
    pub fn instances(self) -> u64 {
        match self {
            Workload::Fig7VideoFull => 4,
            Workload::DcK1WritesFull | Workload::RandtcpParetoFull => 1,
            Workload::Fig7VideoFull100 => 4,
        }
    }

    /// The scale the benchmark runs the workload at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::Fig7VideoFull100 => Scale::FullLarge,
            _ => Scale::Full,
        }
    }

    /// Generate the workload's scenario at `scale` from `seed`.
    pub fn scenario(self, scale: Scale, seed: u64) -> Scenario {
        match self {
            Workload::Fig7VideoFull => Scenario::video(scale, true, seed),
            Workload::DcK1WritesFull => Scenario::datacenter(scale, 1.0, seed),
            Workload::RandtcpParetoFull => Scenario::synthetic(scale, seed),
            Workload::Fig7VideoFull100 => {
                let mut sc = Scenario::video(scale, true, seed);
                if scale == Scale::FullLarge {
                    sc.workload
                        .flows
                        .retain(|f| f.arrival < FULL100_ARRIVAL_WINDOW_S);
                    sc.duration = FULL100_ARRIVAL_WINDOW_S + FULL100_DRAIN_S;
                }
                sc
            }
        }
    }

    /// SCDA options for SCDA workloads; `None` runs the RandTCP baseline.
    pub fn scda_options(self) -> Option<ScdaOptions> {
        match self {
            Workload::Fig7VideoFull | Workload::Fig7VideoFull100 => Some(ScdaOptions::default()),
            Workload::DcK1WritesFull => Some(ScdaOptions {
                replicate_writes: true,
                mitigation: Some(SlaPolicy::default()),
                ..Default::default()
            }),
            Workload::RandtcpParetoFull => None,
        }
    }
}

/// Wall clock of the set-up stages, in the order they run.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Scenario constructor (workload generation).
    pub generate: Duration,
    /// `ThreeTierConfig::build` plus `Network::new` (routes) and
    /// `SimKernel::new`.
    pub build: Duration,
    /// Control-plane construction (`ScdaControl::new` /
    /// `RandTcpControl::new`) plus the stock policy objects.
    pub control_new: Duration,
}

impl SetupTimes {
    /// All set-up stages together.
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.control_new
    }
}

/// The policy objects `SimKernel::run` takes, in its argument order.
type Policies = (
    Box<dyn ControlPolicy>,
    Box<dyn Placement>,
    Box<dyn TransportPolicy>,
    RunAccounting,
);

/// A composed run, ready for [`Setup::run`].
pub struct Setup {
    /// The replayed scenario.
    pub sc: Scenario,
    /// Set-up wall clock.
    pub times: SetupTimes,
    kernel: SimKernel,
    ctrl: Box<dyn ControlPolicy>,
    placement: Box<dyn Placement>,
    transport: Box<dyn TransportPolicy>,
    acct: RunAccounting,
}

impl Setup {
    /// Generate `w`'s scenario at `scale` from `seed` and compose its
    /// system the way `run_scda` / `run_randtcp` do.
    pub fn new(w: Workload, scale: Scale, seed: u64) -> Setup {
        let t = Instant::now();
        let sc = w.scenario(scale, seed);
        let generate = t.elapsed();

        let t = Instant::now();
        let tree = sc.topo.build();
        let mut build = t.elapsed();

        let t = Instant::now();
        let (ctrl, placement, transport, acct): Policies = match w.scda_options() {
            Some(opts) => (
                Box::new(ScdaControl::new(&sc, &opts, &tree)),
                Box::new(BestRatePlacement),
                Box::new(ExplicitRateTransport),
                RunAccounting::with_audit(sc.throughput_interval, opts.obs, opts.audit),
            ),
            None => (
                Box::new(RandTcpControl::new(&tree)),
                Box::new(RandomPlacement::new(sc.seed ^ 0x7a3d_5eed)),
                Box::new(TcpTransport::default()),
                RunAccounting::new(sc.throughput_interval, Obs::disabled()),
            ),
        };
        let control_new = t.elapsed();

        let t = Instant::now();
        let kernel = SimKernel::new(Network::new(tree.topo));
        build += t.elapsed();

        Setup {
            sc,
            times: SetupTimes {
                generate,
                build,
                control_new,
            },
            kernel,
            ctrl,
            placement,
            transport,
            acct,
        }
    }

    /// Replay the scenario untraced; returns the result and the wall
    /// clock of `SimKernel::run` (which includes the control plane's
    /// `prime`).
    pub fn run(mut self) -> (RunResult, Duration) {
        let t = Instant::now();
        let r = self.kernel.run(
            &self.sc,
            self.ctrl.as_mut(),
            self.placement.as_mut(),
            self.transport.as_mut(),
            &mut self.acct,
        );
        (r, t.elapsed())
    }

    /// Replay the scenario with every policy object wrapped in a timing
    /// decorator that records spans into `tracer`. Returns the result
    /// and the wall clock of `SimKernel::run`, measured on the tracer's
    /// clock so the spans partition it.
    pub fn run_traced(mut self, tracer: &Tracer) -> (RunResult, Duration) {
        let mut ctrl = TracedControl::new(self.ctrl.as_mut(), tracer);
        let mut placement = TracedPlacement::new(self.placement.as_mut(), tracer);
        let mut transport = TracedTransport::new(self.transport.as_mut(), tracer);
        let mut acct = TracedAccounting::new(&mut self.acct, tracer);
        tracer.start();
        let r = self.kernel.run(
            &self.sc,
            &mut ctrl,
            &mut placement,
            &mut transport,
            &mut acct,
        );
        (r, tracer.stop())
    }
}

/// Run the workload through the library entry point users call
/// (`run_scda` / `run_randtcp`), for the outcome check.
pub fn reference(w: Workload, scale: Scale, seed: u64) -> RunResult {
    let sc = w.scenario(scale, seed);
    match w.scda_options() {
        Some(opts) => run_scda(&sc, &opts),
        None => run_randtcp(&sc),
    }
}

/// Check that a traced run took the program's normal code path: on SCDA
/// workloads admission answers from the placement index, so the oracle
/// `Placement::place` is never called.
pub fn check_traced(w: Workload, s: &TraceSummary) -> Result<(), String> {
    let place_calls = s.layer(Hook::Place).calls;
    if w.scda_options().is_some() && place_calls != 0 {
        return Err(format!(
            "{}: admission took the oracle placement path ({place_calls} place calls)",
            w.name()
        ));
    }
    Ok(())
}
