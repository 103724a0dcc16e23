//! Policy-boundary tracing for the traced run.
//!
//! The kernel calls four policy trait objects; the decorators here wrap
//! each one, forward every call unchanged (including
//! `Placement::index_compatible`, which selects the admission path) and
//! record one span per hook call into a [`Tracer`]. Spans live in memory,
//! keyed by hook and `FlowId`, and are written out after the run.
//!
//! Nested hooks (`Placement::place` and `TransportPolicy::open` run inside
//! `ControlPolicy::admit`) record their parent, so every layer's busy time
//! is its *self* time and the layers partition the traced wall clock:
//! Σ busy + remainder = `SimKernel::run`. The one interval no hook
//! brackets — the `FlowDriver` tick — is recorded as the gap from the
//! last hook of a step to `Accounting::on_tick`.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::time::{Duration, Instant};

use scda_audit::Audit;
use scda_experiments::runner::{Admission, PendingStart, SpawnSpec};
use scda_experiments::{
    Accounting, ControlPolicy, Placement, PlacementCtx, RunResult, TransportPolicy,
};
use scda_metrics::FlowRecord;
use scda_obs::Obs;
use scda_simnet::{FlowId, NodeId};
use scda_transport::{AnyTransport, CompletedFlow, FlowDriver};
use scda_workloads::FlowSpec;

/// A policy hook, i.e. one layer of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// `ControlPolicy::prime`: first control round and index build.
    Prime,
    /// `ControlPolicy::admit` (self time: index query, route lookup,
    /// pricing).
    Admit,
    /// `Placement::place` (the oracle placement path).
    Place,
    /// `TransportPolicy::open`.
    Open,
    /// `ControlPolicy::on_open`.
    OnOpen,
    /// `ControlPolicy::round`: the per-τ control round.
    Round,
    /// `ControlPolicy::on_complete`.
    OnComplete,
    /// From the last hook of a step to `Accounting::on_tick`:
    /// `FlowDriver::tick` plus the simnet advance.
    Tick,
    /// `Accounting::on_tick` / `on_completion`.
    Accounting,
    /// `ControlPolicy::finish` / `Accounting::finish`.
    Finish,
}

impl Hook {
    /// Every hook, in report order.
    pub const ALL: [Hook; 10] = [
        Hook::Prime,
        Hook::Admit,
        Hook::Place,
        Hook::Open,
        Hook::OnOpen,
        Hook::Round,
        Hook::OnComplete,
        Hook::Tick,
        Hook::Accounting,
        Hook::Finish,
    ];

    /// The layer name, `<crate or module>.<hook>`.
    pub fn layer(self) -> &'static str {
        match self {
            Hook::Prime => "runner.prime",
            Hook::Admit => "runner.admit",
            Hook::Place => "runner.place",
            Hook::Open => "transport.open",
            Hook::OnOpen => "runner.on_open",
            Hook::Round => "runner.round",
            Hook::OnComplete => "runner.on_complete",
            Hook::Tick => "transport.tick",
            Hook::Accounting => "runner.accounting",
            Hook::Finish => "runner.finish",
        }
    }
}

/// `Span::flow` of a span that belongs to no flow.
const NO_FLOW: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One hook call, in nanoseconds since the traced run started.
#[derive(Debug, Clone, Copy)]
struct Span {
    hook: Hook,
    /// The flow the call was about ([`NO_FLOW`] for per-step hooks);
    /// nested calls inherit their parent's flow.
    flow: u64,
    start: u64,
    end: u64,
    /// Index of the enclosing span, if any.
    parent: u32,
}

/// In-memory span recorder shared by the four decorators.
pub struct Tracer {
    epoch: Cell<Option<Instant>>,
    run_ns: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    /// End of the last top-level hook, ns.
    last_end: Cell<u64>,
    ticks: Cell<u64>,
    active_sum: Cell<u64>,
    active_peak: Cell<usize>,
}

impl Tracer {
    /// An idle tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Cell::new(None),
            run_ns: Cell::new(0),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            open: RefCell::new(Vec::new()),
            last_end: Cell::new(0),
            ticks: Cell::new(0),
            active_sum: Cell::new(0),
            active_peak: Cell::new(0),
        }
    }

    /// Start the run clock.
    pub fn start(&self) {
        self.epoch.set(Some(Instant::now()));
    }

    /// Stop the run clock; returns the traced run's wall clock.
    pub fn stop(&self) -> Duration {
        let ns = self.now();
        self.run_ns.set(ns);
        Duration::from_nanos(ns)
    }

    fn now(&self) -> u64 {
        let epoch = self.epoch.get().expect("tracer started before the run");
        epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one call of `hook`. The clock is read after the span
    /// is pushed and before it is closed, so recording overhead lands in
    /// the unattributed remainder rather than in a layer.
    fn span<R>(&self, hook: Hook, flow: Option<FlowId>, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let parent = open.last().copied();
            let flow = flow
                .map(|f| f.0)
                .or_else(|| parent.map(|p| spans[p as usize].flow))
                .unwrap_or(NO_FLOW);
            let idx = spans.len();
            spans.push(Span {
                hook,
                flow,
                start: 0,
                end: 0,
                parent: parent.unwrap_or(NO_PARENT),
            });
            open.push(idx as u32);
            idx
        };
        let start = self.now();
        let r = f();
        let end = self.now();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start = start;
        spans[idx].end = end;
        let mut open = self.open.borrow_mut();
        open.pop();
        if open.is_empty() {
            self.last_end.set(end);
        }
        r
    }

    /// Close the step's tick interval (called on entry to
    /// `Accounting::on_tick`) and sample the active-flow population.
    fn tick(&self, active: usize) {
        let end = self.now();
        assert!(
            self.open.borrow().is_empty(),
            "Accounting::on_tick runs outside every other hook"
        );
        self.spans.borrow_mut().push(Span {
            hook: Hook::Tick,
            flow: NO_FLOW,
            start: self.last_end.get(),
            end,
            parent: NO_PARENT,
        });
        self.ticks.set(self.ticks.get() + 1);
        self.active_sum.set(self.active_sum.get() + active as u64);
        self.active_peak.set(self.active_peak.get().max(active));
    }

    /// Reduce the spans to per-layer statistics and check that they
    /// partition the run: no span leaves the run window or overlaps
    /// another top-level span, and no self time or remainder is
    /// negative. Σ busy + remainder then equals the traced wall clock.
    pub fn summary(&self) -> Result<TraceSummary, String> {
        let spans = self.spans.borrow();
        let run_ns = self.run_ns.get();
        let mut child = vec![0u64; spans.len()];
        let mut prev_end = 0u64;
        for s in spans.iter() {
            if s.end < s.start || s.end > run_ns {
                return Err(format!("{} span outside the run window", s.hook.layer()));
            }
            if s.parent == NO_PARENT {
                if s.start < prev_end {
                    return Err(format!("{} span overlaps its predecessor", s.hook.layer()));
                }
                prev_end = s.end;
            } else {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut self_ns: Vec<Vec<u64>> = vec![Vec::new(); Hook::ALL.len()];
        for (s, &c) in spans.iter().zip(&child) {
            let dur = s.end - s.start;
            if c > dur {
                return Err(format!("{} children outlast their parent", s.hook.layer()));
            }
            let slot = Hook::ALL
                .iter()
                .position(|&h| h == s.hook)
                .expect("hook listed");
            self_ns[slot].push(dur - c);
        }
        let layers: Vec<LayerStats> = Hook::ALL
            .iter()
            .zip(self_ns.iter_mut())
            .map(|(&hook, samples)| LayerStats::new(hook, samples))
            .collect();
        let busy_ns: u64 = layers.iter().map(|l| l.busy_ns).sum();
        let other_ns = run_ns as i64 - busy_ns as i64;
        if other_ns < 0 {
            return Err(format!(
                "layers do not reconcile: busy {busy_ns} ns exceeds run {run_ns} ns"
            ));
        }
        let ticks = self.ticks.get().max(1);
        Ok(TraceSummary {
            run_ns,
            layers,
            other_ns: other_ns as u64,
            active_mean: self.active_sum.get() as f64 / ticks as f64,
            active_peak: self.active_peak.get(),
        })
    }

    /// Write every span as `layer\tflow\tstart_ns\tend_ns` (flow `-` for
    /// per-step hooks).
    pub fn write_spans(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "layer\tflow\tstart_ns\tend_ns")?;
        for s in self.spans.borrow().iter() {
            if s.flow == NO_FLOW {
                writeln!(out, "{}\t-\t{}\t{}", s.hook.layer(), s.start, s.end)?;
            } else {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}",
                    s.hook.layer(),
                    s.flow,
                    s.start,
                    s.end
                )?;
            }
        }
        out.flush()
    }
}

/// One layer's calls and self-time distribution.
#[derive(Debug, Clone)]
pub struct LayerStats {
    /// The layer.
    pub hook: Hook,
    /// Calls (ticks for [`Hook::Tick`]).
    pub calls: u64,
    /// Σ self time, ns.
    pub busy_ns: u64,
    /// Median self time per call, ns (0 without calls).
    pub p50_ns: u64,
    /// 99th-percentile self time per call, ns (0 without calls).
    pub p99_ns: u64,
}

impl LayerStats {
    fn new(hook: Hook, samples: &mut [u64]) -> LayerStats {
        samples.sort_unstable();
        let rank = |q: f64| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let i = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[i - 1]
        };
        LayerStats {
            hook,
            calls: samples.len() as u64,
            busy_ns: samples.iter().sum(),
            p50_ns: rank(0.5),
            p99_ns: rank(0.99),
        }
    }
}

/// What a traced run's spans add up to.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Traced `SimKernel::run` wall clock, ns.
    pub run_ns: u64,
    /// One entry per [`Hook::ALL`] element, in that order.
    pub layers: Vec<LayerStats>,
    /// Run time no hook accounts for (kernel bookkeeping, `start_flow`,
    /// arrival maps, recording overhead), ns.
    pub other_ns: u64,
    /// Mean active flows per tick.
    pub active_mean: f64,
    /// Peak active flows at a tick.
    pub active_peak: usize,
}

impl TraceSummary {
    /// The statistics of one layer.
    pub fn layer(&self, hook: Hook) -> &LayerStats {
        self.layers
            .iter()
            .find(|l| l.hook == hook)
            .expect("every hook has a layer")
    }
}

/// Timing decorator for the control plane.
pub struct TracedControl<'a> {
    inner: &'a mut dyn ControlPolicy,
    t: &'a Tracer,
}

impl<'a> TracedControl<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn ControlPolicy, t: &'a Tracer) -> Self {
        TracedControl { inner, t }
    }
}

impl ControlPolicy for TracedControl<'_> {
    fn system(&self) -> &'static str {
        self.inner.system()
    }

    fn cadence(&self) -> Option<f64> {
        self.inner.cadence()
    }

    fn prime(&mut self, driver: &mut FlowDriver) {
        let inner = &mut *self.inner;
        self.t.span(Hook::Prime, None, || inner.prime(driver))
    }

    fn admit(
        &mut self,
        f: &FlowSpec,
        id: FlowId,
        now: f64,
        driver: &mut FlowDriver,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
    ) -> Admission {
        let inner = &mut *self.inner;
        self.t.span(Hook::Admit, Some(id), || {
            inner.admit(f, id, now, driver, placement, transport)
        })
    }

    fn on_open(&mut self, p: &PendingStart, driver: &mut FlowDriver) {
        let inner = &mut *self.inner;
        self.t
            .span(Hook::OnOpen, Some(p.id), || inner.on_open(p, driver))
    }

    fn round(&mut self, now: f64, driver: &mut FlowDriver) {
        let inner = &mut *self.inner;
        self.t.span(Hook::Round, None, || inner.round(now, driver))
    }

    fn on_complete(
        &mut self,
        c: &CompletedFlow,
        size: Option<f64>,
        driver: &mut FlowDriver,
    ) -> Option<SpawnSpec> {
        let inner = &mut *self.inner;
        self.t.span(Hook::OnComplete, Some(c.id), || {
            inner.on_complete(c, size, driver)
        })
    }

    fn finish(&mut self, result: &mut RunResult) {
        let inner = &mut *self.inner;
        self.t.span(Hook::Finish, None, || inner.finish(result))
    }
}

/// Timing decorator for server selection.
pub struct TracedPlacement<'a> {
    inner: &'a mut dyn Placement,
    t: &'a Tracer,
}

impl<'a> TracedPlacement<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Placement, t: &'a Tracer) -> Self {
        TracedPlacement { inner, t }
    }
}

impl Placement for TracedPlacement<'_> {
    fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)> {
        let inner = &mut *self.inner;
        self.t.span(Hook::Place, None, || inner.place(ctx))
    }

    fn index_compatible(&self) -> bool {
        self.inner.index_compatible()
    }
}

/// Timing decorator for the data plane.
pub struct TracedTransport<'a> {
    inner: &'a mut dyn TransportPolicy,
    t: &'a Tracer,
}

impl<'a> TracedTransport<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn TransportPolicy, t: &'a Tracer) -> Self {
        TracedTransport { inner, t }
    }
}

impl TransportPolicy for TracedTransport<'_> {
    fn open(&mut self, rate: f64, base_rtt: f64) -> AnyTransport {
        let inner = &mut *self.inner;
        self.t.span(Hook::Open, None, || inner.open(rate, base_rtt))
    }
}

/// Timing decorator for accounting; also closes each step's tick span.
pub struct TracedAccounting<'a> {
    inner: &'a mut dyn Accounting,
    t: &'a Tracer,
}

impl<'a> TracedAccounting<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Accounting, t: &'a Tracer) -> Self {
        TracedAccounting { inner, t }
    }
}

impl Accounting for TracedAccounting<'_> {
    fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    fn audit(&self) -> &Audit {
        self.inner.audit()
    }

    fn on_tick(&mut self, now: f64, delivered_bytes: f64, active: usize) {
        self.t.tick(active);
        let inner = &mut *self.inner;
        self.t.span(Hook::Accounting, None, || {
            inner.on_tick(now, delivered_bytes, active)
        })
    }

    fn on_completion(&mut self, rec: FlowRecord) {
        let inner = &mut *self.inner;
        self.t
            .span(Hook::Accounting, None, || inner.on_completion(rec))
    }

    fn finish(&mut self, result: &mut RunResult) {
        let inner = &mut *self.inner;
        self.t.span(Hook::Finish, None, || inner.finish(result))
    }
}
