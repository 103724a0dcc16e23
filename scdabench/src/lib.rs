//! End-to-end SCDA benchmark: paper-figure workloads replayed through
//! the real `SimKernel`, an outcome hash that proves a run simulated the
//! same thing as `run_scda` / `run_randtcp`, and a traced run whose
//! policy-boundary spans reconcile to the wall clock.

pub mod calibrate;
pub mod outcome;
pub mod trace;
pub mod workload;

pub use calibrate::calibrate;
pub use outcome::{Outcome, SimMetrics};
pub use trace::{Hook, Tracer};
pub use workload::{check_traced, instance_seed, reference, Setup, Workload};
