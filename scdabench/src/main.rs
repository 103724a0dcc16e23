//! One step of the end-to-end SCDA benchmark.
//!
//! ```text
//! scda-e2e-bench reference --workload W --seed N [--instances C]
//! scda-e2e-bench run       --workload W --seed N [--instance K]
//! scda-e2e-bench trace     --workload W --seed N [--instance K] [--spans FILE]
//! ```
//!
//! A workload replays one or more trace instances per benchmark seed
//! (`Workload::instances`). `reference` replays the first C instances
//! (default: all) through `run_scda` / `run_randtcp` and prints each
//! instance's outcome hash plus the simulated figures pooled over them.
//! `run` sets instance K up [`SETUPS`] times (timing each set-up,
//! keeping the last) and replays it untraced, timing the calibration
//! kernel before the set-ups, before the replay and after it; `trace`
//! replays it with every policy hook wrapped in a timing decorator. Each
//! prints one JSON line; `run.py` in this directory spawns the steps and
//! aggregates them.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Duration;

use scda_e2e_bench::outcome::json_f64;
use scda_e2e_bench::{
    calibrate, check_traced, instance_seed, reference, Outcome, Setup, SimMetrics, Tracer,
    Workload,
};

/// Set-ups per `run` step. Set-up takes milliseconds, so one step yields
/// enough samples for a steady median of `setup_s`.
const SETUPS: usize = 30;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    instance: u64,
    instances: u64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    if !matches!(mode.as_str(), "run" | "trace" | "reference") {
        return Err(format!("unknown mode {mode}"));
    }
    let mut workload = None;
    let mut seed = None;
    let mut instance = 0;
    let mut instances = None;
    let mut spans = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--instance" => instance = value.parse().map_err(|_| bad())?,
            "--instances" => instances = Some(value.parse().map_err(|_| bad())?),
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let instances = instances.unwrap_or(workload.instances());
    if instance >= workload.instances() || instances == 0 || instances > workload.instances() {
        return Err(format!(
            "{} has {} trace instances",
            workload.name(),
            workload.instances()
        ));
    }
    Ok(Args {
        mode,
        workload,
        seed: seed.ok_or("missing --seed")?,
        instance,
        instances,
        spans,
    })
}

fn secs(d: Duration) -> String {
    json_f64(d.as_secs_f64())
}

fn list(xs: impl Iterator<Item = String>) -> String {
    format!("[{}]", xs.collect::<Vec<_>>().join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scale = w.scale();
    match args.mode.as_str() {
        "reference" => {
            let mut pooled = SimMetrics::default();
            let mut instances = Vec::new();
            for k in 0..args.instances {
                let seed = instance_seed(args.seed, k);
                let r = reference(w, scale, seed);
                pooled.add(&r);
                instances.push(format!(
                    "{{\"seed\":{seed},{}}}",
                    Outcome::of(&r).json_members()
                ));
            }
            println!(
                "{{\"instances\":{},{}}}",
                list(instances.into_iter()),
                pooled.json_members()
            );
        }
        "run" => {
            let seed = instance_seed(args.seed, args.instance);
            // The first call pays the process's cold start; it is not kept.
            calibrate();
            let (cal_before, sum) = calibrate();
            let mut setup = Setup::new(w, scale, seed);
            let mut times = vec![setup.times];
            for _ in 1..SETUPS {
                // Drop the previous set-up first so only one is resident.
                drop(setup);
                setup = Setup::new(w, scale, seed);
                times.push(setup.times);
            }
            let (cal_between, _) = calibrate();
            let (result, run) = setup.run();
            let (cal_after, _) = calibrate();
            println!(
                "{{\"setup_s\":{},\"generate_s\":{},\"build_s\":{},\"control_new_s\":{},\
                 \"run_s\":{},\"cal_s\":[{},{},{}],\"cal_sum\":\"{sum:016x}\",{}}}",
                list(times.iter().map(|t| secs(t.total()))),
                list(times.iter().map(|t| secs(t.generate))),
                list(times.iter().map(|t| secs(t.build))),
                list(times.iter().map(|t| secs(t.control_new))),
                secs(run),
                secs(cal_before),
                secs(cal_between),
                secs(cal_after),
                Outcome::of(&result).json_members()
            );
        }
        _ => {
            let setup = Setup::new(w, scale, instance_seed(args.seed, args.instance));
            let steps = (setup.sc.duration / setup.sc.dt).ceil() as usize;
            let tracer = Tracer::with_capacity(6 * setup.sc.workload.len() + 3 * steps);
            let (result, run) = setup.run_traced(&tracer);
            let summary = match tracer.summary() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: traced run does not reconcile: {e}");
                    return ExitCode::from(3);
                }
            };
            if let Err(e) = check_traced(w, &summary) {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
            if let Some(path) = &args.spans {
                let written =
                    File::create(path).and_then(|f| tracer.write_spans(&mut BufWriter::new(f)));
                if let Err(e) = written {
                    eprintln!("error: cannot write spans to {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            let layers: Vec<String> = summary
                .layers
                .iter()
                .map(|l| {
                    format!(
                        "\"{}\":{{\"calls\":{},\"busy_s\":{},\"p50_us\":{},\"p99_us\":{}}}",
                        l.hook.layer(),
                        l.calls,
                        json_f64(l.busy_ns as f64 * 1e-9),
                        json_f64(l.p50_ns as f64 * 1e-3),
                        json_f64(l.p99_ns as f64 * 1e-3),
                    )
                })
                .collect();
            println!(
                "{{\"run_s\":{},\"layers\":{{{}}},\"other_s\":{},\"active_mean\":{},\
                 \"active_peak\":{},{}}}",
                secs(run),
                layers.join(","),
                json_f64(summary.other_ns as f64 * 1e-9),
                json_f64(summary.active_mean),
                summary.active_peak,
                Outcome::of(&result).json_members()
            );
        }
    }
    ExitCode::SUCCESS
}
