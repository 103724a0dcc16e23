//! Quick-scale smoke test of every workload's composition: the
//! benchmark's own set-up simulates exactly what `run_scda` /
//! `run_randtcp` simulate, tracing changes nothing, and the traced
//! run's layers reconcile to its wall clock.

use scda_e2e_bench::{
    check_traced, instance_seed, reference, Hook, Outcome, Setup, Tracer, Workload,
};
use scda_experiments::Scale;

#[test]
fn every_workload_matches_the_library_runner_traced_and_untraced() {
    for w in Workload::ALL {
        let seed = 7;
        let expected = Outcome::of(&reference(w, Scale::Quick, seed));
        assert!(expected.requested > 0, "{}: empty workload", w.name());

        let (untraced, _) = Setup::new(w, Scale::Quick, seed).run();
        assert_eq!(
            Outcome::of(&untraced),
            expected,
            "{}: benchmark composition differs from the library runner",
            w.name()
        );

        let tracer = Tracer::with_capacity(0);
        let (traced, run) = Setup::new(w, Scale::Quick, seed).run_traced(&tracer);
        assert_eq!(
            Outcome::of(&traced),
            expected,
            "{}: tracing changed the simulation",
            w.name()
        );

        let s = tracer
            .summary()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        check_traced(w, &s).unwrap_or_else(|e| panic!("{e}"));
        let busy: u64 = s.layers.iter().map(|l| l.busy_ns).sum();
        assert_eq!(busy + s.other_ns, s.run_ns, "{}", w.name());
        assert_eq!(s.run_ns, run.as_nanos() as u64, "{}", w.name());

        let admits = s.layer(Hook::Admit).calls;
        assert_eq!(admits as usize, expected.requested, "{}", w.name());
        let steps = s.layer(Hook::Tick).calls;
        assert!(steps > 0, "{}: no tick spans", w.name());
        if w.scda_options().is_some() {
            assert_eq!(s.layer(Hook::Place).calls, 0, "{}", w.name());
            assert_eq!(
                s.layer(Hook::Round).calls as usize,
                expected.control_rounds,
                "{}",
                w.name()
            );
        } else {
            assert_eq!(s.layer(Hook::Place).calls, admits, "{}", w.name());
            assert_eq!(s.layer(Hook::Round).calls, 0, "{}", w.name());
        }
    }
}

#[test]
fn instance_zero_replays_the_benchmark_seed() {
    assert_eq!(instance_seed(42, 0), 42);
    assert_ne!(instance_seed(42, 1), instance_seed(43, 0));
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert!(w.instances() >= 1);
    }
}
