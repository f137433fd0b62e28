//! The benchmark's inputs are a function of the seed alone, and the
//! load generator stays within the host's parallelism.

use perfbench::corpus::Corpus;
use perfbench::plan::{available_parallelism, Plan, Workload};
use perfbench::report::{END_TO_END, PER_LAYER};
use std::collections::HashSet;

const SECONDS: f64 = 20.0;

#[test]
fn same_seed_gives_identical_corpus_specs_and_schedules() {
    for w in Workload::ALL {
        let a = Plan::new(w, 42, SECONDS);
        let b = Plan::new(w, 42, SECONDS);
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(a.schedule_hash(), b.schedule_hash(), "{}", w.name());
        assert_eq!(a.corpus_spec_hash(), b.corpus_spec_hash(), "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_corpus_specs_and_schedules() {
    for w in Workload::ALL {
        let a = Plan::new(w, 42, SECONDS);
        let b = Plan::new(w, 43, SECONDS);
        assert_ne!(a.schedule_hash(), b.schedule_hash(), "{}", w.name());
        assert_ne!(a.corpus_spec_hash(), b.corpus_spec_hash(), "{}", w.name());
    }
}

#[test]
fn encoded_corpus_hash_follows_the_seed() {
    let hash = |seed| {
        Corpus::build(&Plan::new(Workload::HotNet, seed, SECONDS))
            .expect("corpus builds")
            .hash()
    };
    assert_eq!(hash(7), hash(7));
    assert_ne!(hash(7), hash(8));
}

#[test]
fn generator_stays_within_available_parallelism() {
    let nproc = available_parallelism();
    for w in Workload::ALL {
        let p = Plan::new(w, 1, SECONDS);
        assert!(
            p.threads >= 1 && p.threads <= nproc,
            "{}: {} threads",
            w.name(),
            p.threads
        );
        assert!(
            p.connections <= nproc,
            "{}: {} connections",
            w.name(),
            p.connections
        );
        assert!(
            p.connections <= p.threads,
            "{}: one thread per connection",
            w.name()
        );
    }
}

#[test]
fn cold_net_cycle_repeats_no_entry_before_all_others() {
    let p = Plan::new(Workload::ColdNet, 5, SECONDS);
    let distinct: HashSet<_> = p.cycle.iter().collect();
    assert_eq!(distinct.len(), p.cycle.len());
    assert!(p.warmup.iter().all(|w| !distinct.contains(w)));
}

#[test]
fn open_loop_phases_follow_the_ladder() {
    let p = Plan::new(Workload::ZipfService, 9, SECONDS);
    let rates: Vec<f64> = p.phases.iter().map(|ph| ph.rate_rps).collect();
    assert_eq!(rates, perfbench::design::ZIPF_LADDER_RPS);
    for ph in &p.phases {
        let expected = (ph.rate_rps * ph.duration_ns as f64 / 1e9).round() as usize;
        assert_eq!(ph.arrivals.len(), expected);
        assert!(ph.arrivals.windows(2).all(|a| a[0].at_ns <= a[1].at_ns));
        assert!(ph.arrivals.iter().all(|a| a.at_ns < ph.duration_ns));
    }
}

#[test]
fn batch_decodes_every_image_both_ways_alternately() {
    let p = Plan::new(Workload::BatchParallel, 3, SECONDS);
    let kinds: HashSet<_> = p.cycle.iter().map(|e| (e.stream, e.kind)).collect();
    assert_eq!(kinds.len(), 2 * p.streams.len());
    assert!(p.cycle.windows(2).all(|w| w[0].kind != w[1].kind));
}

/// `BENCHMARK.json` names every metric this benchmark reports, with
/// its unit, and every workload.
#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
    }
    for w in Workload::ALL {
        let needle = format!("\"name\": \"{}\"", w.name());
        assert!(
            text.contains(&needle),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
    let listed = text.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json lists a name the benchmark does not report"
    );
}
