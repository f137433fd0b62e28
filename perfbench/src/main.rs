//! Runs one workload of the benchmark and prints its result; see
//! `README.md`.

use perfbench::args::{Args, USAGE};
use perfbench::corpus::Corpus;
use perfbench::plan::{Plan, Workload};
use perfbench::{batch, netload, zipf, Ctx};
use std::time::Instant;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let base = Instant::now();
    // A traced run measures an untraced and a traced half.
    let plan_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = Plan::new(args.workload, args.seed, plan_secs);
    let generation = Instant::now();
    let corpus = match Corpus::build(&plan) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("building the corpus failed: {e}");
            std::process::exit(1);
        }
    };
    let generation_s = generation.elapsed().as_secs_f64();
    let ctx = Ctx {
        plan: &plan,
        corpus: &corpus,
    };
    let mut outcome = match args.workload {
        Workload::ColdNet | Workload::HotNet => netload::run(ctx, args.seconds, args.trace, base),
        Workload::ZipfService => zipf::run(ctx, args.seconds, args.trace, base),
        Workload::BatchParallel => batch::run(ctx, args.seconds, args.trace, base),
    };
    let d = &mut outcome.details;
    d.set("seed", args.seed);
    d.set("seconds", args.seconds);
    d.set("trace", args.trace);
    d.set("input_generation_s", generation_s);
    d.set("corpus_streams", corpus.streams.len());
    d.set("corpus_entries", corpus.refs.len());
    d.set("corpus_hash", format!("{:016x}", corpus.hash()));
    d.set("schedule_hash", format!("{:016x}", plan.schedule_hash()));
    outcome.print();
}
