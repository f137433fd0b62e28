//! The decoder's benchmark: four seeded workloads that each load a
//! different layer of the native JPEG 2000 decoder and its serving
//! stack, end-to-end metrics with tracing off, and a separate traced
//! run that breaks the time down by layer. See `README.md` for the
//! design and the per-layer predictions.

pub mod args;
pub mod batch;
pub mod corpus;
pub mod design;
pub mod json;
pub mod netload;
pub mod plan;
pub mod replay;
pub mod report;
pub mod rng;
pub mod stats;
pub mod tally;
pub mod trace;
pub mod zipf;

use std::path::PathBuf;

/// The plan and its encoded corpus: what every workload runs on.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// The seeded plan.
    pub plan: &'a plan::Plan,
    /// Streams and references.
    pub corpus: &'a corpus::Corpus,
}

/// Host facts recorded with every result.
pub fn host_details(ctx: Ctx<'_>, transport: &str) -> json::Json {
    json::Json::obj()
        .with("available_parallelism", plan::available_parallelism())
        .with("transport", transport)
        .with("decode_workers", jpeg2000::parallel::resolve_workers(0))
        .with("generator_threads", ctx.plan.threads)
        .with("generator_connections", ctx.plan.connections)
}

/// Where a traced run writes its spans (relative to the working
/// directory).
pub fn trace_path(plan: &plan::Plan) -> PathBuf {
    PathBuf::from(".perfbench").join(format!(
        "spans-{}-seed{}.tsv",
        plan.workload.name(),
        plan.seed
    ))
}
