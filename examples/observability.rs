//! The observability layer end to end: every Table-1 model version is
//! re-run with the tracer, scheduler probe and metrics registry
//! attached, the per-version decoding/IDWT latencies are *re-derived
//! from the signal traces alone* and checked against the values the
//! simulations reported, and the artefacts are written out:
//!
//! * `BENCH_observability.json` — per-version latencies (trace-derived),
//!   native-decoder work counters and the full v7b metrics snapshot, in
//!   the repository's `BENCH_*.json` style;
//! * `trace_v7b_lossless.vcd` — the hierarchical waveform dump of the
//!   most refined model, validated with the in-repo VCD parser (load it
//!   in gtkwave to watch `idwt.busy`, `sw.tiles_done` and the signed
//!   `hwsw.credit`).
//!
//! Run with: `cargo run --release --example observability`

use osss_jpeg2000::models::observe::{derive_from_trace, run_version_observed};
use osss_jpeg2000::models::workload::workload;
use osss_jpeg2000::models::{ModeSel, VersionId};
use osss_jpeg2000::sim::vcd;

fn main() {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"observability\",\n");
    json.push_str("  \"workload\": \"table1_128x128_rgb_16_tiles\",\n");

    // Native tile-parallel decoder: real work counters, 4 workers.
    let wl = workload(ModeSel::Lossless);
    let (out, stats) = osss_jpeg2000::decode_parallel_observed(&wl.codestream, 4, None)
        .expect("parallel decode of the Table-1 workload");
    assert_eq!(
        out.image, *wl.reference,
        "parallel decode must stay bit-exact"
    );
    let c = &stats.counters;
    // `arena_reuses` depends on how many workers claimed a tile, so it
    // goes to stdout only: the JSON must be the same on every run.
    json.push_str(&format!(
        "  \"native_decode\": {{ \"workers\": {}, \"tiles\": {}, \"code_blocks\": {}, \
         \"coding_passes\": {}, \"mq_renorms\": {}, \"bytes_in\": {}, \"samples_out\": {} }},\n",
        stats.workers,
        c.tiles,
        c.code_blocks,
        c.coding_passes,
        c.mq_renorms,
        c.bytes_in,
        c.samples_out,
    ));
    println!(
        "native decode: {} tiles over {} workers, {} code-blocks, {} coding passes, {} MQ renorms, \
         {} arena reuses",
        c.tiles, stats.workers, c.code_blocks, c.coding_passes, c.mq_renorms, c.arena_reuses
    );

    // Every model version, both modes: run observed, re-derive Table 1
    // from the traces, check the derivation against the report.
    json.push_str("  \"versions\": {\n");
    println!();
    println!(
        "{:<5} {:<9} {:>12} {:>12} {:>10}  (all trace-derived, checked vs report)",
        "ver", "mode", "decode[ms]", "idwt[ms]", "occupancy"
    );
    let mut v7b_metrics = None;
    for (vi, version) in VersionId::ALL.iter().enumerate() {
        json.push_str(&format!("    \"{version}\": {{ "));
        for (mi, mode) in ModeSel::ALL.iter().enumerate() {
            let run = run_version_observed(*version, *mode).expect("observed run");
            assert!(
                run.result.functional_ok,
                "{version} {mode}: output mismatch"
            );
            let derived = derive_from_trace(&run.tracer.records());
            assert_eq!(
                derived.decode_time, run.result.decode_time,
                "{version} {mode}: trace-derived decode time must equal the report"
            );
            assert_eq!(
                derived.idwt_time, run.result.idwt_time,
                "{version} {mode}: trace-derived IDWT time must equal the report"
            );
            println!(
                "{:<5} {:<9} {:>12.1} {:>12.2} {:>9.1}%",
                version.to_string(),
                mode.to_string(),
                derived.decode_time.as_ms_f64(),
                derived.idwt_time.as_ms_f64(),
                derived.idwt_occupancy * 100.0
            );
            json.push_str(&format!(
                "\"{mode}\": {{ \"decode_ms\": {:.3}, \"idwt_ms\": {:.3}, \
                 \"idwt_occupancy\": {:.4} }}{}",
                derived.decode_time.as_ms_f64(),
                derived.idwt_time.as_ms_f64(),
                derived.idwt_occupancy,
                if mi + 1 < ModeSel::ALL.len() {
                    ", "
                } else {
                    ""
                }
            ));
            if *version == VersionId::V7b && *mode == ModeSel::Lossless {
                v7b_metrics = Some((run.tracer.clone(), run.registry.clone()));
            }
        }
        json.push_str(&format!(
            " }}{}\n",
            if vi + 1 < VersionId::ALL.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  },\n");

    // The most refined model's full metrics snapshot, nested verbatim
    // (the registry renders deterministic, sorted JSON).
    let (tracer, registry) = v7b_metrics.expect("v7b ran");
    let metrics_json = registry.to_json();
    json.push_str("  \"v7b_lossless_metrics\": ");
    json.push_str(&indent_nested(&metrics_json, 2));
    json.push_str("\n}\n");

    // The waveform artefact: hierarchical scopes, a signed signal, and
    // it must pass the in-repo validating parser.
    let vcd_text = tracer.to_vcd();
    let doc = vcd::parse(&vcd_text).expect("emitted VCD must validate");
    let credit = doc
        .var_named("credit")
        .expect("hwsw.credit must be declared");
    assert_eq!(credit.scope, vec!["hwsw".to_string()]);
    let negative = doc.changes_of("credit").iter().any(|ch| match &ch.value {
        vcd::VcdValue::Vector(bits) => bits.len() == 64 && bits.starts_with('1'),
        _ => false,
    });
    assert!(
        negative,
        "the credit signal must dip negative (64-bit two's complement)"
    );
    assert!(
        doc.var_named("busy").is_some(),
        "idwt.busy must be declared"
    );

    let root = concat!(env!("CARGO_MANIFEST_DIR"));
    let json_path = format!("{root}/BENCH_observability.json");
    let vcd_path = format!("{root}/trace_v7b_lossless.vcd");
    std::fs::write(&json_path, &json).expect("write BENCH_observability.json");
    std::fs::write(&vcd_path, &vcd_text).expect("write trace_v7b_lossless.vcd");
    println!();
    println!("wrote {json_path}");
    println!(
        "wrote {vcd_path} ({} signals, {} changes, negative-capable credit verified)",
        doc.vars.len(),
        doc.changes.len()
    );
}

/// Re-indents a pretty-printed JSON object so it nests cleanly at
/// `depth` levels inside the surrounding document.
fn indent_nested(json: &str, depth: usize) -> String {
    let pad = "  ".repeat(depth);
    let mut out = String::new();
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&pad);
        }
        out.push_str(line);
    }
    out
}
