//! The codec throughput benchmark: stripe-state Tier-1 kernel vs the
//! retained reference, the MQ decoder vs its flowchart reference, the
//! inverse-DWT kernels, per-tile entropy decode on the Table-1 workload,
//! and end-to-end decode throughput. It also prints, without recording
//! them, the encoder-side kernels (MQ and Tier-1 encode, forward DWTs)
//! and MQ decoding of a skewed p = 0.2 stream.
//!
//! It writes its results to `BENCH_decode.json` at the repository root
//! — the machine-readable trajectory later changes compare against.
//! The `baseline_pre_pr` block holds the numbers measured immediately
//! before the flags-lattice Tier-1 rewrite and the `baseline_pre_dwt`
//! block the numbers immediately before the fixed-point/cache-blocked
//! DWT rewrite, so the recorded speedups are like-for-like.
//!
//! Modes: `--test` (how `cargo test --benches` invokes bench targets) or
//! `BENCH_QUICK=1` run a reduced smoke pass and skip the JSON write, so
//! CI never clobbers the recorded trajectory with noisy quick numbers.
//! Both modes *gate* on the committed trajectory: if the measured
//! end-to-end decode regresses more than 25% against the `decode_ns`
//! recorded in `BENCH_decode.json`, the bench fails. Before that
//! host-dependent gate, two same-run ratio gates hold on any host: the
//! Tier-1 kernel must beat `t1::reference`, and `MqDecoder` must beat
//! `mq::reference::MqDecoder` on a p = 0.5 stream, each by
//! [`MIN_SAME_RUN_SPEEDUP`].

use std::hint::black_box;

use jpeg2000::codec::{decode, StagedDecoder};
use jpeg2000::dwt::{fdwt53_2d, fdwt97_2d, fixed_from_real, idwt53_2d, idwt97_2d_fixed};
use jpeg2000::mq::{self, MqContext, MqDecoder, MqEncoder};
use jpeg2000::scratch::DecodeScratch;
use jpeg2000::t1::{decode_block, encode_block, reference, NUM_CONTEXTS};
use jpeg2000::tile::BandKind;
use jpeg2000_models::workload::workload;
use jpeg2000_models::ModeSel;
use osss_bench::{bench, best_ns, json_path, write_json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pre-PR-2 Tier-1 kernel time (64×64 HL block, min-of-samples), ns.
const BASELINE_KERNEL_NS: u64 = 1_490_728;
/// Pre-PR-2 per-tile entropy decode on the Table-1 workload, ns.
const BASELINE_ENTROPY_NS: [(&str, u64); 2] = [("lossless", 729_004), ("lossy", 795_882)];
/// Pre-PR-2 end-to-end decode of the Table-1 workload (best-of-20), ns.
const BASELINE_DECODE_NS: [(&str, u64); 2] = [("lossless", 12_371_732), ("lossy", 14_835_234)];
/// Inverse-DWT kernel times (256×256 tile, 3 levels, min-of-samples)
/// measured immediately before the strip-blocked rewrite, ns: the
/// per-column integer 5/3 and the retired f64 9/7.
const BASELINE_IDWT53_NS: u64 = 607_515;
const BASELINE_IDWT97_F64_NS: u64 = 954_323;
/// End-to-end decode immediately before the fixed-point DWT rewrite —
/// the committed `decode_ns` trajectory as of PR 6, ns.
const BASELINE_PRE_DWT_DECODE_NS: [(&str, u64); 2] =
    [("lossless", 7_352_701), ("lossy", 10_077_050)];

/// Maximum tolerated end-to-end decode slowdown vs the committed
/// `BENCH_decode.json` before the bench fails. Generous because the CI
/// quick pass uses few samples on a noisy shared CPU; it exists to catch
/// real regressions (a lost kernel optimisation), not jitter.
const GATE_MAX_RATIO: f64 = 1.25;

/// Minimum speedup of the Tier-1 kernel over `t1::reference` and of
/// `MqDecoder` over `mq::reference::MqDecoder`. Both sides of each ratio
/// run in the same process on the same host, so these gates hold on a
/// machine far slower than the one `BENCH_decode.json` was recorded on.
const MIN_SAME_RUN_SPEEDUP: f64 = 1.5;

/// Extracts one named entry of the *top-level* `decode_ns` block from
/// the committed `BENCH_decode.json` (the first `decode_ns` in the file;
/// the baseline blocks repeat the key further down). Hand-rolled so the
/// bench needs no JSON dependency.
fn committed_decode_ns(json: &str, name: &str) -> Option<u64> {
    let obj = &json[json.find("\"decode_ns\"")?..];
    let obj = &obj[..obj.find('}')? + 1];
    let v = &obj[obj.find(&format!("\"{name}\""))?..];
    let digits: String = v
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn main() {
    let quick = osss_bench::quick();
    // Quick mode takes enough samples that a best-of min is a stable
    // input to the regression gate; the whole pass still runs in
    // seconds.
    let (warmup, samples) = if quick { (2, 5) } else { (5, 30) };

    // --- Kernel: 64×64 HL code-block, 30 % non-zero magnitudes ---
    let (w, h) = (64usize, 64usize);
    let mut rng = StdRng::seed_from_u64(2);
    let mags: Vec<u32> = (0..w * h)
        .map(|_| {
            if rng.gen_bool(0.3) {
                rng.gen_range(1..512)
            } else {
                0
            }
        })
        .collect();
    let negative: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(0.5)).collect();
    let enc = encode_block(&mags, &negative, w, h, BandKind::Hl);
    let check = decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
    assert_eq!(
        check,
        reference::decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes),
        "fast path must match the reference before being timed"
    );

    for _ in 0..warmup {
        let _ = decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
    }
    let opt_ns = best_ns(samples, || {
        let _ = decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
    });
    let ref_ns = best_ns(samples, || {
        let _ = reference::decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
    });
    let samples_per_sec = (w * h) as f64 / (opt_ns as f64 / 1e9);
    println!(
        "t1 kernel 64x64 HL: optimized {opt_ns} ns, reference {ref_ns} ns \
         ({:.2}x vs in-tree reference, {:.2}x vs pre-PR {BASELINE_KERNEL_NS} ns)",
        ref_ns as f64 / opt_ns as f64,
        BASELINE_KERNEL_NS as f64 / opt_ns as f64,
    );

    // --- MQ only: one 200k-decision, p = 0.5 stream over the Tier-1
    // context count (the shape of the `mq_roundtrip` property test) ---
    let mut rng = StdRng::seed_from_u64(4);
    let ctx_seq: Vec<usize> = (0..200_000)
        .map(|_| rng.gen_range(0..NUM_CONTEXTS))
        .collect();
    let bits: Vec<bool> = ctx_seq.iter().map(|_| rng.gen_bool(0.5)).collect();
    let mut contexts = [MqContext::default(); NUM_CONTEXTS];
    let mut enc = MqEncoder::new();
    for (&k, &bit) in ctx_seq.iter().zip(&bits) {
        enc.encode(&mut contexts[k], bit);
    }
    let stream = enc.finish();
    let ones = bits.iter().filter(|&&b| b).count() as u32;
    let mq_fast = || {
        let mut contexts = [MqContext::default(); NUM_CONTEXTS];
        let mut dec = MqDecoder::new(black_box(&stream));
        ctx_seq
            .iter()
            .map(|&k| dec.decode(&mut contexts[k]) as u32)
            .sum::<u32>()
    };
    let mq_flowchart = || {
        let mut contexts = [MqContext::default(); NUM_CONTEXTS];
        let mut dec = mq::reference::MqDecoder::new(black_box(&stream));
        ctx_seq
            .iter()
            .map(|&k| dec.decode(&mut contexts[k]) as u32)
            .sum::<u32>()
    };
    assert_eq!(
        mq_fast(),
        ones,
        "MQ decoder must round-trip before being timed"
    );
    assert_eq!(mq_flowchart(), ones, "MQ reference must round-trip");
    for _ in 0..warmup {
        black_box(mq_fast());
        black_box(mq_flowchart());
    }
    let mq_ns = best_ns(samples, || {
        black_box(mq_fast());
    });
    let mq_ref_ns = best_ns(samples, || {
        black_box(mq_flowchart());
    });
    println!(
        "mq 200k decisions p=0.5: {mq_ns} ns, flowchart reference {mq_ref_ns} ns ({:.2}x)",
        mq_ref_ns as f64 / mq_ns as f64,
    );

    // --- DWT kernels: 256×256 tile, 3 levels --------------------------
    let n = 256usize;
    let mut rng = StdRng::seed_from_u64(3);
    let tile: Vec<i32> = (0..n * n).map(|_| rng.gen_range(-128..128)).collect();
    let mut fwd53 = tile.clone();
    fdwt53_2d(&mut fwd53, n, n, 3);
    for _ in 0..warmup {
        let mut buf = fwd53.clone();
        idwt53_2d(&mut buf, n, n, 3);
    }
    let idwt53_ns = best_ns(samples, || {
        let mut buf = fwd53.clone();
        idwt53_2d(&mut buf, n, n, 3);
    });
    let mut fwd97: Vec<f64> = tile.iter().map(|&v| f64::from(v)).collect();
    fdwt97_2d(&mut fwd97, n, n, 3);
    let fwd97_fixed: Vec<i32> = fwd97.iter().map(|&v| fixed_from_real(v)).collect();
    for _ in 0..warmup {
        let mut buf = fwd97_fixed.clone();
        idwt97_2d_fixed(&mut buf, n, n, 3);
    }
    let idwt97_ns = best_ns(samples, || {
        let mut buf = fwd97_fixed.clone();
        idwt97_2d_fixed(&mut buf, n, n, 3);
    });
    println!(
        "dwt 256x256 l3: idwt53 {idwt53_ns} ns ({:.2}x vs pre-PR {BASELINE_IDWT53_NS} ns), \
         idwt97_fixed {idwt97_ns} ns ({:.2}x vs pre-PR f64 {BASELINE_IDWT97_F64_NS} ns)",
        BASELINE_IDWT53_NS as f64 / idwt53_ns as f64,
        BASELINE_IDWT97_F64_NS as f64 / idwt97_ns as f64,
    );

    // --- Per-tile entropy decode + end-to-end decode, both modes ------
    let mut entropy_ns = Vec::new();
    let mut decode_ns = Vec::new();
    let mut decode_mbps = Vec::new();
    for (name, mode) in [("lossless", ModeSel::Lossless), ("lossy", ModeSel::Lossy)] {
        let wl = workload(mode);
        let dec: &StagedDecoder = &wl.decoder;
        let tiles = dec.num_tiles();
        let mut scratch = DecodeScratch::new();
        for _ in 0..warmup {
            for t in 0..tiles {
                let _ = dec.entropy_decode_tile_with(t, &mut scratch).unwrap();
            }
        }
        let per_tile = best_ns(samples, || {
            for t in 0..tiles {
                let _ = dec.entropy_decode_tile_with(t, &mut scratch).unwrap();
            }
        }) / tiles as u64;
        entropy_ns.push((name, per_tile));

        let bytes = &wl.codestream;
        for _ in 0..warmup {
            let _ = decode(bytes).unwrap();
        }
        let total = best_ns(samples, || {
            let _ = decode(bytes).unwrap();
        });
        // Throughput over decoded samples at one byte per 8-bit sample.
        let out_bytes = (wl.image.width * wl.image.height * wl.image.components.len()) as f64;
        let mbps = out_bytes / (total as f64 / 1e9) / 1e6;
        decode_ns.push((name, total));
        decode_mbps.push((name, mbps));
        println!("{name}: entropy {per_tile} ns/tile, decode {total} ns ({mbps:.3} MB/s)");
    }

    // --- Print-only: the encoder-side kernels and a skewed MQ stream ---
    let rate = |elems: usize, ns: u64| println!("  {:.1} Melem/s", elems as f64 / ns as f64 * 1e3);
    let mut rng = StdRng::seed_from_u64(1);
    let skewed: Vec<bool> = (0..100_000).map(|_| rng.gen_bool(0.2)).collect();
    let mq_encode = || {
        let mut cx = MqContext::default();
        let mut enc = MqEncoder::new();
        for &bit in &skewed {
            enc.encode(&mut cx, bit);
        }
        enc.finish()
    };
    let skewed_stream = mq_encode();
    let ns = bench("mq_coder", "encode_100k_bits", samples, mq_encode);
    rate(skewed.len(), ns);
    let ns = bench("mq_coder", "decode_100k_bits_p0.2", samples, || {
        let mut cx = MqContext::default();
        let mut dec = MqDecoder::new(&skewed_stream);
        (0..skewed.len())
            .map(|_| dec.decode(&mut cx) as u32)
            .sum::<u32>()
    });
    rate(skewed.len(), ns);
    let ns = bench("t1_codeblock_64x64", "encode", samples, || {
        encode_block(&mags, &negative, w, h, BandKind::Hl)
    });
    rate(w * h, ns);
    let ns = bench("dwt_256x256_l3", "fdwt53", samples, || {
        let mut buf = tile.clone();
        fdwt53_2d(&mut buf, n, n, 3);
        buf
    });
    rate(n * n, ns);
    let tile97: Vec<f64> = tile.iter().map(|&v| f64::from(v)).collect();
    let ns = bench("dwt_256x256_l3", "fdwt97", samples, || {
        let mut buf = tile97.clone();
        fdwt97_2d(&mut buf, n, n, 3);
        buf
    });
    rate(n * n, ns);

    // --- Same-run ratio gates: independent of the host's speed ---------
    for (what, fast, slow) in [
        ("t1 kernel vs t1::reference", opt_ns, ref_ns),
        ("MqDecoder vs mq::reference", mq_ns, mq_ref_ns),
    ] {
        let speedup = slow as f64 / fast as f64;
        assert!(
            speedup >= MIN_SAME_RUN_SPEEDUP,
            "{what}: {speedup:.2}x, below the {MIN_SAME_RUN_SPEEDUP}x floor \
             ({fast} ns vs {slow} ns)"
        );
    }

    // --- Regression gate vs the committed trajectory ------------------
    match std::fs::read_to_string(json_path("decode")) {
        Ok(committed) => {
            for &(name, measured) in &decode_ns {
                let pinned = committed_decode_ns(&committed, name)
                    .unwrap_or_else(|| panic!("BENCH_decode.json has no decode_ns.{name}"));
                let ratio = measured as f64 / pinned as f64;
                println!("gate {name}: {measured} ns vs committed {pinned} ns ({ratio:.3}x)");
                assert!(
                    ratio <= GATE_MAX_RATIO,
                    "{name} decode regressed to {ratio:.3}x of the committed \
                     BENCH_decode.json ({measured} ns vs {pinned} ns, limit {GATE_MAX_RATIO}x)"
                );
            }
        }
        Err(e) => println!("no committed BENCH_decode.json to gate against ({e})"),
    }

    let kv = |pairs: &[(&str, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let num = |pairs: &[(&str, u64)]| {
        kv(&pairs
            .iter()
            .map(|&(k, v)| (k, v.to_string()))
            .collect::<Vec<_>>())
    };
    let flt = |pairs: &[(&str, f64)]| {
        kv(&pairs
            .iter()
            .map(|&(k, v)| (k, format!("{v:.3}")))
            .collect::<Vec<_>>())
    };
    let json = format!(
        "{{\n  \"bench\": \"t1_throughput\",\n  \"workload\": \"table1_128x128_rgb_16_tiles\",\n  \
         \"kernel_64x64_hl\": {{ \"optimized_ns\": {opt_ns}, \"reference_ns\": {ref_ns}, \
         \"samples_per_sec\": {samples_per_sec:.0}, \
         \"speedup_vs_reference\": {:.3}, \"speedup_vs_pre_pr\": {:.3} }},\n  \
         \"idwt_256x256_l3\": {{ \"idwt53_ns\": {idwt53_ns}, \"idwt97_fixed_ns\": {idwt97_ns}, \
         \"speedup_53_vs_pre_dwt\": {:.3}, \"speedup_97_vs_pre_dwt_f64\": {:.3} }},\n  \
         \"entropy_per_tile_ns\": {{ {} }},\n  \"decode_ns\": {{ {} }},\n  \
         \"decode_mb_per_s\": {{ {} }},\n  \
         \"baseline_pre_pr\": {{ \"kernel_64x64_hl_ns\": {BASELINE_KERNEL_NS}, \
         \"entropy_per_tile_ns\": {{ {} }}, \"decode_ns\": {{ {} }} }},\n  \
         \"baseline_pre_dwt\": {{ \"idwt53_ns\": {BASELINE_IDWT53_NS}, \
         \"idwt97_f64_ns\": {BASELINE_IDWT97_F64_NS}, \"decode_ns\": {{ {} }} }},\n  \
         \"entropy_speedup_vs_pre_pr\": {{ {} }},\n  \"decode_speedup_vs_pre_pr\": {{ {} }},\n  \
         \"decode_speedup_vs_pre_dwt\": {{ {} }}\n}}\n",
        ref_ns as f64 / opt_ns as f64,
        BASELINE_KERNEL_NS as f64 / opt_ns as f64,
        BASELINE_IDWT53_NS as f64 / idwt53_ns as f64,
        BASELINE_IDWT97_F64_NS as f64 / idwt97_ns as f64,
        num(&entropy_ns),
        num(&decode_ns),
        flt(&decode_mbps),
        num(&BASELINE_ENTROPY_NS),
        num(&BASELINE_DECODE_NS),
        num(&BASELINE_PRE_DWT_DECODE_NS),
        flt(&entropy_ns
            .iter()
            .zip(&BASELINE_ENTROPY_NS)
            .map(|(&(k, v), &(_, b))| (k, b as f64 / v as f64))
            .collect::<Vec<_>>()),
        flt(&decode_ns
            .iter()
            .zip(&BASELINE_DECODE_NS)
            .map(|(&(k, v), &(_, b))| (k, b as f64 / v as f64))
            .collect::<Vec<_>>()),
        flt(&decode_ns
            .iter()
            .zip(&BASELINE_PRE_DWT_DECODE_NS)
            .map(|(&(k, v), &(_, b))| (k, b as f64 / v as f64))
            .collect::<Vec<_>>()),
    );
    write_json("decode", &json);
}
