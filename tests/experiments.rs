//! Integration smoke tests of the paper experiments: a representative
//! subset of Table 1, the whole of Table 2, the Figure 1 profile and the
//! two ablation axes. (The full Table 1 shape suite lives in the
//! `jpeg2000-models` crate.)

use osss_jpeg2000::models::report::{check_table1_shape, format_table1, format_table2};
use osss_jpeg2000::models::synth::table2;
use osss_jpeg2000::models::{
    fault_axis, fault_sweep, profile, run_hw_sw_parallel, run_scaling, run_sw_parallel,
    run_v5_with_policy, run_version, table1, ArbPolicy, ModeSel, VersionId, VersionResult,
};

#[test]
fn key_table1_versions_run_and_are_functionally_correct() {
    let mut results = Vec::new();
    for v in [VersionId::V1, VersionId::V4, VersionId::V5] {
        for mode in ModeSel::ALL {
            let r = run_version(v, mode).expect("simulation");
            assert!(r.functional_ok, "{v} {mode}");
            results.push(r);
        }
    }
    // Formatting must include what we ran.
    let text = format_table1(&results);
    assert!(text.contains("SW only"));
    assert!(text.contains("SW parallel"));
    // Speed relations for what we have.
    let checks = check_table1_shape(&results);
    for c in checks {
        assert!(c.pass, "{}: measured {}", c.name, c.measured);
    }
}

#[test]
fn vta_pair_preserves_functionality_and_bus_penalty() {
    let a = run_version(VersionId::V6a, ModeSel::Lossless).expect("6a");
    let b = run_version(VersionId::V6b, ModeSel::Lossless).expect("6b");
    assert!(a.functional_ok && b.functional_ok);
    assert!(a.idwt_time > b.idwt_time, "bus mapping must cost IDWT time");
}

#[test]
fn table2_regenerates_with_correct_shape() {
    let rows = table2();
    let text = format_table2(&rows);
    assert!(text.contains("Slice flip-flops"));
    assert!(text.contains("Est. frequency"));
    // The two headline relations of the paper's conclusion.
    assert!(rows[0].fossy.slices > rows[0].reference.slices); // 5/3: FOSSY bigger
    assert!(rows[1].fossy.slices < rows[1].reference.slices); // 9/7: FOSSY smaller
    assert!(rows[1].fossy.fmax_mhz < rows[1].reference.fmax_mhz); // ... and slower
}

#[test]
fn figure1_profile_is_entropy_dominated() {
    for mode in ModeSel::ALL {
        let p = profile::profile(mode, 96);
        assert!(
            p.entropy_dominates(),
            "{mode}: {:?} (paper: {:?})",
            p.measured,
            p.paper
        );
    }
}

#[test]
fn scaling_ablation_shows_7b_scales_better() {
    // The paper's closing Table 1 remark in miniature: at 8-way
    // parallelism the bus mapping pays a pronounced IDWT penalty, the
    // P2P mapping none.
    let a2 = run_scaling(ModeSel::Lossless, 2, false).expect("2-way bus");
    let a8 = run_scaling(ModeSel::Lossless, 8, false).expect("8-way bus");
    let b2 = run_scaling(ModeSel::Lossless, 2, true).expect("2-way p2p");
    let b8 = run_scaling(ModeSel::Lossless, 8, true).expect("8-way p2p");
    assert!(a8.idwt_time > a2.idwt_time, "bus penalty grows with CPUs");
    let p2p_drift = b8.idwt_time.as_ms_f64() / b2.idwt_time.as_ms_f64();
    assert!(
        (0.99..=1.01).contains(&p2p_drift),
        "P2P IDWT flat: {p2p_drift}"
    );
    assert!(b8.decode_time < a8.decode_time, "7b wins at 8-way");
}

#[test]
fn one_task_scaling_point_is_the_6a_6b_mapping() {
    for mode in ModeSel::ALL {
        for (p2p, version) in [(false, VersionId::V6a), (true, VersionId::V6b)] {
            let point = run_scaling(mode, 1, p2p).expect("scaling point");
            let row = run_version(version, mode).expect("table 1 row");
            assert_eq!(point, row, "{mode} p2p={p2p}");
        }
    }
}

#[test]
fn arbitration_policy_is_second_order() {
    let base = run_v5_with_policy(ModeSel::Lossless, ArbPolicy::Fcfs).expect("fcfs");
    for policy in [ArbPolicy::RoundRobin, ArbPolicy::StaticPriority] {
        let r = run_v5_with_policy(ModeSel::Lossless, policy).expect("run");
        assert!(r.functional_ok, "{policy} broke the output");
        let ratio = r.decode_time.as_ms_f64() / base.decode_time.as_ms_f64();
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{policy}: decode ratio {ratio} should be second-order"
        );
    }
}

/// `[decode_time, idwt_time, so_arbitration_wait]` in picoseconds.
fn ps(r: &VersionResult) -> [u64; 3] {
    assert!(r.functional_ok, "{} {}: output mismatch", r.version, r.mode);
    [
        r.decode_time.as_ps(),
        r.idwt_time.as_ps(),
        r.so_arbitration_wait.as_ps(),
    ]
}

#[test]
fn table1_is_pinned_to_the_picosecond() {
    use ModeSel::{Lossless, Lossy};
    use VersionId::*;
    const PINNED: [(VersionId, ModeSel, [u64; 3]); 18] = [
        (V1, Lossless, [3243243243200, 178378378368, 0]),
        (V1, Lossy, [3664122137376, 454351145024, 0]),
        (V2, Lossless, [2967620270224, 1858108096, 0]),
        (V2, Lossy, [3065813740432, 4732824416, 0]),
        (V3, Lossless, [2967481081056, 1858108096, 200000000]),
        (V3, Lossy, [3062277862592, 4732824416, 200000000]),
        (V4, Lossless, [743656165525, 1858108096, 2902195938]),
        (V4, Lossy, [768841412203, 4732824416, 4175954190]),
        (V5, Lossless, [745780405398, 1858108096, 5586739866]),
        (V5, Lossy, [769565648852, 4732824416, 4950190839]),
        (V6a, Lossless, [2992612708623, 15532358096, 67397567]),
        (V6a, Lossy, [3087442113431, 29417154416, 100020839]),
        (V6b, Lossless, [2992610718623, 14484988096, 67397567]),
        (V6b, Lossy, [3087440123431, 28369784416, 100020839]),
        (V7a, Lossless, [763867209587, 19698175260, 67467567]),
        (V7a, Lossy, [782862347326, 35940172207, 100020839]),
        (V7b, Lossless, [762950177831, 14484988096, 268150268]),
        (V7b, Lossy, [786582485648, 28369784416, 34372816]),
    ];
    let results = table1().expect("table 1");
    assert_eq!(results.len(), PINNED.len());
    for (r, (version, mode, pinned)) in results.iter().zip(PINNED) {
        assert_eq!((r.version, r.mode), (version, mode));
        assert_eq!(ps(r), pinned, "{version} {mode}");
    }
}

#[test]
fn exploration_axes_are_pinned_to_the_picosecond() {
    use ModeSel::{Lossless, Lossy};
    // run_scaling(Lossless, n, p2p).
    const SCALING: [(usize, bool, [u64; 3]); 8] = [
        (1, false, [2992612708623, 15532358096, 67397567]),
        (1, true, [2992610718623, 14484988096, 67397567]),
        (2, false, [1505121910528, 16515738096, 0]),
        (2, true, [1505187148095, 14484988096, 134555134]),
        (4, false, [763867209587, 19698175260, 67467567]),
        (4, true, [762950177831, 14484988096, 268150268]),
        (8, false, [401900367155, 25679133504, 67467567]),
        (8, true, [396595525133, 14484988096, 532460536]),
    ];
    for (n, p2p, pinned) in SCALING {
        let r = run_scaling(Lossless, n, p2p).expect("scaling point");
        assert_eq!(ps(&r), pinned, "scaling n={n} p2p={p2p}");
    }
    const POLICY: [(ModeSel, ArbPolicy, [u64; 3]); 6] = [
        (
            Lossless,
            ArbPolicy::Fcfs,
            [745780405398, 1858108096, 5586739866],
        ),
        (
            Lossless,
            ArbPolicy::RoundRobin,
            [745780405398, 1858108096, 6264273648],
        ),
        (
            Lossless,
            ArbPolicy::StaticPriority,
            [745621537154, 1858108096, 5202533781],
        ),
        (
            Lossy,
            ArbPolicy::Fcfs,
            [769565648852, 4732824416, 4950190839],
        ),
        (
            Lossy,
            ArbPolicy::RoundRobin,
            [769565648852, 4732824416, 5325381678],
        ),
        (
            Lossy,
            ArbPolicy::StaticPriority,
            [769565648852, 4732824416, 4025000000],
        ),
    ];
    for (mode, policy, pinned) in POLICY {
        let r = run_v5_with_policy(mode, policy).expect("policy run");
        assert_eq!(ps(&r), pinned, "v5 {mode} {policy}");
    }
    // run_sw_parallel(mode, 2), then run_hw_sw_parallel(mode, 2).
    const TWO_TASKS: [(ModeSel, [u64; 3], [u64; 3]); 2] = [
        (
            Lossless,
            [1484443834435, 1858108096, 433699323],
            [1484883108095, 1858108096, 3067567567],
        ),
        (
            Lossy,
            [1533752862581, 4732824416, 645992365],
            [1532314122135, 4732824416, 3100190839],
        ),
    ];
    for (mode, sw, hw_sw) in TWO_TASKS {
        let r = run_sw_parallel(mode, 2).expect("sw parallel");
        assert_eq!(ps(&r), sw, "sw parallel n=2 {mode}");
        let r = run_hw_sw_parallel(mode, 2).expect("hw/sw parallel");
        assert_eq!(ps(&r), hw_sw, "hw/sw parallel n=2 {mode}");
    }
}

#[test]
fn fault_sweep_is_pinned_to_the_picosecond() {
    use ModeSel::{Lossless, Lossy};
    // ((decode ps, tiles recovered, tiles degraded, retries, bit-exact),
    //  [dropped, corrupt transfers, corrupt words, timeouts, CRC failures,
    //   overhead words, transport words]) per point of fault_axis(42).
    type Point = ((u64, usize, usize, u64, bool), [u64; 7]);
    const PINNED: [(ModeSel, [Point; 5]); 2] = [
        (
            Lossless,
            [
                (
                    (2992614438623, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (2992614438623, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (2992614438623, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (3076560058806, 12, 0, 25, true),
                    [13, 12, 13, 19, 6, 622825, 1676923],
                ),
                (
                    (2993646299341, 2, 13, 16, false),
                    [15, 14, 24, 27, 2, 917657, 1181568],
                ),
            ],
        ),
        (
            Lossy,
            [
                (
                    (3087443843431, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (3087443843431, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (3087443843431, 0, 0, 0, true),
                    [0, 0, 0, 0, 0, 128, 1054226],
                ),
                (
                    (3171389463614, 12, 0, 25, true),
                    [13, 12, 13, 19, 6, 622825, 1676923],
                ),
                (
                    (3011453319151, 2, 13, 16, false),
                    [15, 14, 24, 27, 2, 917657, 1181568],
                ),
            ],
        ),
    ];
    for (mode, pinned) in PINNED {
        let results = fault_sweep(mode, &fault_axis(42)).expect("fault sweep");
        let measured: Vec<_> = results
            .iter()
            .map(|r| {
                (
                    (
                        r.decode_time.as_ps(),
                        r.tiles_recovered,
                        r.tiles_degraded,
                        r.rmi_stats.retries,
                        r.bit_exact,
                    ),
                    [
                        r.fault_stats.dropped,
                        r.fault_stats.corrupt_transfers,
                        r.fault_stats.corrupt_words,
                        r.rmi_stats.timeouts,
                        r.rmi_stats.crc_failures,
                        r.rmi_stats.overhead_words,
                        r.transport.words,
                    ],
                )
            })
            .collect();
        assert_eq!(measured, pinned, "{mode}");
    }
}
