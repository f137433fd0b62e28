//! Arbitration-policy ablation: version 5's seven-client HW/SW shared
//! object under each of the OSSS scheduler-library policies. The paper
//! attributes version 5's slowdown to arbitration overhead; this sweep
//! shows how much the *choice of policy* moves the needle (little — the
//! grant latency, not the order, dominates) while all policies remain
//! functionally correct.

use jpeg2000_models::{run_v5_with_policy, ArbPolicy, ModeSel};

fn main() {
    println!("Arbitration-policy ablation: version 5, HW/SW SO with 7 clients");
    println!(
        "{:<18} {:>14} {:>14} {:>16} {:>16}",
        "policy", "dec ll [ms]", "dec lossy [ms]", "SO wait ll [ms]", "SO wait lossy"
    );
    let mut decode_spread = Vec::new();
    let mut waits = Vec::new();
    for policy in ArbPolicy::ALL {
        let ll = run_v5_with_policy(ModeSel::Lossless, policy).expect("run");
        let lo = run_v5_with_policy(ModeSel::Lossy, policy).expect("run");
        assert!(
            ll.functional_ok && lo.functional_ok,
            "{policy} broke the output"
        );
        println!(
            "{:<18} {:>14.1} {:>14.1} {:>16.2} {:>16.2}",
            policy.to_string(),
            ll.decode_time.as_ms_f64(),
            lo.decode_time.as_ms_f64(),
            ll.so_arbitration_wait.as_ms_f64(),
            lo.so_arbitration_wait.as_ms_f64()
        );
        decode_spread.push(ll.decode_time.as_ms_f64());
        waits.push((policy, ll.so_arbitration_wait, lo.so_arbitration_wait));
    }
    // A policy whose SO waits equal another's in both modes grants in
    // the same order: it has collapsed into that policy, and the sweep
    // shows one policy twice.
    for (i, (a, a_ll, a_lo)) in waits.iter().enumerate() {
        for (b, b_ll, b_lo) in &waits[i + 1..] {
            assert!(
                (a_ll, a_lo) != (b_ll, b_lo),
                "{a} and {b} give identical SO waits in both modes"
            );
        }
    }
    let (min, max) = (
        decode_spread.iter().cloned().fold(f64::INFINITY, f64::min),
        decode_spread.iter().cloned().fold(0.0, f64::max),
    );
    println!();
    println!(
        "Decode-time spread across policies: {:.2} ms ({:.2} %) — the object's\n\
         grant latency dominates; the grant *order* barely matters at this\n\
         utilisation, which is why the case study ships plain FCFS.",
        max - min,
        (max - min) / min * 100.0
    );
    assert!(
        (max - min) / min < 0.02,
        "policy choice should be second-order"
    );
}
