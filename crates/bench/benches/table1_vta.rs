//! Table 1, Virtual-Target-Architecture rows: simulating the refined
//! models 6a/6b/7a/7b (bus transfers, RMI, block-RAM charging included).

use jpeg2000_models::{run_version, ModeSel, VersionId};
use osss_bench::bench;

fn main() {
    for version in [
        VersionId::V6a,
        VersionId::V6b,
        VersionId::V7a,
        VersionId::V7b,
    ] {
        for mode in ModeSel::ALL {
            bench("table1_vta", &format!("v{version}_{mode}"), 10, || {
                let r = run_version(version, mode).expect("simulation");
                assert!(r.functional_ok);
                (r.decode_time, r.idwt_time)
            });
        }
    }
}
