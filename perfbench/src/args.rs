//! Command-line arguments:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::plan::Workload;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <cold-net|hot-net|zipf-service|batch-parallel> \
--seed <u64> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("outside (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}
