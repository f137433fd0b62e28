//! Error types for simulation construction and execution.

use std::error::Error;
use std::fmt;

/// Result alias used by all fallible simulation operations.
pub type SimResult<T> = Result<T, SimError>;

/// Errors produced by the simulation kernel and by process bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The simulation is shutting down and the process was asked to
    /// terminate. Process bodies should propagate this with `?`.
    Terminated,
    /// A process panicked; carries the process name and panic payload text.
    ProcessPanic {
        /// Name of the process that panicked.
        process: String,
        /// Stringified panic payload.
        message: String,
    },
    /// A process reported a modelling error (domain-specific failure).
    Model(String),
    /// The run quiesced — no delta or timed activity remains — while some
    /// processes were still blocked; reported by
    /// [`crate::SimReport::expect_all_finished`].
    Deadlock {
        /// Names of the processes still blocked at the end of simulation.
        blocked: Vec<String>,
    },
}

impl SimError {
    /// Convenience constructor for modelling errors.
    pub fn model(msg: impl Into<String>) -> Self {
        SimError::Model(msg.into())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Terminated => write!(f, "simulation terminated"),
            SimError::ProcessPanic { process, message } => {
                write!(f, "process `{process}` panicked: {message}")
            }
            SimError::Model(msg) => write!(f, "model error: {msg}"),
            SimError::Deadlock { blocked } => {
                write!(
                    f,
                    "deadlock: processes still blocked: {}",
                    blocked.join(", ")
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(SimError::Terminated.to_string(), "simulation terminated");
        let e = SimError::ProcessPanic {
            process: "p0".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "process `p0` panicked: boom");
        assert_eq!(
            SimError::model("bad tile").to_string(),
            "model error: bad tile"
        );
        let d = SimError::Deadlock {
            blocked: vec!["a".into(), "b".into()],
        };
        assert!(d.to_string().contains("a, b"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
