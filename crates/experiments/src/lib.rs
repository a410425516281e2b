//! Reproduction harness for the paper's evaluation: one generator per
//! figure (Figs. 1–2, 4–17), the Theorem 1–5 checks, and the extension
//! experiments (multi-bottleneck, ablations, Insight-5 initial-condition
//! sweep).
//!
//! Every generator returns its report as a `String` (so benches and
//! tests can call it) and is exposed through the `figures` binary:
//!
//! ```text
//! cargo run --release -p bbr-experiments --bin figures -- fig06
//! cargo run --release -p bbr-experiments --bin figures -- all --fast
//! ```

pub mod aggregate;
pub mod campaign;
pub mod compare;
pub mod drift;
pub mod figures;
pub mod scenarios;
pub mod sweep;
pub mod table;
pub mod tracefmt;
pub mod universe;
pub mod watch;

/// Speed preset for a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Paper-scale parameters (buffers 1–7 BDP, 5 s windows, fine step).
    Full,
    /// Reduced parameters for benches / smoke tests.
    Fast,
}

impl Effort {
    pub fn is_fast(&self) -> bool {
        matches!(self, Effort::Fast)
    }

    /// Stable tag used by campaign plan files (the worker process
    /// rebuilds its backends from this).
    pub fn tag(&self) -> &'static str {
        match self {
            Effort::Full => "full",
            Effort::Fast => "fast",
        }
    }

    /// Inverse of [`Effort::tag`].
    pub fn from_tag(tag: &str) -> Option<Effort> {
        match tag {
            "full" => Some(Effort::Full),
            "fast" => Some(Effort::Fast),
            _ => None,
        }
    }
}
