//! What every workload provides to the run loop.

use crate::common::Counters;
use crate::trace::{SpanId, Tracer};

/// The outcome of one operation of the untraced run.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Digest of the full simulated output, pinned for the default seed.
    pub digest: u64,
    /// Digest of the part the traced decomposition reproduces (equal to
    /// `digest` unless the workload says otherwise).
    pub parity: u64,
    /// Operations done: sweep cells, serve runs or fleet sites.
    pub units: u64,
    /// Offered logical requests simulated (for the sweep: inferences
    /// completed in the measured windows).
    pub requests: u64,
    /// Failed output checks, empty when the output is sane.
    pub problems: Vec<String>,
    /// Simulated headline values, printed as checked outputs.
    pub headline: String,
}

/// Where a set-up records its spans, when traced.
pub type TraceAt<'a> = Option<(&'a Tracer, SpanId)>;

/// Runs `f` inside span `name` when traced, plainly otherwise.
pub fn spanned<R>(at: TraceAt<'_>, name: &'static str, f: impl FnOnce(TraceAt<'_>) -> R) -> R {
    match at {
        Some((tracer, parent)) => tracer.span(name, Some(parent), |id| f(Some((tracer, id)))),
        None => f(None),
    }
}

/// One benchmark workload.
pub trait Workload: Sized + Sync {
    /// Generates the inputs from the benchmark seed, resolves them into
    /// program specs and builds every engine the operations use (so the
    /// process-wide engine cache is warm afterwards).
    fn setup(seed: u64, at: TraceAt<'_>) -> Self;

    /// Number of distinct operations in one pass.
    fn kinds(&self) -> usize;

    /// Runs operation `kind` through the program's top-level API.
    fn run(&self, kind: usize) -> OpResult;

    /// Runs operation `kind` through its constituent public calls, each
    /// inside a span under `parent`, adding layer counts to `counters`.
    /// Returns the parity digest, which must equal the untraced one.
    fn run_traced(
        &self,
        kind: usize,
        tracer: &Tracer,
        parent: SpanId,
        counters: &mut Counters,
    ) -> u64;
}
