//! Fixed program configuration and workload parameters. Every value here
//! is printed with each result (see `provenance` in `main.rs`).

use granii_matrix::device::DeviceKind;

/// Device the cost models are trained for and plans are charged against.
pub const DEVICE: DeviceKind = DeviceKind::Cpu;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The seed to quote by default, and the one kept back for re-checking a
/// claim on inputs its author did not tune on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// Layers-add-up tolerance, offline: per job, the profiled `iter`
/// instruction time may differ from the benchmark-timed `iterate` total by
/// at most this share of the latter.
pub const ITERATE_SUM_TOL: f64 = 0.10;

/// Layers-add-up tolerance, serve: per request, queue + select + execute
/// may differ from (benchmark-measured latency − generator lateness) by at
/// most `STAGE_SUM_TOL_MS + STAGE_SUM_TOL_REL × that latency`, and at most
/// `STAGE_SUM_MAX_OUTSIDE` of the requests may fall outside it.
pub const STAGE_SUM_TOL_MS: f64 = 1.0;
pub const STAGE_SUM_TOL_REL: f64 = 0.25;
pub const STAGE_SUM_MAX_OUTSIDE: f64 = 0.05;

/// Share of `--seconds` a serve run spends at its nominal rate; the rest
/// goes to the goodput ladder (traced, to the nominal traffic again with
/// tracing on).
pub const NOMINAL_SHARE: f64 = 0.6;

/// An open-loop serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Offered rate at which `p50_ms` / `p99_ms` are reported; the goodput
    /// ladder is `nominal_rps × 2^(k / RUNGS_PER_OCTAVE)` for `k` in
    /// `LADDER_LOW..=LADDER_HIGH`.
    pub nominal_rps: f64,
    /// Highest p99 a ladder rung may show.
    pub p99_limit_ms: f64,
}

/// Highest (errors + sheds) / offered a ladder rung may show.
pub const LADDER_FAILED_LIMIT: f64 = 0.01;

pub const RUNGS_PER_OCTAVE: i32 = 8;
pub const LADDER_LOW: i32 = -16;
pub const LADDER_HIGH: i32 = 24;

pub const SERVE_HOT: ServeSpec = ServeSpec {
    nominal_rps: 200.0,
    p99_limit_ms: 50.0,
};

pub const SERVE_COLD: ServeSpec = ServeSpec {
    nominal_rps: 100.0,
    p99_limit_ms: 100.0,
};
