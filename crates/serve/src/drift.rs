//! Online cost-model drift detection (per plan-cache signature).
//!
//! Selection quality rests entirely on the cost models ranking candidates
//! correctly (paper §VI-G). A model that was accurate at training time can
//! quietly stop matching reality — retrained on bad data, deployed for the
//! wrong device, or simply stale. The audit layer (`granii.verify`) can
//! measure the resulting regret offline, but a serving process needs to
//! notice *while running*, from signals it already has.
//!
//! The detector watches, per cached plan signature, the log-space residual
//! between what the cost model promised and what execution actually cost:
//!
//! ```text
//! r = ln(measured_steady_seconds) − ln(predicted_steady_seconds)
//! ```
//!
//! Both sides are steady-state (per-iteration) figures: the prediction sums
//! only non-hoisted steps ([`granii_core::cost::CostModelSet::predict_steady_state`])
//! and the measurement is the engine-charged cost of one
//! [`granii_core::execplan::BoundPlan::iterate`]. Log space mirrors how the
//! models are trained (they regress `ln(latency)`) and makes the threshold a
//! *ratio*: `|r| > ln(2)` means off by more than 2×, in either direction.
//!
//! Each signature keeps an EWMA of the residual. When the smoothed residual
//! exceeds the threshold for `k_consecutive` observations (after a
//! `min_samples` warmup), the signature is **flagged**: the server bumps
//! `serve.drift_flagged`, emits a structured `serve.drift` event, and
//! invalidates the signature's plan-cache entry so the next request
//! re-selects. A per-signature cooldown keeps a persistently-broken model
//! from turning every request into a flag + invalidation storm. The gate
//! itself is shared with the input-drift lane ([`crate::detector`]).

use crate::cache::PlanKey;
use crate::detector::Detector;

/// Tuning knobs for the drift detector. Defaults are deliberately
/// conservative: a flag requires the smoothed residual to sit beyond a 2×
/// ratio for three consecutive requests after a three-request warmup.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Master switch; when false, `observe` records nothing.
    pub enabled: bool,
    /// EWMA smoothing factor in (0, 1]; higher reacts faster.
    pub alpha: f64,
    /// Flag when `|ewma residual| > threshold` (log-space, so `ln(2)` means
    /// "off by more than 2×").
    pub threshold: f64,
    /// Observations required before the residual is eligible to flag.
    pub min_samples: u32,
    /// Consecutive above-threshold observations required to flag.
    pub k_consecutive: u32,
    /// Observations to ignore for flagging after a flag (rate-limits re-flag
    /// storms while the operator repairs the model).
    pub cooldown: u32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            enabled: true,
            alpha: 0.3,
            threshold: std::f64::consts::LN_2,
            min_samples: 3,
            k_consecutive: 3,
            cooldown: 32,
        }
    }
}

/// Per-signature residual signal.
#[derive(Debug, Clone, Copy)]
struct Residual {
    ewma: f64,
    last: f64,
}

/// What `observe` decided for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftVerdict {
    /// Residual recorded; signature within tolerance (or still warming up /
    /// cooling down).
    Ok,
    /// Signature just crossed the flagging criteria: the caller should
    /// invalidate its plan-cache entry and emit the drift event. Carries the
    /// smoothed residual at flag time.
    Flagged { ewma_residual: f64 },
}

/// One row of the drift table exposed on the status surface.
#[derive(Debug, Clone, Copy)]
pub struct DriftRow {
    /// The plan signature this row tracks.
    pub key: PlanKey,
    /// Smoothed log-space residual (positive: slower than predicted).
    pub ewma_residual: f64,
    /// Most recent raw residual.
    pub last_residual: f64,
    /// Residual observations recorded.
    pub samples: u64,
    /// Times this signature has been flagged.
    pub flags: u64,
    /// Remaining cooldown observations (0 = eligible to flag).
    pub cooldown: u32,
}

/// Per-signature EWMA residual tracker. One instance lives in the server's
/// shared state; `observe` is called once per successfully served request
/// that has a steady-state prediction.
pub struct DriftDetector {
    config: DriftConfig,
    detector: Detector<Residual>,
}

impl DriftDetector {
    /// Creates a detector with the given tuning.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            detector: Detector::new(
                config.enabled,
                config.min_samples,
                config.k_consecutive,
                config.cooldown,
            ),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Feeds one (measured, predicted) steady-state pair for `key`.
    /// Non-positive or non-finite inputs are ignored — a zero-cost
    /// measurement carries no ratio information.
    pub fn observe(
        &self,
        key: PlanKey,
        measured_seconds: f64,
        predicted_seconds: f64,
    ) -> DriftVerdict {
        if !(measured_seconds.is_finite()
            && measured_seconds > 0.0
            && predicted_seconds.is_finite()
            && predicted_seconds > 0.0)
        {
            return DriftVerdict::Ok;
        }
        let residual = measured_seconds.ln() - predicted_seconds.ln();
        let config = &self.config;
        let flagged = self.detector.observe(
            key,
            || Residual {
                ewma: residual,
                last: residual,
            },
            |signal, samples| {
                signal.last = residual;
                if samples > 1 {
                    signal.ewma = config.alpha * residual + (1.0 - config.alpha) * signal.ewma;
                }
                signal.ewma.abs() > config.threshold
            },
        );
        flagged.map_or(DriftVerdict::Ok, |signal| DriftVerdict::Flagged {
            ewma_residual: signal.ewma,
        })
    }

    /// Total flags raised across all signatures.
    pub fn total_flags(&self) -> u64 {
        self.detector.total_flags()
    }

    /// Snapshot of every tracked signature, sorted by key (status surface).
    pub fn rows(&self) -> Vec<DriftRow> {
        self.detector.rows(|key, signal, state| DriftRow {
            key,
            ewma_residual: signal.ewma,
            last_residual: signal.last,
            samples: state.samples,
            flags: state.flags,
            cooldown: state.cooldown,
        })
    }

    /// Drops all per-signature state (model hot-swap: residual history from
    /// the old model says nothing about the new one).
    pub fn reset(&self) {
        self.detector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_gnn::spec::ModelKind;

    fn key() -> PlanKey {
        (ModelKind::Gcn, 0xfeed, 64, 32)
    }

    fn detector(k: u32, cooldown: u32) -> DriftDetector {
        DriftDetector::new(DriftConfig {
            enabled: true,
            alpha: 0.3,
            threshold: std::f64::consts::LN_2,
            min_samples: 3,
            k_consecutive: k,
            cooldown,
        })
    }

    #[test]
    fn accurate_model_never_flags() {
        let d = detector(3, 8);
        for _ in 0..200 {
            // 20% off: inside the 2x threshold.
            assert_eq!(d.observe(key(), 1.2e-3, 1.0e-3), DriftVerdict::Ok);
        }
        assert_eq!(d.total_flags(), 0);
    }

    #[test]
    fn sustained_mismatch_flags_after_warmup_plus_k() {
        let d = detector(3, 8);
        let mut flagged_at = None;
        for i in 1..=20u32 {
            if let DriftVerdict::Flagged { ewma_residual } = d.observe(key(), 1.0, 1.0e-6) {
                assert!(ewma_residual > std::f64::consts::LN_2);
                flagged_at = Some(i);
                break;
            }
        }
        // min_samples = 3 and k = 3 overlap: observations 3, 4, 5 are both
        // past warmup and consecutive, so the flag lands on observation 5.
        assert_eq!(flagged_at, Some(5));
    }

    #[test]
    fn cooldown_rate_limits_reflag_storms() {
        let d = detector(1, 10);
        let mut flags = 0u64;
        for _ in 0..30 {
            if matches!(d.observe(key(), 1.0, 1.0e-6), DriftVerdict::Flagged { .. }) {
                flags += 1;
            }
        }
        // Observation 3 flags (warmup), then 10 cooldown observations
        // swallow 4..=13, observation 14 flags again, cooldown swallows
        // 15..=24, observation 25 flags: 3 flags in 30 observations, not 28.
        assert_eq!(flags, 3);
        assert_eq!(d.total_flags(), 3);
    }

    #[test]
    fn recovery_clears_consecutive_counter() {
        let d = detector(3, 0);
        // Two above-threshold observations past warmup (2.5x off: residual
        // ~0.92, just over the ln 2 threshold)...
        for _ in 0..4 {
            d.observe(key(), 2.5e-3, 1.0e-3);
        }
        // ...then one accurate observation drags the EWMA under the
        // threshold (0.7 * 0.92 ~ 0.64 < ln 2) before the third consecutive
        // breach accrues, so the streak resets and nothing ever flags.
        let mut flagged = false;
        for _ in 0..50 {
            if matches!(
                d.observe(key(), 1.0e-3, 1.0e-3),
                DriftVerdict::Flagged { .. }
            ) {
                flagged = true;
            }
        }
        assert!(!flagged, "EWMA decayed back under threshold; no flag");
        let rows = d.rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ewma_residual.abs() < std::f64::consts::LN_2);
        assert_eq!(rows[0].flags, 0);
    }

    #[test]
    fn disabled_detector_is_inert() {
        let d = DriftDetector::new(DriftConfig {
            enabled: false,
            ..DriftConfig::default()
        });
        for _ in 0..20 {
            assert_eq!(d.observe(key(), 1.0, 1.0e-9), DriftVerdict::Ok);
        }
        assert!(d.rows().is_empty());
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let d = detector(1, 0);
        for _ in 0..10 {
            assert_eq!(d.observe(key(), 0.0, 1.0), DriftVerdict::Ok);
            assert_eq!(d.observe(key(), 1.0, 0.0), DriftVerdict::Ok);
            assert_eq!(d.observe(key(), f64::NAN, 1.0), DriftVerdict::Ok);
        }
        assert!(d.rows().is_empty());
    }
}
