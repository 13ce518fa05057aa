//! Online input-drift detection: the second drift lane, keyed on input
//! statistics rather than cost-model residuals.
//!
//! GRANII's premise is that *input statistics* pick the primitive
//! composition — so a cached plan is only as good as the match between the
//! graph the selector inspected and the graphs the signature keeps serving.
//! The residual lane ([`crate::drift`]) cannot see this failure mode: a
//! cached plan executes its *bound* inputs, so its measured cost keeps
//! matching its prediction even while the tenant's live graph walks away
//! from what selection saw. This lane watches the inputs themselves.
//!
//! Per plan signature the inspector keeps two [`InputProfile`]s:
//!
//! - the **reference**, captured at plan-selection time (every cache miss
//!   re-pins it via [`InputInspector::rebind`]), and
//! - the **live** profile, an EWMA fold of each request's cheap O(nodes)
//!   degree statistics ([`InputInspector::observe`]).
//!
//! Divergence is measured two ways, matching how degree distributions
//! actually shift: the **L1 distance over degree-band fractions**
//! (empty/low/mid/high/hub — mass moving between bands), and the absolute
//! **degree-CV delta** (a single injected hub barely moves band mass but
//! explodes the coefficient of variation). Either crossing its threshold
//! counts as divergence; sustained divergence — `k_consecutive` times after
//! a `min_samples` warmup, through the gate the residual lane also uses
//! ([`crate::detector`]) — **flags** the signature: the server invalidates
//! its cached plan (forcing re-selection on the graph as it is now), bumps
//! `serve.input_drift_flagged`, and emits a structured `serve.input_drift`
//! event. A per-signature cooldown rate-limits flag storms while the tenant
//! keeps mutating.

use granii_graph::{Graph, GraphFeatures};

use crate::cache::PlanKey;
use crate::detector::Detector;

/// Number of degree bands tracked: empty, (0,8], (8,64], (64,512], >512.
pub const DEGREE_BANDS: usize = 5;

/// The slice of a graph's feature vector the input-drift lane watches:
/// degree-band fractions plus the summary shape statistics. Cheap to
/// extract (one O(nodes) pass, no allocation on the tracked counters) and
/// cheap to compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputProfile {
    /// Fractions of nodes per degree band (sums to 1 for non-empty graphs):
    /// `[empty, (0,8], (8,64], (64,512], >512]`.
    pub bands: [f64; DEGREE_BANDS],
    /// Average out-degree.
    pub avg_degree: f64,
    /// Degree coefficient of variation (skew proxy).
    pub degree_cv: f64,
    /// Adjacency density `nnz / n²`.
    pub density: f64,
}

impl InputProfile {
    /// Builds a profile from already-extracted graph features.
    pub fn from_features(f: &GraphFeatures) -> Self {
        InputProfile {
            bands: [
                f.empty_row_fraction,
                f.frac_deg_low,
                f.frac_deg_mid,
                f.frac_deg_high,
                f.frac_deg_hub,
            ],
            avg_degree: f.avg_degree,
            degree_cv: f.degree_cv,
            density: f.density,
        }
    }

    /// Extracts a profile directly from a graph (one O(nodes) pass).
    pub fn extract(graph: &Graph) -> Self {
        Self::from_features(&GraphFeatures::extract(graph))
    }

    /// L1 distance between the two profiles' degree-band distributions,
    /// in `[0, 2]`.
    pub fn band_l1(&self, other: &InputProfile) -> f64 {
        self.bands
            .iter()
            .zip(other.bands.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// EWMA-folds `sample` into `self` with smoothing factor `alpha`.
    fn fold(&mut self, sample: &InputProfile, alpha: f64) {
        let lerp = |current: f64, new: f64| alpha * new + (1.0 - alpha) * current;
        for (band, sample_band) in self.bands.iter_mut().zip(sample.bands.iter()) {
            *band = lerp(*band, *sample_band);
        }
        self.avg_degree = lerp(self.avg_degree, sample.avg_degree);
        self.degree_cv = lerp(self.degree_cv, sample.degree_cv);
        self.density = lerp(self.density, sample.density);
    }
}

/// Tuning knobs for the input-drift lane. Defaults mirror the residual
/// lane's conservatism: a flag requires sustained divergence — three
/// consecutive observations past a three-request warmup — and a quarter of
/// the band mass (or a 0.75 CV shift) to have moved.
#[derive(Debug, Clone, Copy)]
pub struct InspectConfig {
    /// Master switch; when false, `observe` records nothing.
    pub enabled: bool,
    /// EWMA smoothing factor in (0, 1] for the live profile.
    pub alpha: f64,
    /// Flag when the live band distribution's L1 distance from the
    /// reference exceeds this (band mass fraction moved, in `[0, 2]`).
    pub band_l1_threshold: f64,
    /// Flag when `|live.degree_cv − reference.degree_cv|` exceeds this
    /// (catches hub injection, which moves CV long before band mass).
    pub cv_threshold: f64,
    /// Observations required before the signature is eligible to flag.
    pub min_samples: u32,
    /// Consecutive diverged observations required to flag.
    pub k_consecutive: u32,
    /// Observations to ignore for flagging after a flag.
    pub cooldown: u32,
}

impl Default for InspectConfig {
    fn default() -> Self {
        InspectConfig {
            enabled: true,
            alpha: 0.3,
            band_l1_threshold: 0.25,
            cv_threshold: 0.75,
            min_samples: 3,
            k_consecutive: 3,
            cooldown: 32,
        }
    }
}

/// Per-signature inspection signal. Unlike the residual lane, it is
/// (re)anchored on every cache miss: re-selection inspects the graph as it
/// is now, so the new plan's reference must be the new profile.
#[derive(Debug, Clone, Copy)]
struct Profiles {
    reference: InputProfile,
    live: InputProfile,
    band_l1: f64,
    cv_delta: f64,
}

impl Profiles {
    fn anchored(profile: InputProfile) -> Self {
        Profiles {
            reference: profile,
            live: profile,
            band_l1: 0.0,
            cv_delta: 0.0,
        }
    }
}

/// What `observe` decided for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InspectVerdict {
    /// Profile folded; live distribution within tolerance of the reference
    /// (or warming up / cooling down).
    Ok,
    /// Signature just crossed the flagging criteria: the caller should
    /// invalidate its plan-cache entry and emit the input-drift event.
    Flagged {
        /// Band-distribution L1 distance at flag time.
        band_l1: f64,
        /// Absolute degree-CV delta at flag time.
        cv_delta: f64,
        /// The live profile at flag time.
        live: InputProfile,
        /// The selection-time reference profile.
        reference: InputProfile,
    },
}

/// One row of the input table exposed on the status surface.
#[derive(Debug, Clone, Copy)]
pub struct InputRow {
    /// The plan signature this row tracks.
    pub key: PlanKey,
    /// Selection-time reference profile.
    pub reference: InputProfile,
    /// EWMA live profile.
    pub live: InputProfile,
    /// Band L1 distance between live and reference at last observation.
    pub band_l1: f64,
    /// Absolute degree-CV delta at last observation.
    pub cv_delta: f64,
    /// Profiles folded since the last rebind.
    pub samples: u64,
    /// Times this signature has been flagged (survives rebinds).
    pub flags: u64,
    /// Remaining cooldown observations (0 = eligible to flag).
    pub cooldown: u32,
}

/// Per-signature input-profile tracker. One instance lives in the server's
/// shared state; [`InputInspector::rebind`] is called at plan-selection
/// time and [`InputInspector::observe`] once per served request.
pub struct InputInspector {
    config: InspectConfig,
    detector: Detector<Profiles>,
}

impl InputInspector {
    /// Creates an inspector with the given tuning.
    pub fn new(config: InspectConfig) -> Self {
        InputInspector {
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
    pub fn config(&self) -> &InspectConfig {
        &self.config
    }

    /// (Re)pins `key`'s reference to `profile` — called at plan-selection
    /// time, i.e. on every cache miss. The live profile and divergence
    /// streak restart from the reference; the flag tally and any active
    /// cooldown survive, so a flapping tenant cannot reset its own rate
    /// limit by triggering re-selection.
    pub fn rebind(&self, key: PlanKey, profile: InputProfile) {
        self.detector.rebind(key, Profiles::anchored(profile));
    }

    /// Folds one request's profile into `key`'s live state and checks it
    /// against the selection-time reference. A key never rebound (inspector
    /// enabled mid-flight) is anchored on first observation.
    pub fn observe(&self, key: PlanKey, profile: &InputProfile) -> InspectVerdict {
        let config = &self.config;
        let flagged = self.detector.observe(
            key,
            || Profiles::anchored(*profile),
            |signal, samples| {
                if samples > 1 {
                    signal.live.fold(profile, config.alpha);
                } else {
                    signal.live = *profile;
                }
                signal.band_l1 = signal.live.band_l1(&signal.reference);
                signal.cv_delta = (signal.live.degree_cv - signal.reference.degree_cv).abs();
                signal.band_l1 > config.band_l1_threshold || signal.cv_delta > config.cv_threshold
            },
        );
        flagged.map_or(InspectVerdict::Ok, |signal| InspectVerdict::Flagged {
            band_l1: signal.band_l1,
            cv_delta: signal.cv_delta,
            live: signal.live,
            reference: signal.reference,
        })
    }

    /// Total flags raised across all signatures.
    pub fn total_flags(&self) -> u64 {
        self.detector.total_flags()
    }

    /// Snapshot of every tracked signature, sorted by key (status surface).
    pub fn rows(&self) -> Vec<InputRow> {
        self.detector.rows(|key, signal, state| InputRow {
            key,
            reference: signal.reference,
            live: signal.live,
            band_l1: signal.band_l1,
            cv_delta: signal.cv_delta,
            samples: state.samples,
            flags: state.flags,
            cooldown: state.cooldown,
        })
    }

    /// Drops all per-signature state (model hot-swap).
    pub fn reset(&self) {
        self.detector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_gnn::spec::ModelKind;
    use granii_graph::generators;

    fn key() -> PlanKey {
        (ModelKind::Gcn, 0xabcd, 64, 32)
    }

    fn uniform() -> InputProfile {
        InputProfile {
            bands: [0.0, 1.0, 0.0, 0.0, 0.0],
            avg_degree: 2.0,
            degree_cv: 0.0,
            density: 0.01,
        }
    }

    fn hubby() -> InputProfile {
        InputProfile {
            bands: [0.0, 0.5, 0.3, 0.1, 0.1],
            avg_degree: 18.0,
            degree_cv: 4.0,
            density: 0.05,
        }
    }

    #[test]
    fn profile_extraction_matches_features() {
        let g = generators::star(100).unwrap();
        let p = InputProfile::extract(&g);
        let f = GraphFeatures::extract(&g);
        assert_eq!(p.bands[1], f.frac_deg_low);
        assert_eq!(p.bands[3], f.frac_deg_high);
        assert_eq!(p.degree_cv, f.degree_cv);
        let total: f64 = p.bands.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn band_l1_is_symmetric_and_bounded() {
        let a = uniform();
        let b = hubby();
        assert_eq!(a.band_l1(&b), b.band_l1(&a));
        assert!(a.band_l1(&b) <= 2.0);
        assert_eq!(a.band_l1(&a), 0.0);
    }

    #[test]
    fn stable_input_never_flags() {
        let inspector = InputInspector::new(InspectConfig::default());
        inspector.rebind(key(), uniform());
        for _ in 0..200 {
            assert_eq!(inspector.observe(key(), &uniform()), InspectVerdict::Ok);
        }
        assert_eq!(inspector.total_flags(), 0);
    }

    #[test]
    fn mutated_input_flags_after_warmup_plus_k() {
        let inspector = InputInspector::new(InspectConfig::default());
        inspector.rebind(key(), uniform());
        let mut flagged_at = None;
        for i in 1..=20u32 {
            if let InspectVerdict::Flagged {
                band_l1, cv_delta, ..
            } = inspector.observe(key(), &hubby())
            {
                assert!(band_l1 > 0.25 || cv_delta > 0.75);
                flagged_at = Some(i);
                break;
            }
        }
        // Warmup (3) and the consecutive streak (3) overlap exactly as in
        // the residual lane: observations 3, 4, 5 count, flag on 5.
        assert_eq!(flagged_at, Some(5));
    }

    #[test]
    fn cv_shift_alone_flags_hub_injection() {
        // Hub injection: band mass barely moves (one node changes band) but
        // the degree CV explodes. Only the CV criterion can catch it.
        let reference = uniform();
        let mut spiked = uniform();
        spiked.degree_cv = 6.0;
        spiked.avg_degree = 3.2;
        let inspector = InputInspector::new(InspectConfig {
            band_l1_threshold: 0.25,
            cv_threshold: 0.75,
            ..InspectConfig::default()
        });
        inspector.rebind(key(), reference);
        let mut flagged = false;
        for _ in 0..10 {
            if matches!(
                inspector.observe(key(), &spiked),
                InspectVerdict::Flagged { .. }
            ) {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "CV-only divergence must flag");
    }

    #[test]
    fn rebind_quiets_the_lane_after_reselection() {
        let inspector = InputInspector::new(InspectConfig {
            cooldown: 0,
            ..InspectConfig::default()
        });
        inspector.rebind(key(), uniform());
        let mut flagged = false;
        for _ in 0..10 {
            if matches!(
                inspector.observe(key(), &hubby()),
                InspectVerdict::Flagged { .. }
            ) {
                flagged = true;
                break;
            }
        }
        assert!(flagged);
        // Re-selection saw the mutated graph: reference becomes the new
        // shape, so continuing to serve it is no longer divergence.
        inspector.rebind(key(), hubby());
        for _ in 0..50 {
            assert_eq!(inspector.observe(key(), &hubby()), InspectVerdict::Ok);
        }
        assert_eq!(inspector.total_flags(), 1);
        let rows = inspector.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].flags, 1);
        assert!(rows[0].band_l1 < 1e-9);
    }

    #[test]
    fn cooldown_rate_limits_flag_storms() {
        let inspector = InputInspector::new(InspectConfig {
            min_samples: 1,
            k_consecutive: 1,
            cooldown: 10,
            ..InspectConfig::default()
        });
        inspector.rebind(key(), uniform());
        let mut flags = 0u64;
        for _ in 0..30 {
            if matches!(
                inspector.observe(key(), &hubby()),
                InspectVerdict::Flagged { .. }
            ) {
                flags += 1;
            }
        }
        // Flag on 1, cooldown swallows 2..=11, flag on 12, cooldown
        // swallows 13..=22, flag on 23: 3 flags, not 30.
        assert_eq!(flags, 3);
    }

    #[test]
    fn disabled_inspector_is_inert() {
        let inspector = InputInspector::new(InspectConfig {
            enabled: false,
            ..InspectConfig::default()
        });
        inspector.rebind(key(), uniform());
        for _ in 0..20 {
            assert_eq!(inspector.observe(key(), &hubby()), InspectVerdict::Ok);
        }
        assert!(inspector.rows().is_empty());
    }
}
