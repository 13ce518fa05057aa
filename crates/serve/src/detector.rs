//! The flag gate both drift lanes share: the per-signature table behind one
//! poison-tolerant lock, the warmup / `k_consecutive` / cooldown state
//! machine, and the flag tally. Each lane ([`crate::drift`],
//! [`crate::inspect`]) supplies only its signal and its threshold test.
//!
//! A signature flags once its signal has been beyond threshold for
//! `k_consecutive` observations after a `min_samples` warmup. The next
//! `cooldown` observations cannot flag, so a persistently broken signature
//! does not turn every request into a flag + invalidation storm.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cache::PlanKey;

/// One signature's gate state. It survives plan-cache invalidation on
/// purpose: the cooldown must keep counting across the re-selection the
/// flag triggered, otherwise a still-broken signature re-flags immediately.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GateState {
    /// Observations since the signature was first seen or last rebound.
    pub samples: u64,
    consecutive: u32,
    /// Remaining cooldown observations (0 = eligible to flag).
    pub cooldown: u32,
    /// Times this signature has been flagged.
    pub flags: u64,
}

/// Per-signature signals of type `S`, each behind the shared flag gate.
pub(crate) struct Detector<S> {
    enabled: bool,
    min_samples: u32,
    k_consecutive: u32,
    cooldown: u32,
    states: Mutex<BTreeMap<PlanKey, (S, GateState)>>,
}

impl<S: Copy> Detector<S> {
    /// A detector with the given gate; when not `enabled` it records
    /// nothing.
    pub(crate) fn new(enabled: bool, min_samples: u32, k_consecutive: u32, cooldown: u32) -> Self {
        Detector {
            enabled,
            min_samples,
            k_consecutive,
            cooldown,
            states: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts one observation for `key`, whose signal `init` creates on
    /// first sight. `update` folds the observation into the signal, given
    /// the observation count including this one, and says whether the
    /// signal is beyond its threshold. Returns the signal when the
    /// signature flags.
    pub(crate) fn observe(
        &self,
        key: PlanKey,
        init: impl FnOnce() -> S,
        update: impl FnOnce(&mut S, u64) -> bool,
    ) -> Option<S> {
        if !self.enabled {
            return None;
        }
        let mut states = self.lock();
        let (signal, state) = states
            .entry(key)
            .or_insert_with(|| (init(), GateState::default()));
        state.samples += 1;
        let beyond = update(signal, state.samples);
        if state.cooldown > 0 {
            state.cooldown -= 1;
            state.consecutive = 0;
            return None;
        }
        if beyond && state.samples >= u64::from(self.min_samples) {
            state.consecutive += 1;
        } else {
            state.consecutive = 0;
        }
        if state.consecutive < self.k_consecutive.max(1) {
            return None;
        }
        state.consecutive = 0;
        state.cooldown = self.cooldown;
        state.flags += 1;
        Some(*signal)
    }

    /// Replaces `key`'s signal and restarts its warmup and streak. The flag
    /// tally and any active cooldown survive, so a flapping signature cannot
    /// reset its own rate limit by triggering re-selection.
    pub(crate) fn rebind(&self, key: PlanKey, signal: S) {
        if !self.enabled {
            return;
        }
        let mut states = self.lock();
        let (current, state) = states
            .entry(key)
            .or_insert_with(|| (signal, GateState::default()));
        *current = signal;
        state.samples = 0;
        state.consecutive = 0;
    }

    /// Total flags raised across all signatures.
    pub(crate) fn total_flags(&self) -> u64 {
        self.lock().values().map(|(_, state)| state.flags).sum()
    }

    /// One row per tracked signature, sorted by key.
    pub(crate) fn rows<R>(&self, row: impl Fn(PlanKey, &S, &GateState) -> R) -> Vec<R> {
        self.lock()
            .iter()
            .map(|(key, (signal, state))| row(*key, signal, state))
            .collect()
    }

    /// Drops all per-signature state.
    pub(crate) fn reset(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<PlanKey, (S, GateState)>> {
        self.states.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
