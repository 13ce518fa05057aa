//! The per-tenant table: admission fairness and resource metering in one
//! lock-free structure.
//!
//! A tenant is a plan signature's graph fingerprint (pinned via
//! [`crate::ServeRequest::with_signature`] or derived from the graph's
//! content). The [`TenantTable`] keeps two kinds of per-tenant state in the
//! same slot:
//!
//! - **Admission bound.** Without a per-tenant bound, one hot tenant can
//!   fill the entire admission queue and starve everyone else *before* the
//!   queue-depth check ever sheds. The table bounds how many queued
//!   (admitted but not yet dequeued) requests any single tenant may hold:
//!   `max(1, queue_depth × share)` ([`TenantTable::try_admit`]).
//! - **Metering ledger.** GRANII's premise is that per-input inspection
//!   drives per-input cost, so two tenants issuing the same request *rate*
//!   can consume wildly different engine time (SENSEi, arXiv:2306.15155).
//!   [`TenantTable::record`] attributes every engine charge, flop, and byte
//!   back to the tenant that caused it, alongside queue wait, batch share,
//!   cache behavior, sheds, degradations, and SLO violations.
//!
//! The table is lock-free, matching the admission and worker paths it sits
//! on: a fixed array of slots claimed by fingerprint CAS, linear-probed
//! from `fingerprint % slots`. Tenants beyond the probe window share one
//! overflow slot (still bounded and metered, just collectively) — serving
//! workloads have a small working set of signatures, so in practice every
//! tenant gets its own slot. Every counter is a relaxed `AtomicU64`, so
//! admitting or metering a request is a handful of uncontended atomics and
//! never allocates: the zero-alloc cache-hit contract holds with the
//! ledger always on.
//!
//! **Attribution is exact, not approximate.** A coalesced batch's charge is
//! converted to integer nanoseconds *once*; members receive `total / n`
//! with the remainder folded into the group leader ([`exact_share`]), and
//! the identical integers are added to both the tenant slot and the global
//! totals slot. Because `u64` addition is exact and order-free, the sum of
//! per-tenant charges equals the server-total charge *bitwise* — the
//! invariant `crates/serve/tests/metering.rs` proptests across batched,
//! serial, degraded, and shed paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed tenant-slot count; fingerprints that cannot claim a slot within
/// the probe window share the overflow slot.
const TENANT_SLOTS: usize = 64;

/// Linear-probe distance before giving up and using the overflow slot.
const PROBE_LIMIT: usize = 8;

/// One tenant's admission and ledger counters. `fp == 0` means unclaimed
/// (the all-zero fingerprint, should a graph ever hash to it, shares the
/// overflow slot — a capacity nuance, never a correctness one).
#[derive(Default)]
struct TenantSlot {
    fp: AtomicU64,
    queued: AtomicU64,
    admitted: AtomicU64,
    tenant_shed: AtomicU64,
    requests: AtomicU64,
    batched_requests: AtomicU64,
    charged_ns: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
    queue_wait_ns: AtomicU64,
    batch_share_ppm: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sheds: AtomicU64,
    degraded: AtomicU64,
    slo_violations: AtomicU64,
}

impl TenantSlot {
    fn row(&self, fingerprint: u64) -> MeterRow {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MeterRow {
            fingerprint,
            queued: load(&self.queued),
            admitted: load(&self.admitted),
            tenant_shed: load(&self.tenant_shed),
            requests: load(&self.requests),
            batched_requests: load(&self.batched_requests),
            charged_ns: load(&self.charged_ns),
            flops: load(&self.flops),
            bytes: load(&self.bytes),
            queue_wait_ns: load(&self.queue_wait_ns),
            batch_share_ppm: load(&self.batch_share_ppm),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            sheds: load(&self.sheds),
            degraded: load(&self.degraded),
            slo_violations: load(&self.slo_violations),
        }
    }
}

/// What one finished request cost its tenant (integer units so the ledger
/// identity holds bitwise — see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeterCharge {
    /// This member's exact share of the engine-charged nanoseconds.
    pub charged_ns: u64,
    /// This member's exact share of the attributed flops.
    pub flops: u64,
    /// This member's exact share of the attributed bytes (read + written).
    pub bytes: u64,
    /// Nanoseconds the request waited between admission and dequeue.
    pub queue_wait_ns: u64,
    /// Size of the coalesced group the request executed in (1 = serial).
    pub batch: u32,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the degraded (default-composition) path served it.
    pub degraded: bool,
}

/// Point-in-time snapshot of one tenant's slot: its admission counters and
/// its meters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeterRow {
    /// The tenant's plan-signature fingerprint (`0` aggregates overflow
    /// tenants; in [`TenantTable::totals`] it is the server-wide sum).
    pub fingerprint: u64,
    /// Requests currently queued for this tenant.
    pub queued: u64,
    /// Requests the per-tenant bound admitted over the server's
    /// lifetime.
    pub admitted: u64,
    /// Requests shed by the per-tenant bound (a subset of `sheds`).
    pub tenant_shed: u64,
    /// Requests completed for this tenant.
    pub requests: u64,
    /// Completed requests that executed inside a coalesced batch (size>1).
    pub batched_requests: u64,
    /// Exact engine-charged nanoseconds attributed to this tenant.
    pub charged_ns: u64,
    /// Exact flops attributed to this tenant.
    pub flops: u64,
    /// Exact bytes attributed to this tenant.
    pub bytes: u64,
    /// Total nanoseconds this tenant's requests spent queued.
    pub queue_wait_ns: u64,
    /// Accumulated `1e6 / batch` per request; divide by `requests` for the
    /// mean fraction of an execute this tenant's requests occupied.
    pub batch_share_ppm: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (selection + bind paid).
    pub cache_misses: u64,
    /// Requests shed before execution (queue full, tenant cap, ring race).
    pub sheds: u64,
    /// Requests served by the degraded path.
    pub degraded: u64,
    /// Completed requests that violated their SLO objective's threshold.
    pub slo_violations: u64,
}

impl MeterRow {
    /// Whether the admission bound has seen this tenant (the status
    /// `fairness` section lists exactly these rows).
    pub fn admission_seen(&self) -> bool {
        self.admitted > 0 || self.tenant_shed > 0
    }

    /// Whether the ledger has metered this tenant (the status `metering`
    /// section and [`TenantTable::rows`] list exactly these rows).
    pub fn metered(&self) -> bool {
        self.requests > 0 || self.sheds > 0 || self.slo_violations > 0
    }

    /// Mean fraction of an execute occupied per request (1.0 = always
    /// serial, 0.125 = always riding 8-wide batches).
    pub fn mean_batch_share(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.batch_share_ppm as f64 / 1e6 / self.requests as f64
        }
    }

    /// Mean queue wait in milliseconds per completed request.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / 1e6 / self.requests as f64
        }
    }

    /// Cache hit rate over completed requests.
    pub fn hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }
}

/// Splits a group total exactly across `n` members: every member receives
/// `total / n` and member 0 (the group leader) absorbs the remainder, so
/// the shares always sum to `total` bitwise.
pub fn exact_share(total: u64, n: usize, member: usize) -> u64 {
    let n = n.max(1) as u64;
    let base = total / n;
    if member == 0 {
        base + total % n
    } else {
        base
    }
}

/// Lock-free per-tenant admission bounds and metering ledger (see module
/// docs).
pub struct TenantTable {
    slots: Box<[TenantSlot]>,
    overflow: TenantSlot,
    /// Server-wide ledger sums, fed the identical integers as the tenant
    /// slots (its admission counters stay zero).
    totals: TenantSlot,
    /// Maximum queued requests per tenant.
    cap: u64,
}

impl TenantTable {
    /// Builds a table bounding each tenant to `max(1, queue_depth × share)`
    /// queued requests. `share` is clamped to `[0, 1]`.
    pub fn new(queue_depth: usize, share: f64) -> Self {
        let share = share.clamp(0.0, 1.0);
        let cap = ((queue_depth as f64 * share).ceil() as u64).max(1);
        TenantTable {
            slots: (0..TENANT_SLOTS).map(|_| TenantSlot::default()).collect(),
            overflow: TenantSlot::default(),
            totals: TenantSlot::default(),
            cap,
        }
    }

    /// The per-tenant queued bound.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Finds (or claims, by CAS on the fingerprint itself) the slot for
    /// `fp`, falling back to the shared overflow slot when the probe window
    /// is exhausted.
    fn slot(&self, fp: u64) -> &TenantSlot {
        if fp == 0 {
            return &self.overflow;
        }
        let n = self.slots.len();
        let start = (fp % n as u64) as usize;
        for probe in 0..PROBE_LIMIT {
            let slot = &self.slots[(start + probe) % n];
            match slot.fp.load(Ordering::Acquire) {
                cur if cur == fp => return slot,
                0 => match slot
                    .fp
                    .compare_exchange(0, fp, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return slot,
                    Err(winner) if winner == fp => return slot,
                    Err(_) => {} // someone else's tenant; keep probing
                },
                _ => {}
            }
        }
        &self.overflow
    }

    /// Attempts to admit one request for tenant `fp`: increments the
    /// tenant's queued count unless it is already at the bound. Returns
    /// whether the request may proceed to the queue push; on `false` the
    /// tenant's bound-shed counter has been bumped (the caller meters the
    /// shed itself with [`TenantTable::note_shed`]).
    pub fn try_admit(&self, fp: u64) -> bool {
        let slot = self.slot(fp);
        let mut queued = slot.queued.load(Ordering::Relaxed);
        loop {
            if queued >= self.cap {
                slot.tenant_shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match slot.queued.compare_exchange_weak(
                queued,
                queued + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    slot.admitted.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(q) => queued = q,
            }
        }
    }

    /// Releases one queued count for tenant `fp` — called when the request
    /// leaves the queue (worker dequeue).
    pub fn release(&self, fp: u64) {
        let slot = self.slot(fp);
        // Saturating: a release without a matching admit is a logic error,
        // but wedging the counter at u64::MAX would be worse.
        let _ = slot
            .queued
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |q| q.checked_sub(1));
    }

    /// Undoes a successful [`TenantTable::try_admit`] that never reached the
    /// queue (push raced a full ring): the queued count comes back down and
    /// the admit is re-counted as a bound shed.
    pub fn cancel_admit(&self, fp: u64) {
        let slot = self.slot(fp);
        let _ = slot
            .queued
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |q| q.checked_sub(1));
        let _ = slot
            .admitted
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |a| a.checked_sub(1));
        slot.tenant_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Meters one completed request for tenant `fp`. The same integers land
    /// in the tenant slot and the totals slot, so the ledger identity
    /// (sum of tenants == totals, bitwise) holds by construction.
    pub fn record(&self, fp: u64, charge: &MeterCharge) {
        let batch = charge.batch.max(1);
        let share_ppm = 1_000_000 / u64::from(batch);
        for slot in [self.slot(fp), &self.totals] {
            slot.requests.fetch_add(1, Ordering::Relaxed);
            if batch > 1 {
                slot.batched_requests.fetch_add(1, Ordering::Relaxed);
            }
            slot.charged_ns
                .fetch_add(charge.charged_ns, Ordering::Relaxed);
            slot.flops.fetch_add(charge.flops, Ordering::Relaxed);
            slot.bytes.fetch_add(charge.bytes, Ordering::Relaxed);
            slot.queue_wait_ns
                .fetch_add(charge.queue_wait_ns, Ordering::Relaxed);
            slot.batch_share_ppm.fetch_add(share_ppm, Ordering::Relaxed);
            if charge.cache_hit {
                slot.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                slot.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            if charge.degraded {
                slot.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Meters one shed for tenant `fp` (the request never executed).
    pub fn note_shed(&self, fp: u64) {
        self.slot(fp).sheds.fetch_add(1, Ordering::Relaxed);
        self.totals.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Meters one SLO-threshold violation for tenant `fp`.
    pub fn note_slo_violation(&self, fp: u64) {
        self.slot(fp).slo_violations.fetch_add(1, Ordering::Relaxed);
        self.totals.slo_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// The server-wide ledger sums (fingerprint reads 0).
    pub fn totals(&self) -> MeterRow {
        self.totals.row(0)
    }

    /// Visits every claimed slot, then the overflow aggregate, without
    /// allocating — [`MeterRow`] is `Copy`.
    fn visit(&self, mut f: impl FnMut(MeterRow)) {
        for slot in self.slots.iter() {
            let fp = slot.fp.load(Ordering::Acquire);
            if fp != 0 {
                f(slot.row(fp));
            }
        }
        f(self.overflow.row(0));
    }

    /// Visits every metered tenant (claimed slots, then the overflow
    /// aggregate) without allocating. Built for the sampler thread's
    /// per-tenant timeline columns.
    pub fn for_each(&self, mut f: impl FnMut(MeterRow)) {
        self.visit(|row| {
            if row.metered() {
                f(row);
            }
        });
    }

    /// One walk, split into the two status views: the admission rows
    /// (sorted by fingerprint) and the metered rows, ranked by charged
    /// time descending (the "top tenants" order), fingerprint ascending on
    /// ties.
    pub fn views(&self) -> (Vec<MeterRow>, Vec<MeterRow>) {
        let (mut admission, mut metered) = (Vec::new(), Vec::new());
        self.visit(|row| {
            if row.admission_seen() {
                admission.push(row);
            }
            if row.metered() {
                metered.push(row);
            }
        });
        admission.sort_by_key(|r| r.fingerprint);
        metered.sort_by(|a, b| {
            b.charged_ns
                .cmp(&a.charged_ns)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        (admission, metered)
    }

    /// The metered rows of [`TenantTable::views`], in "top tenants" order.
    pub fn rows(&self) -> Vec<MeterRow> {
        self.views().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admission_row(table: &TenantTable, fp: u64) -> MeterRow {
        table
            .views()
            .0
            .into_iter()
            .find(|r| r.fingerprint == fp)
            .expect("tenant listed in the admission view")
    }

    #[test]
    fn tenant_bound_sheds_only_the_hot_tenant() {
        // depth 8, share 0.5 → each tenant may hold 4 queued requests.
        let table = TenantTable::new(8, 0.5);
        assert_eq!(table.cap(), 4);
        for _ in 0..4 {
            assert!(table.try_admit(0xaaaa));
        }
        assert!(!table.try_admit(0xaaaa), "hot tenant is at its bound");
        assert!(table.try_admit(0xbbbb), "other tenants are unaffected");
        table.release(0xaaaa);
        assert!(table.try_admit(0xaaaa), "released slot re-admits");
        let hot = admission_row(&table, 0xaaaa);
        assert_eq!(hot.admitted, 5);
        assert_eq!(hot.tenant_shed, 1);
        assert_eq!(hot.queued, 4);
        let shed: u64 = table.views().0.iter().map(|r| r.tenant_shed).sum();
        assert_eq!(shed, 1);
    }

    #[test]
    fn share_floor_always_admits_one() {
        let table = TenantTable::new(0, 0.5);
        assert_eq!(table.cap(), 1);
        assert!(table.try_admit(7));
        assert!(!table.try_admit(7));
    }

    #[test]
    fn cancel_admit_reverts_the_counters() {
        let table = TenantTable::new(8, 1.0);
        assert!(table.try_admit(42));
        table.cancel_admit(42);
        let row = admission_row(&table, 42);
        assert_eq!(row.queued, 0);
        assert_eq!(row.admitted, 0);
        assert_eq!(row.tenant_shed, 1);
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_bound() {
        let table = TenantTable::new(64, 0.25); // cap 16
        let admitted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = &table;
                let admitted = &admitted;
                s.spawn(move || {
                    for _ in 0..100 {
                        if table.try_admit(9) {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let row = admission_row(&table, 9);
        assert_eq!(row.queued, admitted.load(Ordering::Relaxed));
        assert!(row.queued <= table.cap());
        assert_eq!(row.admitted + row.tenant_shed, 400);
    }

    #[test]
    fn views_list_admission_and_metered_tenants_apart() {
        // One tenant only admitted, one only metered (a queue-full shed
        // never reaches the bound), one both: each view lists exactly the
        // tenants its own counters have seen.
        let table = TenantTable::new(8, 1.0);
        assert!(table.try_admit(1));
        table.note_shed(2);
        assert!(table.try_admit(3));
        table.record(
            3,
            &MeterCharge {
                batch: 1,
                ..MeterCharge::default()
            },
        );
        let (admission, metered) = table.views();
        let fps = |rows: &[MeterRow]| rows.iter().map(|r| r.fingerprint).collect::<Vec<_>>();
        assert_eq!(fps(&admission), vec![1, 3]);
        assert_eq!(fps(&metered), vec![2, 3]);
        let mut seen = Vec::new();
        table.for_each(|row| seen.push(row.fingerprint));
        assert_eq!(
            seen,
            vec![2, 3],
            "the ledger walk skips admission-only tenants"
        );
    }

    #[test]
    fn many_tenants_fall_back_to_the_overflow_aggregate() {
        let table = TenantTable::new(1024, 1.0);
        // Far more distinct fingerprints than slots: everything still
        // admits, and the rows stay bounded.
        for fp in 1..=500u64 {
            assert!(table.try_admit(fp));
        }
        let rows = table.views().0;
        assert!(rows.len() <= TENANT_SLOTS + 1);
        let total_queued: u64 = rows.iter().map(|r| r.queued).sum();
        assert_eq!(total_queued, 500);
    }

    #[test]
    fn overflow_tenants_aggregate_and_stay_counted() {
        let table = TenantTable::new(64, 1.0);
        for fp in 1..=500u64 {
            table.record(
                fp,
                &MeterCharge {
                    charged_ns: 7,
                    batch: 1,
                    ..MeterCharge::default()
                },
            );
        }
        let rows = table.rows();
        assert!(
            rows.len() <= TENANT_SLOTS + 1,
            "bounded rows: {}",
            rows.len()
        );
        assert_eq!(
            rows.iter().map(|r| r.requests).sum::<u64>(),
            500,
            "overflow keeps every request counted"
        );
        assert_eq!(table.totals().charged_ns, 500 * 7);
    }

    #[test]
    fn exact_share_sums_to_total_for_awkward_divisions() {
        for (total, n) in [
            (0u64, 1),
            (1, 3),
            (7, 3),
            (1_000_000_007, 8),
            (u64::MAX, 17),
        ] {
            let sum: u64 = (0..n)
                .map(|m| exact_share(total, n, m))
                .fold(0u64, |acc, s| acc.wrapping_add(s));
            assert_eq!(sum, total, "total {total} over {n} members");
            // The leader absorbs the remainder; everyone else is equal.
            for m in 1..n {
                assert_eq!(exact_share(total, n, m), total / n as u64);
            }
        }
    }

    #[test]
    fn tenant_sums_equal_totals_bitwise() {
        let table = TenantTable::new(64, 1.0);
        // Three tenants, mixed batched/serial/degraded traffic with awkward
        // charge figures that would lose bits through f64 averaging.
        let mut expected_charged = 0u64;
        for (i, fp) in [0xaaaa_u64, 0xbbbb, 0xcccc].into_iter().enumerate() {
            for r in 0..5u64 {
                let total = 1_000_000_007 * (i as u64 + 1) + r;
                let n = [1usize, 3, 8][(r as usize) % 3];
                for member in 0..n {
                    let charge = MeterCharge {
                        charged_ns: exact_share(total, n, member),
                        flops: exact_share(total * 3, n, member),
                        bytes: exact_share(total * 5, n, member),
                        queue_wait_ns: r * 17,
                        batch: n as u32,
                        cache_hit: member % 2 == 0,
                        degraded: r == 4,
                    };
                    table.record(fp, &charge);
                }
                expected_charged += total;
            }
        }
        table.note_shed(0xaaaa);
        table.note_slo_violation(0xbbbb);

        let rows = table.rows();
        let totals = table.totals();
        assert_eq!(totals.charged_ns, expected_charged, "no charge lost");
        for (sum, total) in [
            (
                rows.iter().map(|r| r.requests).sum::<u64>(),
                totals.requests,
            ),
            (rows.iter().map(|r| r.charged_ns).sum(), totals.charged_ns),
            (rows.iter().map(|r| r.flops).sum(), totals.flops),
            (rows.iter().map(|r| r.bytes).sum(), totals.bytes),
            (
                rows.iter().map(|r| r.queue_wait_ns).sum(),
                totals.queue_wait_ns,
            ),
            (
                rows.iter().map(|r| r.batch_share_ppm).sum(),
                totals.batch_share_ppm,
            ),
            (rows.iter().map(|r| r.cache_hits).sum(), totals.cache_hits),
            (
                rows.iter().map(|r| r.cache_misses).sum(),
                totals.cache_misses,
            ),
            (rows.iter().map(|r| r.sheds).sum(), totals.sheds),
            (rows.iter().map(|r| r.degraded).sum(), totals.degraded),
            (
                rows.iter().map(|r| r.slo_violations).sum(),
                totals.slo_violations,
            ),
        ] {
            assert_eq!(sum, total, "per-tenant sums equal server totals bitwise");
        }
    }

    #[test]
    fn rows_rank_by_charged_time_descending() {
        let table = TenantTable::new(64, 1.0);
        for (fp, charged) in [(1u64, 10u64), (2, 30), (3, 20)] {
            table.record(
                fp,
                &MeterCharge {
                    charged_ns: charged,
                    batch: 1,
                    ..MeterCharge::default()
                },
            );
        }
        let order: Vec<u64> = table.rows().iter().map(|r| r.fingerprint).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn concurrent_recording_preserves_the_ledger_identity() {
        let table = TenantTable::new(64, 1.0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let table = &table;
                s.spawn(move || {
                    for i in 0..250u64 {
                        table.record(
                            0x1000 + (i % 5),
                            &MeterCharge {
                                charged_ns: t * 1_000 + i,
                                flops: i * 3,
                                bytes: i * 5,
                                queue_wait_ns: i,
                                batch: ((i % 4) + 1) as u32,
                                cache_hit: i % 2 == 0,
                                degraded: i % 7 == 0,
                            },
                        );
                    }
                });
            }
        });
        let rows = table.rows();
        let totals = table.totals();
        assert_eq!(totals.requests, 1000);
        assert_eq!(
            rows.iter().map(|r| r.charged_ns).sum::<u64>(),
            totals.charged_ns
        );
        assert_eq!(rows.iter().map(|r| r.flops).sum::<u64>(), totals.flops);
        assert_eq!(rows.iter().map(|r| r.bytes).sum::<u64>(), totals.bytes);
    }
}
