//! Seeded, replayable open-loop traffic generation.
//!
//! A [`TraceSpec`] describes a workload as a sequence of phases, each
//! with its own arrival-rate shape ([`ArrivalShape`]), tenant mix, and
//! optional hot-spot skew over the job catalog. [`TraceSpec::generate`]
//! expands the spec into a flat, timestamped schedule of
//! [`TraceEvent`]s using only the spec's seed — the same spec always
//! produces byte-identical events, so two replays of a trace submit
//! exactly the same job sequence no matter how the pool behind the
//! service is scaled between them. That determinism is what lets the
//! autoscaling benchmarks compare a fixed pool against an elastic one
//! on result *digests*, not just counts.
//!
//! Arrivals are drawn by thinning a homogeneous Poisson process: the
//! generator proposes candidate arrivals at the phase's peak rate
//! (exponential inter-arrival gaps) and accepts each with probability
//! `rate(t) / peak`, which realizes any time-varying rate — bursty
//! on/off square waves, diurnal sinusoids — from one stream of seeded
//! uniform draws. Every candidate consumes the same number of draws
//! whether accepted or not, so the schedule never depends on float
//! rounding of earlier accept/reject decisions.

use crate::results::{fnv1a64, FNV_OFFSET};
use crate::tenant::TenantId;
use cas_offinder::OffTarget;
use genome::rng::Xoshiro256;

/// Arrival-rate shape of one trace phase, in jobs per second of trace
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalShape {
    /// Constant arrival rate for the whole phase.
    Steady {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
    /// On/off square wave: `on_rate_per_s` for the first `duty`
    /// fraction of every `period_s`, silence for the rest.
    Bursty {
        /// Arrival rate while the burst is on.
        on_rate_per_s: f64,
        /// Length of one on+off cycle in seconds.
        period_s: f64,
        /// Fraction of each period spent bursting, in `[0, 1]`.
        duty: f64,
    },
    /// Sinusoidal rate `base * (1 + amplitude * sin(2πt / period))`,
    /// clamped at zero — a compressed diurnal curve.
    Diurnal {
        /// Mean arrival rate around which the sinusoid swings.
        base_rate_per_s: f64,
        /// Relative swing; `1.0` touches zero at the trough.
        amplitude: f64,
        /// Seconds per full cycle of simulated "day".
        period_s: f64,
    },
}

impl ArrivalShape {
    /// Instantaneous rate at `t` seconds into the phase.
    fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalShape::Steady { rate_per_s } => rate_per_s.max(0.0),
            ArrivalShape::Bursty {
                on_rate_per_s,
                period_s,
                duty,
            } => {
                let phase = (t % period_s.max(1e-9)) / period_s.max(1e-9);
                if phase < duty.clamp(0.0, 1.0) {
                    on_rate_per_s.max(0.0)
                } else {
                    0.0
                }
            }
            ArrivalShape::Diurnal {
                base_rate_per_s,
                amplitude,
                period_s,
            } => {
                let angle = 2.0 * std::f64::consts::PI * t / period_s.max(1e-9);
                (base_rate_per_s * (1.0 + amplitude * angle.sin())).max(0.0)
            }
        }
    }

    /// Peak rate over the phase — the thinning envelope.
    fn peak(&self) -> f64 {
        match *self {
            ArrivalShape::Steady { rate_per_s } => rate_per_s.max(0.0),
            ArrivalShape::Bursty { on_rate_per_s, .. } => on_rate_per_s.max(0.0),
            ArrivalShape::Diurnal {
                base_rate_per_s,
                amplitude,
                ..
            } => (base_rate_per_s * (1.0 + amplitude.abs())).max(0.0),
        }
    }
}

/// Hot-spot skew: a `fraction` of a phase's jobs are pinned to the
/// first `span` entries of the catalog instead of drawing uniformly —
/// the few assemblies/guides everyone queries during an incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpot {
    /// Fraction of arrivals routed to the hot span, in `[0, 1]`.
    pub fraction: f64,
    /// Number of leading catalog entries forming the hot set.
    pub span: usize,
}

/// One phase of a trace: a duration, an arrival shape, the weighted
/// tenant mix submitting during it, and optional hot-spot skew.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase length in seconds of trace time.
    pub duration_s: f64,
    /// Arrival-rate shape over the phase.
    pub shape: ArrivalShape,
    /// Weighted tenant mix; an empty mix submits everything as the
    /// default tenant. Shifting the mix between phases models tenant
    /// churn over the day.
    pub tenants: Vec<(TenantId, u32)>,
    /// Optional hot-spot skew over the job catalog.
    pub hot_spot: Option<HotSpot>,
}

/// A complete, replayable workload description: a seed plus phases.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Seed for every random draw the generator makes.
    pub seed: u64,
    /// Phases played back to back.
    pub phases: Vec<PhaseSpec>,
}

/// One timestamped submission in a generated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Offset from trace start, in seconds.
    pub at_s: f64,
    /// Index into the caller's job catalog.
    pub spec_index: usize,
    /// Tenant submitting the job.
    pub tenant: TenantId,
}

impl TraceSpec {
    /// Total trace length in seconds — the sum of phase durations.
    pub fn horizon_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s.max(0.0)).sum()
    }

    /// Expand the spec into a timestamped schedule over a catalog of
    /// `catalog_len` job specs. Deterministic in the spec alone: the
    /// same spec and catalog length always yield an identical event
    /// vector (verify with [`schedule_digest`]).
    ///
    /// # Panics
    /// Panics if `catalog_len` is zero while any phase has a positive
    /// peak rate — there would be arrivals with nothing to submit.
    pub fn generate(&self, catalog_len: usize) -> Vec<TraceEvent> {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let mut phase_start = 0.0f64;
        for phase in &self.phases {
            let duration = phase.duration_s.max(0.0);
            let peak = phase.shape.peak();
            if peak > 0.0 {
                assert!(catalog_len > 0, "arrivals scheduled over an empty catalog");
                let weight_total: usize = phase.tenants.iter().map(|&(_, w)| w as usize).sum();
                let mut t = 0.0f64;
                loop {
                    // Exponential gap at the envelope rate; 1 - u is in
                    // (0, 1], so the log is finite.
                    t += -(1.0 - rng.gen_f64()).ln() / peak;
                    if t >= duration {
                        break;
                    }
                    // Thinning: always burn the accept draw so the
                    // stream position is a pure function of the gap
                    // count, then the catalog and tenant draws only on
                    // acceptance.
                    let accept = rng.gen_f64() < phase.shape.rate_at(t) / peak;
                    if !accept {
                        continue;
                    }
                    let spec_index = match phase.hot_spot {
                        Some(h) if h.span > 0 && rng.gen_f64() < h.fraction => {
                            rng.gen_below(h.span.min(catalog_len))
                        }
                        _ => rng.gen_below(catalog_len),
                    };
                    let tenant = if weight_total == 0 {
                        TenantId::default()
                    } else {
                        let mut pick = rng.gen_below(weight_total);
                        let mut chosen = phase.tenants[0].0;
                        for &(tenant, w) in &phase.tenants {
                            if pick < w as usize {
                                chosen = tenant;
                                break;
                            }
                            pick -= w as usize;
                        }
                        chosen
                    };
                    events.push(TraceEvent {
                        at_s: phase_start + t,
                        spec_index,
                        tenant,
                    });
                }
            }
            phase_start += duration;
        }
        events
    }
}

/// FNV-1a digest of a generated schedule — timestamp bits, catalog
/// index, and tenant of every event in order. Two replays of the same
/// [`TraceSpec`] produce the same digest; any divergence in timing,
/// job choice, or tenant mix changes it.
pub fn schedule_digest(events: &[TraceEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    for ev in events {
        h = fnv1a64(h, &ev.at_s.to_bits().to_le_bytes());
        h = fnv1a64(h, &(ev.spec_index as u64).to_le_bytes());
        h = fnv1a64(h, &ev.tenant.0.to_le_bytes());
    }
    h
}

/// Seed for [`fold_results`] chains — fold every job's records in
/// submission order starting from this.
pub const RESULT_DIGEST_SEED: u64 = FNV_OFFSET;

/// Fold one job's result records into a running digest. Records are
/// digested field by field in the order the service returned them —
/// the service's canonical ordering makes the digest identical across
/// replays if and only if every job returned byte-identical results.
pub fn fold_results(digest: u64, records: &[OffTarget]) -> u64 {
    let mut h = fnv1a64(digest, &(records.len() as u64).to_le_bytes());
    for r in records {
        h = fnv1a64(h, &r.query);
        h = fnv1a64(h, &[0]);
        h = fnv1a64(h, r.chrom.as_bytes());
        h = fnv1a64(h, &[0]);
        h = fnv1a64(h, &(r.position as u64).to_le_bytes());
        h = fnv1a64(h, format!("{:?}", r.strand).as_bytes());
        h = fnv1a64(h, &r.mismatches.to_le_bytes());
        h = fnv1a64(h, &r.site);
        h = fnv1a64(h, &[0]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> TraceSpec {
        TraceSpec {
            seed,
            phases: vec![
                PhaseSpec {
                    duration_s: 3.0,
                    shape: ArrivalShape::Diurnal {
                        base_rate_per_s: 40.0,
                        amplitude: 0.6,
                        period_s: 3.0,
                    },
                    tenants: vec![(TenantId(1), 3), (TenantId(2), 1)],
                    hot_spot: None,
                },
                PhaseSpec {
                    duration_s: 4.0,
                    shape: ArrivalShape::Bursty {
                        on_rate_per_s: 120.0,
                        period_s: 2.0,
                        duty: 0.5,
                    },
                    tenants: vec![(TenantId(2), 1), (TenantId(3), 1)],
                    hot_spot: Some(HotSpot {
                        fraction: 0.8,
                        span: 2,
                    }),
                },
            ],
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = spec(7).generate(16);
        let b = spec(7).generate(16);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = spec(7).generate(16);
        let b = spec(8).generate(16);
        assert_ne!(schedule_digest(&a), schedule_digest(&b));
    }

    #[test]
    fn events_are_ordered_and_bounded() {
        let s = spec(11);
        let events = s.generate(16);
        let horizon = s.horizon_s();
        let mut last = 0.0;
        for ev in &events {
            assert!(ev.at_s >= last, "events out of order");
            assert!(ev.at_s < horizon);
            assert!(ev.spec_index < 16);
            last = ev.at_s;
        }
    }

    #[test]
    fn bursty_off_windows_are_silent() {
        let s = TraceSpec {
            seed: 3,
            phases: vec![PhaseSpec {
                duration_s: 10.0,
                shape: ArrivalShape::Bursty {
                    on_rate_per_s: 50.0,
                    period_s: 2.0,
                    duty: 0.25,
                },
                tenants: vec![],
                hot_spot: None,
            }],
        };
        let events = s.generate(4);
        assert!(!events.is_empty());
        for ev in &events {
            let phase = (ev.at_s % 2.0) / 2.0;
            assert!(
                phase < 0.25,
                "arrival at {:.3}s falls in an off window",
                ev.at_s
            );
            assert_eq!(ev.tenant, TenantId::default());
        }
    }

    #[test]
    fn hot_spot_skews_catalog_draws() {
        let s = TraceSpec {
            seed: 5,
            phases: vec![PhaseSpec {
                duration_s: 20.0,
                shape: ArrivalShape::Steady { rate_per_s: 50.0 },
                tenants: vec![],
                hot_spot: Some(HotSpot {
                    fraction: 0.9,
                    span: 2,
                }),
            }],
        };
        let events = s.generate(100);
        let hot = events.iter().filter(|e| e.spec_index < 2).count();
        let frac = hot as f64 / events.len() as f64;
        // 90% pinned + ~2% of uniform draws landing there anyway.
        assert!(frac > 0.8, "hot fraction {frac:.3} too low");
    }

    #[test]
    fn tenant_mix_tracks_weights() {
        let s = TraceSpec {
            seed: 9,
            phases: vec![PhaseSpec {
                duration_s: 20.0,
                shape: ArrivalShape::Steady { rate_per_s: 50.0 },
                tenants: vec![(TenantId(1), 3), (TenantId(2), 1)],
                hot_spot: None,
            }],
        };
        let events = s.generate(8);
        let t1 = events.iter().filter(|e| e.tenant == TenantId(1)).count();
        let frac = t1 as f64 / events.len() as f64;
        assert!((frac - 0.75).abs() < 0.08, "tenant-1 share {frac:.3}");
    }

    #[test]
    fn diurnal_rate_modulates_density() {
        let s = TraceSpec {
            seed: 13,
            phases: vec![PhaseSpec {
                duration_s: 8.0,
                shape: ArrivalShape::Diurnal {
                    base_rate_per_s: 60.0,
                    amplitude: 0.9,
                    period_s: 8.0,
                },
                tenants: vec![],
                hot_spot: None,
            }],
        };
        let events = s.generate(4);
        // First half-cycle (sin > 0) must out-arrive the second.
        let first = events.iter().filter(|e| e.at_s < 4.0).count();
        let second = events.len() - first;
        assert!(
            first > second * 2,
            "diurnal peak {first} vs trough {second}"
        );
    }

    #[test]
    fn result_digest_orders_and_separates_fields() {
        let rec = |chrom: &str, pos: usize| OffTarget {
            query: b"ACGT".to_vec(),
            chrom: chrom.into(),
            position: pos,
            strand: cas_offinder::Strand::Forward,
            mismatches: 1,
            site: b"ACGa".to_vec(),
        };
        let a = fold_results(RESULT_DIGEST_SEED, &[rec("chr1", 5), rec("chr2", 9)]);
        let b = fold_results(RESULT_DIGEST_SEED, &[rec("chr2", 9), rec("chr1", 5)]);
        assert_ne!(a, b, "digest must be order-sensitive");
        let c = fold_results(RESULT_DIGEST_SEED, &[rec("chr1", 5), rec("chr2", 9)]);
        assert_eq!(a, c);
    }
}
