//! Per-tenant SLO burn-rate accounting — the alerting layer above the
//! raw latency percentiles.
//!
//! The engine's [`MetricsRegistry`] keeps, per tenant lane, a rolling
//! two-window error budget ([`sbgt_engine::BURN_WINDOW_ROUNDS`] rounds
//! per window, budget [`sbgt_engine::BURN_BUDGET`] = 1% of rounds over
//! SLO). The *burn rate* is the observed violation fraction divided by
//! the budget: `1.0x` means the tenant is consuming its error budget
//! exactly as provisioned; `10x` means the budget will be exhausted in a
//! tenth of the window.
//!
//! This module turns that gauge into a typed event: when an
//! SLO-breaching submission is about to shed with
//! [`crate::ShedReason::SloExceeded`] and the lane's burn rate is at or
//! past budget, the service records a [`BurnRateAlert`] as a
//! [`BURN_ALERT_MARK`] obs mark *before* the shed — so a fleet trace
//! shows the budget exhaustion leading the admission-control response,
//! not just the sheds themselves. Burn rates also surface as
//! `sbgt_tenant_slo_burn_rate` gauges on the Prometheus page.

use sbgt_engine::MetricsRegistry;

/// Obs mark name recorded when a burn-rate alert fires. The mark's
/// payload (`SpanEvent::value`) is the burn rate in milli-x
/// ([`BurnRateAlert::burn_milli`]) and its `meta.task` is the tenant id.
pub const BURN_ALERT_MARK: &str = "service:burn-alert";

/// A tenant's SLO error budget is being consumed at or above the
/// provisioned rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurnRateAlert {
    /// Tenant whose lane is burning budget.
    pub tenant: u32,
    /// Burn rate in thousandths of "x budget": `1000` = burning exactly
    /// at budget, `12_500` = 12.5x. Kept integral so the alert rides in
    /// a mark's `u64` payload without float re-encoding.
    pub burn_milli: u64,
}

impl BurnRateAlert {
    /// Evaluate a tenant's lane: `Some` when the lane has observed
    /// SLO-checked rounds and its burn rate is at or above `1.0x`
    /// (budget being consumed as fast as provisioned, or faster).
    pub fn evaluate(metrics: &MetricsRegistry, tenant: u32) -> Option<Self> {
        let burn = metrics.tenant_burn_rate(tenant)?;
        (burn >= 1.0).then(|| BurnRateAlert {
            tenant,
            burn_milli: burn_to_milli(burn),
        })
    }

    /// The burn rate as a float multiple of budget.
    pub fn burn(&self) -> f64 {
        self.burn_milli as f64 / 1000.0
    }
}

/// Quantize a burn rate to milli-x for the mark payload. Negative and
/// NaN inputs clamp to 0 (a lane cannot un-burn its budget).
pub fn burn_to_milli(burn: f64) -> u64 {
    if burn.is_nan() || burn <= 0.0 {
        return 0;
    }
    let milli = (burn * 1000.0).round();
    if milli >= u64::MAX as f64 {
        u64::MAX
    } else {
        milli as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn quantization_clamps_and_rounds() {
        assert_eq!(burn_to_milli(0.0), 0);
        assert_eq!(burn_to_milli(-3.0), 0);
        assert_eq!(burn_to_milli(f64::NAN), 0);
        assert_eq!(burn_to_milli(1.0), 1000);
        assert_eq!(burn_to_milli(12.4999), 12_500);
        assert_eq!(burn_to_milli(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn alert_fires_only_at_or_past_budget() {
        let metrics = MetricsRegistry::new();
        let slo = Some(ms(10));
        // 100 rounds, 1 over SLO: exactly the 1% budget → burn 1.0x.
        metrics.update_service(|s| {
            s.record_tenant_round(7, ms(50), slo);
            for _ in 0..99 {
                s.record_tenant_round(7, ms(1), slo);
            }
        });
        let alert = BurnRateAlert::evaluate(&metrics, 7).expect("at-budget lane alerts");
        assert_eq!(alert.tenant, 7);
        assert_eq!(alert.burn_milli, 1000);
        assert_eq!(alert.burn(), 1.0);

        // A lane comfortably under budget stays quiet: 1 breach in 200.
        let quiet = MetricsRegistry::new();
        quiet.update_service(|s| {
            s.record_tenant_round(3, ms(50), slo);
            for _ in 0..199 {
                s.record_tenant_round(3, ms(1), slo);
            }
        });
        assert_eq!(BurnRateAlert::evaluate(&quiet, 3), None);

        // No SLO-checked rounds at all → no burn rate → no alert.
        assert_eq!(BurnRateAlert::evaluate(&metrics, 99), None);
    }

    #[test]
    fn all_breaching_lane_saturates_the_alert() {
        let metrics = MetricsRegistry::new();
        metrics.update_service(|s| {
            for _ in 0..32 {
                s.record_tenant_round(1, ms(80), Some(ms(10)));
            }
        });
        let alert = BurnRateAlert::evaluate(&metrics, 1).expect("fully-breaching lane alerts");
        assert_eq!(alert.burn(), 100.0, "1.0 over a 1% budget caps at 100x");
    }
}
