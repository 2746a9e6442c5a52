//! Fig. 13 — CDF of the re-advertisement delta across damped paths, for
//! the 1-minute and 3-minute update intervals.
//!
//! Fig. 13 plots the §6.2 quantity: the delta between the **end of the
//! Burst** and the re-advertisement (not the §4.2 labeling r-delta).
//!
//! At a 1-minute interval the damping penalty saturates at its ceiling,
//! so the post-Burst release takes exactly max-suppress-time — the CDF
//! shows plateaus at the deployed values (10/30/60 min). At 3 minutes
//! the penalty stays below the ceiling and the plateaus wash out.

use netsim::stats::Ecdf;

use super::{io, Suite, Write};
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    for mins in [1u64, 3] {
        let mut cfg = suite.experiment(mins);
        // A denser deployment with a uniform max-suppress mix, so every
        // plateau has visible representatives even on small topologies.
        cfg.deployment.rfd_share = (cfg.deployment.rfd_share * 1.8).min(0.3);
        cfg.deployment.max_suppress_mix = vec![(10, 1.0), (30, 1.0), (60, 1.0)];
        // Not the suite's default campaigns: run and drop them here.
        let out = suite.run_campaign(&cfg, &format!("fig13.interval_{mins}"));
        let means: Vec<f64> = out
            .labels
            .iter()
            .filter(|l| l.rfd)
            .filter_map(|l| l.mean_break_delta_mins())
            .collect();
        writeln!(
            w,
            "--- {mins}-minute update interval: {} damped paths ---",
            means.len()
        )?;
        if means.is_empty() {
            writeln!(w, "  (no damped paths)\n")?;
            continue;
        }
        let cdf = Ecdf::new(means);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let v = cdf.quantile(q).unwrap();
            writeln!(
                w,
                "  p{:<4.0} {:>7.1} min  {}",
                q * 100.0,
                v,
                report::bar(q, 1.0, 30)
            )?;
        }
        // Plateau detection: mass within ±2 min of the configured
        // max-suppress values.
        writeln!(w, "  mass near configured max-suppress-times:")?;
        for target in [10.0, 30.0, 60.0] {
            let near = cdf.eval(target + 2.0) - cdf.eval(target - 2.0);
            writeln!(
                w,
                "    {target:>4.0} min: {:>5.1}%  {}",
                100.0 * near,
                report::bar(near, 1.0, 30)
            )?;
        }
        writeln!(w)?;
    }
    writeln!(
        w,
        "(expected: clear plateaus at 1 min, washed out at 3 min)"
    )
}
