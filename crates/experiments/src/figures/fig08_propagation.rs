//! Fig. 8 — propagation times of anchor prefixes vs RIPE-style beacons,
//! and per-project export behaviour.
//!
//! The anchor prefixes flap on the RIPE beacon schedule, so comparing the
//! two CDFs validates the infrastructure: both should show the same
//! characteristics, with per-project export delays on top (RouteViews'
//! 50-second cadence, Isolario ≤ 30 s, diverse RIS).

use netsim::stats::Ecdf;

use super::{io, Suite, Write};
use crate::coverage::propagation;
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let out = suite.campaign(1);

    let anchors: Vec<bgpsim::Prefix> = out.campaign.sites.iter().map(|s| s.anchor.prefix).collect();
    let beacons: Vec<bgpsim::Prefix> = out.campaign.beacon_schedules().map(|b| b.prefix).collect();

    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
    let describe = |w: &mut dyn Write, name: &str, cdf: &Ecdf| -> io::Result<()> {
        if cdf.is_empty() {
            return writeln!(w, "{name}: no data");
        }
        let cells: Vec<String> = quantiles
            .iter()
            .map(|&q| format!("p{:.0}={:.1}s", q * 100.0, cdf.quantile(q).unwrap()))
            .collect();
        writeln!(w, "{name:<28} n={:<6} {}", cdf.len(), cells.join("  "))
    };

    let anchor = propagation(&out.dump, &anchors);
    writeln!(w, "arrival at vantage points (send → VP):")?;
    describe(w, "anchor prefixes", &anchor.arrival)?;
    describe(
        w,
        "beacon prefixes",
        &propagation(&out.dump, &beacons).arrival,
    )?;
    writeln!(w)?;
    writeln!(w, "visible in public dumps (send → export), per project:")?;
    for (p, cdf) in &anchor.export {
        describe(w, p.name(), cdf)?;
    }
    writeln!(w)?;
    let cdf = &anchor.arrival;
    if !cdf.is_empty() {
        let rows = report::cdf_rows(&cdf.points(), &[0.25, 0.5, 0.75, 0.9, 1.0]);
        writeln!(w, "anchor arrival CDF sketch:")?;
        for (x, f) in rows {
            writeln!(
                w,
                "  {:>6.1}s  {:>5.1}%  {}",
                x,
                100.0 * f,
                report::bar(f, 1.0, 40)
            )?;
        }
    }
    Ok(())
}
