//! Fig. 10 — announcement distribution during a Burst–Break pair for an
//! RFD AS versus a non-RFD AS, with the linear-regression fit that
//! heuristic M3 scores.

use heuristics::{burst_histograms, M3_BINS};
use netsim::stats::{linear_fit_bins, Histogram};

use super::{io, Suite, Write};
use crate::report;

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let out = suite.campaign(1);

    // Pick a damping AS that is on labeled RFD paths and a clean AS.
    let damper = out
        .labels
        .iter()
        .filter(|l| l.rfd)
        .flat_map(|l| l.path.asns().iter().copied())
        .find(|a| out.deployment.damping.contains_key(a));
    let clean = out
        .labels
        .iter()
        .filter(|l| !l.rfd)
        .flat_map(|l| l.path.asns().iter().copied())
        .find(|a| {
            !out.deployment.damping.contains_key(a) && !out.topology.beacon_sites.contains(a)
        });

    // M3's per-AS histograms, merged over the beacon prefixes. Every
    // beacon runs on one clock, and no anchor stamp falls in a burst.
    let bins = M3_BINS;
    let per_schedule: Vec<_> = out
        .campaign
        .beacon_schedules()
        .map(|s| burst_histograms(&out.dump, s, bins))
        .collect();
    for (title, asn) in [("RFD AS", damper), ("non-RFD AS", clean)] {
        let Some(asn) = asn else {
            writeln!(w, "--- {title}: none found in this run ---")?;
            continue;
        };
        let mut hist = Histogram::new(0.0, 1.0, bins);
        for h in per_schedule.iter().filter_map(|m| m.get(&asn)) {
            hist.merge(h);
        }
        writeln!(
            w,
            "--- {title} ({asn}) — announcements per burst-time bin ---"
        )?;
        let heights = hist.heights();
        let max = heights.iter().cloned().fold(1.0, f64::max);
        for (i, &h) in heights.iter().enumerate() {
            if i % 4 == 0 {
                writeln!(
                    w,
                    "  {:>4.2}  {}",
                    hist.bin_center(i),
                    report::bar(h, max, 40)
                )?;
            }
        }
        if let Some(fit) = linear_fit_bins(&heights) {
            writeln!(
                w,
                "  regression: slope {:+.3}/bin, relative change {:+.0}%, R² {:.2}",
                fit.slope,
                100.0 * fit.relative_change(0.0, (bins - 1) as f64),
                fit.r_squared
            )?;
        }
        writeln!(w)?;
    }
    Ok(())
}
