//! Appendix B — RFD default parameters per vendor/recommendation, plus
//! the derived quantities the paper's analysis relies on: the penalty
//! ceiling and the slowest flap interval each profile still damps.

use bgpsim::VendorProfile;
use netsim::SimDuration;

use super::{io, Suite, Write};
use crate::report;

/// Render the figure after its banner.
pub fn render(_: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let profiles = [
        VendorProfile::Cisco,
        VendorProfile::Juniper,
        VendorProfile::Rfc7454,
    ];

    let mut rows = Vec::new();
    type Field = (&'static str, fn(&bgpsim::RfdParams) -> String);
    let fields: [Field; 7] = [
        ("Withdrawal penalty", |p| {
            format!("{:.0}", p.withdrawal_penalty)
        }),
        ("Readvertisement penalty", |p| {
            format!("{:.0}", p.readvertisement_penalty)
        }),
        ("Attributes change penalty", |p| {
            format!("{:.0}", p.attribute_change_penalty)
        }),
        ("Suppress-threshold", |p| {
            format!("{:.0}", p.suppress_threshold)
        }),
        ("Half-life (min)", |p| {
            format!("{:.0}", p.half_life.as_mins_f64())
        }),
        ("Reuse-threshold", |p| format!("{:.0}", p.reuse_threshold)),
        ("Max suppress time (min)", |p| {
            format!("{:.0}", p.max_suppress_time.as_mins_f64())
        }),
    ];
    for (name, get) in fields {
        let mut row = vec![name.to_string()];
        for prof in profiles {
            row.push(get(&prof.params()));
        }
        rows.push(row);
    }
    let table = report::table(&["RFD parameter", "Cisco", "Juniper", "RFC 7454"], &rows);
    writeln!(w, "{table}")?;

    writeln!(w, "derived:")?;
    let mut rows = Vec::new();
    for prof in profiles {
        let p = prof.params();
        // Slowest interval that still triggers sustained damping.
        let mut slowest = None;
        for secs in (30..=900).rev().step_by(30) {
            if p.triggers_at(SimDuration::from_secs(secs)) {
                slowest = Some(secs);
                break;
            }
        }
        rows.push(vec![
            prof.name().to_string(),
            format!("{:.0}", p.penalty_ceiling()),
            slowest
                .map(|s| format!("{:.1} min", s as f64 / 60.0))
                .unwrap_or_else(|| "never".to_string()),
        ]);
    }
    let table = report::table(
        &["profile", "penalty ceiling", "slowest damped flap interval"],
        &rows,
    );
    writeln!(w, "{table}")?;
    writeln!(
        w,
        "(paper: Cisco ≈ 8 min, Juniper ≈ 9 min, recommended ≈ 2 min)"
    )
}
