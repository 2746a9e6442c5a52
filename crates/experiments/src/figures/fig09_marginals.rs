//! Fig. 9 — archetypal marginal posterior distributions.
//!
//! Runs the 1-minute campaign and BeCAUSe, then picks the four
//! diagnostic archetypes the paper illustrates:
//!
//! (a) strong damper — mass at 1, tiny spread;
//! (b) strong non-damper — mass at 0, tiny spread;
//! (c) inconsistent damper — mid/low mean with high spread (the AS-701
//!     case), flagged by the Eq.-8 pass;
//! (d) no-information AS — the Beta prior recovered (shadowed by an
//!     upstream damper).
//!
//! Each marginal is printed as a 20-bin histogram over [0, 1].

use because::Chain;

use super::{io, Suite, Write};
use crate::report;

fn histogram(draws: &[f64]) -> Vec<usize> {
    let mut bins = vec![0usize; 20];
    for &d in draws {
        let idx = ((d * 20.0) as usize).min(19);
        bins[idx] += 1;
    }
    bins
}

fn print_marginal(w: &mut dyn Write, title: &str, draws: &[f64]) -> io::Result<()> {
    writeln!(w, "--- {title} ---")?;
    let bins = histogram(draws);
    let max = *bins.iter().max().unwrap_or(&1) as f64;
    for (i, &count) in bins.iter().enumerate() {
        let lo = i as f64 / 20.0;
        writeln!(
            w,
            "  [{lo:.2}..{:.2})  {}",
            lo + 0.05,
            report::bar(count as f64, max, 40)
        )?;
    }
    let mean = draws.iter().sum::<f64>() / draws.len().max(1) as f64;
    writeln!(w, "  mean = {mean:.3}\n")
}

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let (_, inf) = suite.inference(1);
    let analysis = &inf.analysis;
    let pooled = Chain::pooled(&analysis.hmc_chains);

    // Select archetypes from the reports.
    let damper = analysis
        .reports
        .iter()
        .filter(|r| r.category == because::Category::C5)
        .max_by(|a, b| a.certainty().partial_cmp(&b.certainty()).unwrap());
    let clean = analysis
        .reports
        .iter()
        .filter(|r| r.category == because::Category::C1)
        .max_by(|a, b| a.certainty().partial_cmp(&b.certainty()).unwrap());
    let inconsistent = analysis.reports.iter().find(|r| r.flagged_inconsistent);
    let no_info = analysis
        .reports
        .iter()
        .filter(|r| r.category == because::Category::C3 && !r.flagged_inconsistent)
        .min_by(|a, b| a.certainty().partial_cmp(&b.certainty()).unwrap());

    let cases = [
        ("(a) strong damper", damper),
        ("(b) strong non-damper", clean),
        ("(c) inconsistent damper (Eq. 8 flagged)", inconsistent),
        ("(d) no information — prior recovered", no_info),
    ];
    for (title, report) in cases {
        match report {
            Some(r) => {
                let idx = inf.data.index(r.id).expect("reported AS is in data");
                let draws = pooled.column(idx);
                print_marginal(w, &format!("{title}: AS{}", r.id), &draws)?;
            }
            None => writeln!(w, "--- {title}: no example in this run ---\n")?,
        }
    }
    Ok(())
}
