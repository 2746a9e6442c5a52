//! Fig. 11 — scatter of posterior mean (x) versus certainty (y) per AS,
//! coloured by category, for the 1-minute update interval.
//!
//! Printed as a TSV (one AS per row) plus a coarse ASCII density plot
//! showing the paper's characteristic U shape: confident non-dampers top
//! left, confident dampers top right, no-information ASs at the bottom
//! around the prior mean.

use super::{io, Suite, Write};

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    let (_, inf) = suite.inference(1);

    writeln!(w, "as\tmean\tcertainty\tcategory\tinconsistent")?;
    for r in &inf.analysis.reports {
        writeln!(
            w,
            "AS{}\t{:.3}\t{:.3}\t{}\t{}",
            r.id,
            r.mean(),
            r.certainty(),
            r.category.value(),
            r.flagged_inconsistent
        )?;
    }

    // ASCII density: 10×10 grid, cell shows dominant category digit.
    let mut grid = vec![vec![(0usize, [0usize; 5]); 10]; 10];
    for r in &inf.analysis.reports {
        let x = ((r.mean() * 10.0) as usize).min(9);
        let y = ((r.certainty() * 10.0) as usize).min(9);
        grid[y][x].0 += 1;
        grid[y][x].1[(r.category.value() - 1) as usize] += 1;
    }
    writeln!(
        w,
        "\ncertainty ↑ (rows 1.0 → 0.0), mean → (0.0 … 1.0); digit = dominant category"
    )?;
    for y in (0..10).rev() {
        let mut row = String::new();
        for (count, cats) in &grid[y] {
            if *count == 0 {
                row.push('·');
            } else {
                let dominant = cats
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i + 1)
                    .unwrap();
                row.push_str(&dominant.to_string());
            }
            row.push(' ');
        }
        writeln!(w, "  {:>4.1} | {row}", (y as f64 + 0.5) / 10.0)?;
    }
    writeln!(
        w,
        "         0.05 0.15 0.25 0.35 0.45 0.55 0.65 0.75 0.85 0.95"
    )?;

    let counts = inf.analysis.category_counts();
    writeln!(
        w,
        "\ncategory counts: C1={} C2={} C3={} C4={} C5={}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    )
}
