//! The paper's figures and tables, one module each, every one rendered
//! from a [`Suite`].
//!
//! Each `src/bin/<name>.rs` renders its figure to stdout through a fresh
//! suite ([`main`]); `repro_all <dir>` renders [`ALL`] through one suite
//! into `<dir>/<name>.txt`, byte-identical to the binaries' stdout.

use std::io::{self, Write};

use crate::suite::{Flags, Suite};

pub mod appendix_b_defaults;
pub mod fig02_penalty_trace;
pub mod fig05_signature;
pub mod fig06_link_similarity;
pub mod fig07_project_overlap;
pub mod fig08_propagation;
pub mod fig09_marginals;
pub mod fig10_burst_hist;
pub mod fig11_scatter;
pub mod fig12_interval_share;
pub mod fig13_rdelta_cdf;
pub mod table2_categories;
pub mod table3_divergence;
pub mod table4_precision_recall;

/// One figure or table: its binary (and output file) name, its banner
/// title and its body.
pub struct Figure {
    /// Binary name, and `<name>.txt` under `repro_all`.
    pub name: &'static str,
    /// The banner's title line.
    pub title: &'static str,
    /// Writes the body: everything after the banner.
    pub render: fn(&mut Suite, &mut dyn Write) -> io::Result<()>,
}

impl Figure {
    /// Write the banner, then the body.
    pub fn write(&self, suite: &mut Suite, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "== {} ==", self.title)?;
        writeln!(out, "scale={} seed={}", suite.scale(), suite.seed())?;
        writeln!(out)?;
        (self.render)(suite, out)
    }
}

/// `[Figure { name: "<module>", title, render: <module>::render }, …]`.
macro_rules! figures {
    ($($name:ident: $title:literal,)*) => {
        [$(Figure { name: stringify!($name), title: $title, render: $name::render }),*]
    };
}

/// Every figure and table, in `repro_all`'s order: the five that never
/// read the shared 1-minute campaign come first, so that their own
/// campaigns are never alive alongside it.
pub const ALL: [Figure; 14] = figures! {
    appendix_b_defaults: "Appendix B: RFD default parameters",
    fig02_penalty_trace: "Figure 2: RFD penalty trace (Cisco defaults)",
    fig05_signature: "Figure 5: Beacon pattern and RFD signature",
    fig13_rdelta_cdf: "Figure 13: CDF of mean r-delta per damped path",
    table3_divergence: "Table 3: divergence micro-scenarios",
    fig06_link_similarity: "Figure 6: link similarity between beacon sites",
    fig07_project_overlap: "Figure 7: overlap of gathered data per collector project",
    fig08_propagation: "Figure 8: propagation time CDFs",
    fig09_marginals: "Figure 9: archetypal marginal posteriors",
    fig10_burst_hist: "Figure 10: announcement distribution across a Burst",
    fig11_scatter: "Figure 11: mean vs certainty scatter (1-minute interval)",
    fig12_interval_share: "Figure 12: share of damping ASs per update interval",
    table2_categories: "Table 2: category totals and shares (1-minute interval)",
    table4_precision_recall: "Table 4: precision / recall on oracle ground truth",
};

/// The whole of a figure binary: [`main_with_args`] on the process
/// arguments.
pub fn main(name: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    main_with_args(name, &args);
}

/// Render the figure called `name` to stdout through a suite read from
/// the environment and `args`, then emit the run report and artifacts
/// the flags ask for. A usage error in `args` exits 2.
pub fn main_with_args(name: &str, args: &[String]) {
    let figure = ALL
        .iter()
        .find(|f| f.name == name)
        .expect("a registered figure");
    let mut suite = Suite::from_env(name, Flags::from_args(args));
    figure
        .write(&mut suite, &mut io::stdout().lock())
        .expect("write to stdout");
    suite.emit();
}
