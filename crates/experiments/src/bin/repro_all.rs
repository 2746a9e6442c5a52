//! `repro_all <dir>`: render every figure and table through one suite
//! into `<dir>/<name>.txt`, each file byte-identical to its binary's
//! stdout. Honours `REPRO_SCALE` and `REPRO_SEED`; takes no flags.

use std::path::PathBuf;

use experiments::figures::ALL;
use experiments::suite::{Flags, Suite};

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let (Some(dir), None) = (args.next().map(PathBuf::from), args.next()) else {
        eprintln!("usage: repro_all <dir>");
        std::process::exit(2);
    };
    std::fs::create_dir_all(&dir)?;
    let mut suite = Suite::from_env("repro_all", Flags::default());
    for figure in &ALL {
        let mut text = Vec::new();
        figure.write(&mut suite, &mut text)?;
        std::fs::write(dir.join(format!("{}.txt", figure.name)), text)?;
    }
    suite.emit();
    Ok(())
}
