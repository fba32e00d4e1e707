//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [all|table1|fig4|fig5|fig6|fig7|fig8|fig9|ablations|extensions]... [--quick] [--ascii] [--out DIR]
//! ```
//!
//! Each experiment prints its markdown rendering to stdout and writes
//! `<id>.md` + `<id>.csv` under the output directory (default
//! `results/`). An unknown experiment or option, or `--out` without its
//! value, is one `error:` line plus the usage on stderr and exit 2,
//! before anything runs or is written.

use asi_harness::experiments::{
    ablations, distributed, fig4, fig5, fig6, fig7, fig8, fig9, pathdist, table1,
};
use asi_harness::{Chart, TableOut};
use std::path::PathBuf;
use std::time::Instant;

struct Sink {
    dir: PathBuf,
    ascii: bool,
}

impl Sink {
    fn chart(&self, c: &Chart) {
        println!("{}", c.to_markdown());
        if self.ascii {
            println!("{}", c.to_ascii(72, 18));
        }
        c.save(&self.dir).expect("write results");
    }
    fn table(&self, t: &TableOut) {
        println!("{}", t.to_markdown());
        t.save(&self.dir).expect("write results");
    }
}

/// An experiment's name, and what renders and writes it (the `bool` is
/// `--quick`).
type Experiment = (&'static str, fn(&Sink, bool));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", |sink, _| sink.table(&table1::run())),
    ("fig4", |sink, quick| sink.chart(&fig4::run(quick))),
    ("fig5", |sink, _| {
        let written = fig5::run(&sink.dir).expect("write DOT files");
        for (file, nodes) in written {
            println!("fig5: wrote {file} ({nodes} devices); render with `neato -Tpng`");
        }
        println!();
    }),
    ("fig6", |sink, quick| {
        let out = fig6::run(quick);
        sink.chart(&out.scatter);
        sink.chart(&out.averages);
    }),
    ("fig7", |sink, _| {
        sink.chart(&fig7::run_timeline());
        sink.chart(&fig7::run_ideal());
    }),
    ("fig8", |sink, quick| {
        sink.chart(&fig8::run_fm_sweep(quick));
        sink.chart(&fig8::run_device_sweep(quick));
    }),
    ("fig9", |sink, quick| {
        let out = fig9::run(quick);
        sink.chart(&out.a);
        sink.chart(&out.b);
        sink.chart(&out.c);
    }),
    ("ablations", |sink, quick| {
        sink.table(&ablations::traffic(quick));
        sink.table(&ablations::partial_assimilation(quick));
        sink.table(&ablations::flow_control(quick));
        sink.table(&ablations::spec_pool(quick));
    }),
    ("extensions", |sink, quick| {
        sink.table(&distributed::run(quick));
        sink.table(&pathdist::run(quick));
    }),
];

/// `all` and every experiment's name, joined by `sep`.
fn names(sep: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!("all{sep}{}", names.join(sep))
}

fn fail(msg: String) -> ! {
    let names = names("|");
    eprintln!("error: {msg}\n\nusage: experiments [{names}]... [--quick] [--ascii] [--out DIR]");
    std::process::exit(2)
}

fn main() {
    let (mut which, mut quick, mut ascii) = (Vec::new(), false, false);
    let mut dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--ascii" => ascii = true,
            "--out" => match args.next() {
                Some(out) => dir = PathBuf::from(out),
                None => fail("--out is missing its value".into()),
            },
            // `experiments -- all`, as `cargo run` takes it, run directly.
            "--" => {}
            name if name == "all" || EXPERIMENTS.iter().any(|&(known, _)| known == name) => {
                which.push(arg.clone())
            }
            flag if flag.starts_with('-') => fail(format!("unknown option {flag:?}")),
            name => fail(format!("unknown experiment {name:?} ({})", names(", "))),
        }
    }
    let all = which.is_empty() || which.iter().any(|name| name == "all");
    let sink = Sink { dir, ascii };
    let started = Instant::now();
    for &(name, run) in EXPERIMENTS {
        if all || which.iter().any(|w| w == name) {
            let t = Instant::now();
            eprintln!("==> running {name}…");
            run(&sink, quick);
            eprintln!("<== {name} done in {:.1}s", t.elapsed().as_secs_f64());
        }
    }
    eprintln!(
        "all selected experiments finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
