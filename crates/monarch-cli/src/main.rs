//! `monarch` — command-line front end for the middleware.
//!
//! ```text
//! monarch gen-dataset --dir DIR --bytes N --samples N [--seed N]
//! monarch stage       --config CFG.json [--policy first_fit|lru_evict|clairvoyant|learned]
//! monarch inspect     --config CFG.json
//! monarch epoch       --config CFG.json --data DIR [--readers N] [--chunk BYTES] [--epochs N]
//! monarch metrics     --config CFG.json [--format text|json] [--watch SECS]
//! monarch trace       --config CFG.json --data DIR --out TRACE.json [--readers N] [--chunk BYTES] [--duration SECS] [--sample N]
//! ```
//!
//! `stage` pre-places the dataset (placement option (i), §III-A);
//! `epoch` streams the dataset through the middleware with the tf.data-like
//! real trainer and prints per-epoch times and tier hit counts;
//! `metrics` renders the state document as Prometheus-style text (the same
//! exposition the C FFI returns from `monarch_metrics_text`);
//! `trace` runs epochs with causal request tracing on and writes a
//! Chrome Trace Event / Perfetto JSON file (open in `ui.perfetto.dev`)
//! whose flow arrows link each sampled foreground read to the background
//! copy it scheduled.

use monarch_cli::{run, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", Command::usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(cmd) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
