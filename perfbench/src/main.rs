//! `perfbench rep|traced --workload NAME --seed N [--root DIR]`
//!
//! Runs one measured repetition in this process and prints its report as
//! one JSON line. `rep` is the untraced run the end-to-end metrics come
//! from; `traced` is the per-layer run (see `perfbench::traced`). The
//! harness (`run.py`) starts one process per repetition, so the memory
//! figures (`peak_rss_mb`, `peak_heap_mb`) belong to that repetition alone.

use perfbench::{run_rep, traced, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use tg_des::memory::{peak_in_use_bytes, peak_rss_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench rep|traced --workload NAME --seed N [--root DIR]";

struct Args {
    traced: bool,
    workload: Workload,
    seed: u64,
    root: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let traced = match args.next().as_deref() {
        Some("rep") => false,
        Some("traced") => true,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let (mut workload, mut seed, mut root) = (None, None, PathBuf::from("."));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        traced,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        root,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = match args.workload.plan(&args.root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = if args.traced {
        traced::run_traced(&plan, args.seed)
    } else {
        run_rep(&plan, args.seed)
    };
    const MIB: f64 = 1024.0 * 1024.0;
    let rss = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / MIB);
    report.metric("peak_rss_mb", rss);
    report.metric("peak_heap_mb", peak_in_use_bytes() as f64 / MIB);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
