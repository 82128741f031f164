//! `exp <id>|all` — run reconstructed experiments at full scale.
//!
//! Prints each experiment's tables and one `check <name>: ok|FAILED
//! (<detail>)` line per claim check, and writes `results/<artifact>.json`
//! (`TG_RESULTS_DIR` overrides the directory). Wall time and peak RSS go to
//! stderr, so stdout and the artifacts depend on the code alone. Exits 1 if
//! any check failed or an artifact could not be written, 2 on an unknown id.

use std::process::ExitCode;
use std::time::Instant;
use tg_bench::emit::save_json;
use tg_bench::exp::{Scale, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> = match args.as_slice() {
        [id] if id == "all" => EXPERIMENTS.iter().collect(),
        [id] => EXPERIMENTS.iter().filter(|(e, _)| e == id).collect(),
        _ => Vec::new(),
    };
    if chosen.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "usage: exp <id>|all, where <id> is one of: {}",
            ids.join(" ")
        );
        return ExitCode::from(2);
    }
    let mut failed = 0;
    for (id, run) in chosen {
        let start = Instant::now();
        let outcome = run(Scale::Full);
        for table in &outcome.tables {
            println!("{table}");
        }
        for c in &outcome.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("check {}: {verdict} ({})", c.name, c.detail);
        }
        println!();
        match save_json(outcome.artifact, &outcome.json) {
            Ok(path) => eprintln!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("exp: {e}");
                failed += 1;
            }
        }
        let rss = tg_des::memory::peak_rss_bytes().map_or("?".into(), |b| (b >> 20).to_string());
        eprintln!(
            "[{id}: {:.1} s wall, peak RSS {rss} MiB so far]",
            start.elapsed().as_secs_f64()
        );
        failed += outcome.failures().count();
    }
    if failed > 0 {
        eprintln!("exp: {failed} check(s) or artifact write(s) failed");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
