//! Paper-scale wire benchmark for medkb.
//!
//! Drives the real HTTP/1.1 front end over loopback against a generated
//! 350k-concept world (exact mapping) and checks every answer it measures:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads, one keep-alive connection each: `wire_hot` (zipf over 32 hot
//! queries, all cache hits after warm-up), `delta_publish` (the same hot
//! stream beside a writer that applies and publishes a delta every ~2.5 s)
//! and `wire_miss` (whole passes over 2048 queries, each once per pass in a
//! seeded order, against a 256-entry cache). `BENCHMARK.json` gates the
//! first two; `wire_miss` is run by hand, because its round trips are
//! relaxation compute, which a shared host slows by up to a third for
//! minutes at a time.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` attaches a
//! metrics registry, records the benchmark's own spans, and prints
//! per-layer metrics instead. The last line of standard output is the
//! result object; the line before it carries the run's metadata (core
//! count, seed, sample counts behind each percentile, the ungated p99).
//! Traced runs also write their spans to `perfbench/out/`.

mod load;
mod setup;
mod stats;
mod stream;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wire::json_string;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload wire_hot|delta_publish|wire_miss --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} out of (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's commit, read from `.git` in the working directory
/// (benchmark checkouts that are not git repositories report "unknown").
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let name = args.workload.name();
    eprintln!(
        "[perfbench] {name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace
    );
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace, &out_dir);

    let mut meta = outcome.meta;
    let connections = workloads::CONNECTIONS.to_string();
    meta.insert("workload", json_string(name));
    meta.insert("seed", args.seed.to_string());
    meta.insert("seconds", args.seconds.to_string());
    meta.insert("trace", u8::from(args.trace).to_string());
    meta.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    meta.insert("world_concepts", setup::WORLD_CONCEPTS.to_string());
    meta.insert("git_rev", json_string(&git_rev()));
    meta.insert("client_threads", connections.clone());
    meta.insert("connections", connections);
    meta.insert("setup_reps", setup::SETUP_REPS.to_string());
    meta.insert(
        "percentile_rule",
        json_string("nearest rank, reported with at least 10 samples beyond"),
    );
    let meta_json = format!(
        "{{{}}}",
        meta.iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect::<Vec<_>>()
            .join(",")
    );

    if args.trace {
        let by_name: Vec<String> = trace::self_time_by_name(&outcome.spans)
            .into_iter()
            .map(|(n, (count, self_ns))| {
                format!(
                    "{}:{{\"spans\":{count},\"self_ns\":{self_ns}}}",
                    json_string(n)
                )
            })
            .collect();
        let dump = format!(
            "{{\"meta\":{meta_json},\n\"self_time\":{{{}}},\n\"spans\":{}}}\n",
            by_name.join(","),
            trace::to_json(&outcome.spans)
        );
        let path = out_dir.join(format!("trace-{name}-seed{}.json", args.seed));
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(n),
                finite(*v),
                json_string(u)
            )
        })
        .collect();
    println!("{meta_json}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "[perfbench] FAILED: {}",
            meta.get("failures").map_or("", String::as_str)
        );
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a non-finite value is reported as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
