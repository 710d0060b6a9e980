//! The repository benchmark: fat-tree churn on both executors plus src-30
//! fault campaigns, each layer timed from outside.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fat_tree_churn --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--workload` is `fat_tree_churn`, `src30_campaigns` or `all`. With
//! `--trace 0` the run measures the end-to-end metrics untraced; with
//! `--trace 1` it replays the same operations with spans on (on the fat
//! tree also the start of the churn on both executors) and reports the
//! per-layer metrics, a per-layer self-time table and a Chrome trace
//! under `perfbench/out/`.
//! The last line of standard output is the JSON result. See
//! `perfbench/METRICS.md` for every metric's definition.

mod alloc;
mod campaigns;
mod churn;
mod fabric;
mod report;
mod routes;
mod schedule;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use autonet_net::{Network, PartitionedNetwork};

use report::{result_line, Budget, RunResult, PER_LAYER};
use stats::Summary;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 2] = ["fat_tree_churn", "src30_campaigns"];

/// Operations (churn cycles or campaigns) the simulated metrics cover:
/// fixed, so a faster program measures the same simulated samples.
fn prefix(workload: &str) -> usize {
    match workload {
        "fat_tree_churn" => 50,
        _ => 100,
    }
}

/// Churn cycles of the executor replay in traced runs (a heal costs the
/// sharded executor about 2 s of host time on the fat tree).
const REPLAY_CYCLES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    run_index: u64,
}

const USAGE: &str = "usage: perfbench --workload <fat_tree_churn|src30_campaigns|all> \
--seed <n> --seconds <n> --trace <0|1> [--run-index <n>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45,
        trace: false,
        run_index: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--run-index" => args.run_index = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One pass over a workload.
fn pass(workload: &str, seed: u64, budget: Budget, traced: bool) -> RunResult {
    let k = prefix(workload);
    let mut r = match workload {
        "fat_tree_churn" => {
            let plan = churn::Plan {
                setup_reps: 51,
                bringups: churn::BRINGUPS,
                prefix_cycles: k,
            };
            churn::run::<Network>(seed, budget, traced, false, plan)
        }
        _ => campaigns::run(seed, budget, traced, k),
    };
    if traced {
        r.finish_routes();
    }
    r
}

/// Adds a replay's operations and failures to the run's tally.
fn tally(out: &mut Outcome, what: &str, r: &RunResult) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.errors
        .extend(r.errors.iter().map(|e| format!("{what}: {e}")));
}

/// The executor replay of a traced fat-tree run: its first bring-up and
/// churn cycles on the classic `Network` and on `PartitionedNetwork`,
/// for the `sim.shard.*` metrics.
fn executor_replay(seed: u64, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
    let plan = churn::Plan {
        setup_reps: 5,
        bringups: 1,
        prefix_cycles: REPLAY_CYCLES,
    };
    let budget = Budget::Ops(REPLAY_CYCLES);
    let classic = churn::run::<Network>(seed, budget, true, false, plan);
    // Shard telemetry rides program tracing, which changes no behaviour.
    let sharded = churn::run::<PartitionedNetwork>(seed, budget, true, true, plan);
    tally(out, "classic executor replay", &classic);
    tally(out, "sharded executor replay", &sharded);
    let wall = |x: &RunResult| {
        x.bringup_wall_s.iter().sum::<f64>() + x.campaign_wall_ms.iter().sum::<f64>() / 1e3
    };
    let mut layers: BTreeMap<&'static str, f64> = sharded
        .layers
        .iter()
        .filter(|(n, _)| n.starts_with("sim.shard."))
        .map(|(n, v)| (*n, *v))
        .collect();
    layers.insert("sim.shard.build_ms", sharded.layers["net.build_ms"]);
    layers.insert(
        "sim.shard.wall_ratio",
        wall(&sharded) / wall(&classic).max(f64::MIN_POSITIVE),
    );
    layers
}

/// What one workload contributes to the result line.
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn print_timings(r: &RunResult) {
    println!(
        "  {:<18} {:>6} {:>11} {:>11} {:>11} {:>11}  beyond p90",
        "timing", "n", "min", "p50", "p90", "max"
    );
    let rows: [(&str, &[f64]); 8] = [
        ("setup_s", &r.setup_s),
        ("heap_mb", &r.heap_mb),
        ("bringup_wall_s", &r.bringup_wall_s),
        ("bringup_sim_ms", &r.bringup_sim_ms),
        ("reconfig_sim_ms", &r.reconfig_sim_ms),
        ("reconfig_wall_ms", &r.reconfig_wall_ms),
        ("campaign_wall_ms", &r.campaign_wall_ms),
        ("blackout_sim_ms", &r.blackout_sim_ms),
    ];
    for (name, v) in rows {
        match Summary::of(v) {
            Some(s) => println!(
                "  {name:<18} {:>6} {:>11.4} {:>11.4} {:>11.4} {:>11.4}  {}{}",
                s.n,
                s.min,
                s.p50,
                s.p90,
                s.max,
                s.beyond_p90(),
                if s.beyond_p90() < 10 {
                    " (p90 thin)"
                } else {
                    ""
                }
            ),
            None => println!("  {name:<18} {:>6}", 0),
        }
    }
}

fn print_self_times(workload: &str, r: &RunResult) {
    let layers = r.spans.layer_self_ms();
    let total: f64 = layers.values().map(|(_, ms)| ms).sum();
    println!("  per-layer self time ({workload}, traced pass):");
    println!(
        "  {:<8} {:>9} {:>12} {:>7}",
        "layer", "spans", "self ms", "share"
    );
    for (layer, (n, ms)) in &layers {
        println!(
            "  {layer:<8} {n:>9} {ms:>12.3} {:>6.1}%",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(workload: &str, args: &Args) -> Outcome {
    println!("== {workload} (seed {}, {} s)", args.seed, args.seconds);
    // A traced run measures per-layer metrics only; its untraced pass
    // covers just the simulated-metric prefix, which the traced pass
    // then replays.
    let budget = if args.trace {
        Budget::Ops(prefix(workload))
    } else {
        Budget::Time {
            seconds: args.seconds as f64,
        }
    };
    let untraced = pass(workload, args.seed, budget, false);
    let (e2e, complete) = untraced.end_to_end();
    print_timings(&untraced);
    let mut out = Outcome {
        errors: untraced.errors.clone(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: Vec::new(),
    };
    if !complete {
        out.errors
            .push("an end-to-end metric has no samples".into());
    }
    if !args.trace {
        out.metrics = e2e.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        return out;
    }

    let traced = pass(workload, args.seed, Budget::Ops(untraced.ops), true);
    if traced.fingerprint != untraced.fingerprint {
        out.errors
            .push("traced and untraced passes disagree on a simulated output".into());
    }
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.errors.extend(traced.errors.iter().cloned());
    let mut layers = traced.layers.clone();
    if workload == "fat_tree_churn" {
        layers.extend(executor_replay(args.seed, &mut out));
    }
    layers.insert(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    layers.insert("process.peak_rss_mb", report::peak_rss_mb());
    layers.insert(
        "trace.overhead_frac",
        traced.wall_s / untraced.wall_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    out.metrics = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    print_self_times(workload, &traced);
    let dir = out_dir();
    let path = dir.join(format!("{workload}-seed{}.trace.json", args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.spans.to_chrome_trace()))
    {
        Ok(()) => println!(
            "  spans ({}) -> {}",
            traced.spans.spans().len(),
            path.display()
        ),
        Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
    }
    out
}

/// Output of a short command, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `git` run on the current directory only: it never searches the
/// directories above it for a repository.
fn git(args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    command_line(
        Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

fn provenance(args: &Args) -> String {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = if rev == "unknown" {
        "unknown".to_string()
    } else {
        (!git(&["status", "--porcelain", "--untracked-files=no"]).is_empty()).to_string()
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": {}, \"dirty\": {}, \"nproc\": {nproc}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"run_index\": {}, \"traced\": {}}}",
        report::json_str(&rev),
        report::json_str(&dirty),
        report::json_str(&command_line(Command::new(rustc).arg("--version"))),
        report::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.run_index,
        args.trace
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    println!("provenance: {prov}");
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    let mut metrics = Vec::new();
    for w in &selected {
        let o = run_workload(w, &args);
        attempted += o.attempted;
        failed += o.failed;
        errors.extend(o.errors.into_iter().map(|e| format!("{w}: {e}")));
        for (n, v) in o.metrics {
            let name = if selected.len() > 1 {
                format!("{w}/{n}")
            } else {
                n
            };
            println!(
                "  {name:<40} {v:>16.6} {}",
                report::unit_of(name.rsplit('/').next().unwrap_or(""))
            );
            metrics.push((name, v));
        }
    }
    for e in &errors {
        println!("FAILED: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    let line = result_line(correct, attempted.max(1), failed, &metrics);
    let record = format!("{{\"provenance\": {prov}, \"result\": {line}}}\n");
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&file, record))
    {
        eprintln!("writing {}: {e}", file.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
