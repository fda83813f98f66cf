//! `ledger` — the repository's benchmark: real `cde` stubs over `tcp://`
//! against real `SdeManager` / `Router` fleets in six named workloads,
//! end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! ledger [--workload W]... [--seed S] [--seconds T] [--traced | --trace 0|1]
//!        [--repeat N] [--json out.json]
//! ledger compare BASE.json... --new NEW.json...
//! ```
//!
//! See `benchmarks/README.md` for the catalogue and the reasons.

mod catalogue;
mod e2e;
mod instruments;
mod json;
mod layers;
mod report;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Duration;

use catalogue::{END_TO_END, PER_LAYER};
use json::Json;
use report::{Record, ResultFile};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: instruments::CountingAllocator = instruments::CountingAllocator;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: usize,
    json: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "ledger: {problem}\n\
         usage: ledger [--workload W]... [--seed S] [--seconds T] [--traced | --trace 0|1] \
         [--repeat N] [--json out.json]\n\
         \x20      ledger compare BASE.json... --new NEW.json...\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Options {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        traced: false,
        repeat: 1,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        let number = |text: &str| -> u64 {
            text.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, got {text:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                o.workloads.push(
                    workloads::find(name)
                        .unwrap_or_else(|| usage(&format!("no workload {name:?}"))),
                );
            }
            "--seed" => o.seed = number(value()),
            "--seconds" => o.seconds = number(value()),
            "--trace" => o.traced = number(value()) != 0,
            "--traced" => o.traced = true,
            "--repeat" => o.repeat = number(value()) as usize,
            "--json" => o.json = Some(value().to_string()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&o.seconds) || o.repeat == 0 {
        usage("--seconds is 1 to 60 and --repeat at least 1");
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    o
}

/// Scratch space beside the executable, so everything the ledger writes
/// stays inside the checkout's build directory.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .expect("the ledger's own executable path")
}

fn env_info(o: &Options) -> Vec<(String, Json)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("kernel".into(), Json::str(kernel.trim())),
        (
            "network".into(),
            Json::str("loopback: tcp://127.0.0.1, servers in the benchmark process"),
        ),
        (
            "load".into(),
            Json::str(format!(
                "closed loop, {} caller threads, one stub and one connection each",
                workloads::CALLERS
            )),
        ),
        (
            "wal_dir".into(),
            Json::str("inside the checkout's build directory (a disk, not /dev/shm)"),
        ),
        ("seconds".into(), Json::Num(o.seconds as f64)),
        ("warmup_s".into(), Json::Num(e2e::WARMUP.as_secs_f64())),
        ("setups_per_run".into(), Json::Num(e2e::SETUPS as f64)),
    ]
}

/// Runs one workload in this process and prints its results; the last
/// line is the driver's result object.
fn run_here(o: &Options, workload: &Workload, build: &Path) -> Record {
    let work = build
        .join("ledger-work")
        .join(std::process::id().to_string());
    let window = Duration::from_secs(o.seconds);
    println!(
        "ledger: {} run, seed {}, {} s window, loopback tcp://127.0.0.1, closed loop of {} caller threads",
        if o.traced { "traced per-layer" } else { "end-to-end" },
        o.seed,
        o.seconds,
        workloads::CALLERS
    );
    println!("{}: {}", workload.name, workload.why);
    let record = if o.traced {
        let (record, spans) = layers::run(workload, o.seed, window, &work);
        let traces = build.join("ledger-traces");
        std::fs::create_dir_all(&traces).expect("trace directory");
        let path = traces.join(format!("trace-{}.json", workload.name));
        spans.write_json(&path).expect("write trace");
        println!("spans: {} in {}", spans.spans().len(), path.display());
        record
    } else {
        e2e::run(workload, o.seed, window, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    print!("{}", record.render());
    let names: Vec<&str> = if o.traced {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!("{}", record.contract_line(&names));
    record
}

/// Runs one workload in a child process of this executable and reads its
/// result file back. Servers leave threads behind when they shut down;
/// a fresh process per workload keeps one workload's leftovers out of the
/// next one's numbers, and is what the driver does anyway.
fn run_in_child(o: &Options, workload: &Workload, build: &Path) -> Record {
    let out = build.join(format!("ledger-child-{}.json", std::process::id()));
    let status = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["--workload", workload.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .arg("--json")
        .arg(&out)
        .status()
        .expect("start a child ledger");
    let file = ResultFile::load(&out.to_string_lossy());
    let _ = std::fs::remove_file(&out);
    match file {
        Ok(mut file) if file.runs.len() == 1 && file.runs[0].1.len() == 1 => {
            let record = file.runs.remove(0).1.remove(0);
            // A child that saw failed calls has said so and exits 1.
            assert!(
                status.success() || record.failed > 0,
                "child ledger: {status}"
            );
            record
        }
        _ => {
            eprintln!("ledger: {} did not finish ({status})", workload.name);
            std::process::exit(1)
        }
    }
}

fn run(o: &Options) -> bool {
    let build = build_dir();
    let mut file = ResultFile {
        kind: if o.traced { "layers" } else { "e2e" }.to_string(),
        env: env_info(o),
        runs: Vec::new(),
    };
    let alone = o.workloads.len() == 1 && o.repeat == 1;
    for round in 0..o.repeat {
        if o.repeat > 1 {
            println!("round {} of {}", round + 1, o.repeat);
        }
        let records = o
            .workloads
            .iter()
            .map(|w| {
                if alone {
                    run_here(o, w, &build)
                } else {
                    run_in_child(o, w, &build)
                }
            })
            .collect();
        file.runs.push((o.seed, records));
    }
    if o.repeat > 1 {
        print!("{}", report::render_repeat(&file));
    }
    if let Some(path) = &o.json {
        std::fs::write(path, file.to_json().render_pretty())
            .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
    }
    file.runs.iter().flat_map(|(_, r)| r).all(|r| r.failed == 0)
}

fn compare(args: &[String]) -> bool {
    let (base, new): (Vec<&String>, Vec<&String>) = match args.iter().position(|a| a == "--new") {
        Some(at) => (args[..at].iter().collect(), args[at + 1..].iter().collect()),
        None if args.len() == 2 => (vec![&args[0]], vec![&args[1]]),
        None => usage("compare takes BASE.json... --new NEW.json..."),
    };
    if base.is_empty() || new.is_empty() {
        usage("compare needs at least one file per side");
    }
    let load = |paths: Vec<&String>| -> Vec<ResultFile> {
        paths
            .into_iter()
            .map(|p| ResultFile::load(p).unwrap_or_else(|e| usage(&e)))
            .collect()
    };
    let (table, any_worse) = report::compare(&load(base), &load(new));
    print!("{table}");
    !any_worse
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => run(&parse(&args)),
    };
    if !ok {
        std::process::exit(1);
    }
}
