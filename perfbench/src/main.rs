//! `cmm-perfbench`: the cmm workspace's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer is predicted to move.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it holds the host fingerprint, sample counts, per-program rows
//! and any failed check.

mod batch;
mod host;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod tune_search;

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use cmm_core::{Compiler, Registry};
use cmm_forkjoin::ForkJoinPool;
use cmm_serve::ServerHandle;

use report::{metrics_json, Report};
use stats::{geomean, median};
use trace::Tracer;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a of a label, to derive independent streams from one seed.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Front-end and emitter costs of a program set, measured from outside
/// by `Compiler::parser().parse` and the pipeline's own per-pass timings
/// (`compile_metered`): check = build + check passes (the frontend minus
/// the parse), lower = optimize + lower (compile minus the frontend).
#[derive(Default)]
pub struct FrontCosts {
    parse_ns: Vec<f64>,
    bytes: f64,
    check_ns: Vec<f64>,
    lower_ns: Vec<f64>,
    emit_ns: Vec<f64>,
    ir_stmts: f64,
    c_bytes: f64,
}

impl FrontCosts {
    /// Add one program: the median of five measurements of each part.
    pub fn add(&mut self, compiler: &Compiler, src: &str) -> Result<(), String> {
        let mut parse = Vec::new();
        let (mut check, mut lower, mut emit) = (Vec::new(), Vec::new(), Vec::new());
        let (mut stmts, mut c_bytes) = (0, 0);
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(compiler.parser().parse(src)).map_err(|e| e.to_string())?;
            parse.push(t.elapsed().as_nanos() as f64);
            let (_, m) = compiler.compile_metered(src).map_err(|e| e.to_string())?;
            let pass = |names: &[&str]| -> f64 {
                m.passes
                    .iter()
                    .filter(|p| names.contains(&p.name))
                    .map(|p| p.nanos as f64)
                    .sum()
            };
            check.push(pass(&["build", "check"]));
            lower.push(pass(&["optimize", "lower"]));
            emit.push(pass(&["emit"]));
            let items = |name: &str| {
                m.passes
                    .iter()
                    .find(|p| p.name == name)
                    .map_or(0, |p| p.items)
            };
            stmts = items("lower");
            c_bytes = items("emit");
        }
        self.parse_ns.push(median(&parse));
        self.bytes += src.len() as f64;
        self.check_ns.push(median(&check));
        self.lower_ns.push(median(&lower));
        self.emit_ns.push(median(&emit));
        self.ir_stmts += stmts as f64;
        self.c_bytes += c_bytes as f64;
        Ok(())
    }

    fn report(&self, rep: &mut Report) {
        rep.layer("grammar.parse_us", geomean(&self.parse_ns) / 1e3, "us");
        rep.layer(
            "grammar.parse_mb_s",
            self.bytes / (self.parse_ns.iter().sum::<f64>() / 1e9) / 1e6,
            "MB/s",
        );
        rep.layer("lang.check_us", geomean(&self.check_ns) / 1e3, "us");
        rep.layer("lang.lower_us", geomean(&self.lower_ns) / 1e3, "us");
        rep.layer("lang.ir_stmts", self.ir_stmts, "count");
        rep.layer("loopir.emit_us", geomean(&self.emit_ns) / 1e3, "us");
        rep.layer("loopir.c_bytes", self.c_bytes, "bytes");
    }
}

/// The share of `--seconds` spent on compile slices at the end of a run,
/// once the daemon has shut down (see `batch::CompileTimer`).
const COMPILE_TAIL: f64 = 0.06;

/// Each workload runs all three phases; these are the fractions of the
/// rest of `--seconds` it gives serve, batch and tune. It spends the most
/// on the phase it exists for (the serve floors may bind first).
const WORKLOADS: [(&str, [f64; 3]); 2] = [
    ("serve-mix", [0.60, 0.15, 0.25]),
    ("batch-apps", [0.35, 0.40, 0.25]),
];

/// Setup child processes at each of three points of a run (before setup,
/// after the batch phase, after the tune phase); with the run's own
/// setup, `setup_s` is the median of ten cold starts spread over the
/// run, since host speed drifts on a scale of seconds.
const SETUP_CHILDREN: usize = 3;

/// Everything a cold start builds before the first timed operation.
struct Setup {
    registry: Registry,
    pool: Arc<ForkJoinPool>,
    server: ServerHandle,
    total_s: f64,
    registry_us: f64,
    compiler_ms: Vec<f64>,
    pool_us: f64,
}

/// `Registry::standard`, the first `Registry::compiler` for every
/// extension set the run uses (each an LALR(1) build), the batch pool,
/// and the daemon up to its first `ping`.
fn setup(nproc: usize) -> Result<Setup, String> {
    let t0 = Instant::now();
    let registry = Registry::standard();
    let registry_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut compiler_ms = Vec::new();
    for set in serve_mix::EXT_SETS {
        let t = Instant::now();
        registry.compiler(set).map_err(|e| e.to_string())?;
        compiler_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let pool = Arc::new(ForkJoinPool::new(nproc));
    let pool_us = t.elapsed().as_secs_f64() * 1e6;
    let server =
        cmm_serve::start(serve_mix::config(nproc)).map_err(|e| format!("start daemon: {e}"))?;
    let (mut stream, mut reader) = serve_mix::connect(&server)?;
    serve_mix::ping(&mut stream, &mut reader)?;
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        registry,
        pool,
        server,
        total_s,
        registry_us,
        compiler_ms,
        pool_us,
    })
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    addr: String,
    plan: serve_mix::Plan,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("gen") | Some("setup") => argv.remove(0),
        _ => "run".to_string(),
    };
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        addr: String::new(),
        plan: serve_mix::Plan {
            quiet: 0,
            loaded: 0,
            closed_s: 0.0,
        },
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("--seed: {val}"))?,
            "--seconds" => a.seconds = num(&val)?,
            "--trace" => a.trace = val == "1",
            "--addr" => a.addr = val,
            "--quiet" => a.plan.quiet = num(&val)? as usize,
            "--loaded" => a.plan.loaded = num(&val)? as usize,
            "--closed-s" => a.plan.closed_s = num(&val)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.mode.as_str() {
        "gen" => serve_mix::generator(&args.addr, args.seed, &args.plan),
        "setup" => setup(host::nproc()).map(|s| {
            println!(
                "setup {} {} {} {}",
                s.total_s,
                s.registry_us,
                s.pool_us,
                s.compiler_ms
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            s.server.shutdown();
        }),
        _ => run(&args),
    };
    if let Err(e) = result {
        eprintln!("cmm-perfbench: {e}");
        std::process::exit(1);
    }
}

/// One cold start measured in a child process.
struct ColdStart {
    total_s: f64,
    registry_us: f64,
    pool_us: f64,
    compiler_ms: Vec<f64>,
}

/// Cold starts in fresh processes: the composed-parser cache is
/// process-global, so a second setup in one process would be warm.
fn setup_children() -> Result<Vec<ColdStart>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .arg("setup")
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text
                .lines()
                .find(|l| l.starts_with("setup "))
                .filter(|_| out.status.success());
            let f: Vec<&str> = line.ok_or("setup child failed")?.split(' ').collect();
            let num = |s: &str| s.parse::<f64>().map_err(|e| e.to_string());
            Ok(ColdStart {
                total_s: num(f[1])?,
                registry_us: num(f[2])?,
                pool_us: num(f[3])?,
                compiler_ms: f[4].split(',').map(num).collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    // Inputs live under a per-process directory, removed however the
    // run ends.
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = measure(args, &work);
    std::fs::remove_dir_all(&work).map_err(|e| format!("remove {}: {e}", work.display()))?;
    let (rep, fingerprint) = result?;
    print_result(args, &rep, &fingerprint);
    Ok(())
}

/// Generate the inputs, set up, run the three phases and, when traced,
/// attribute them.
fn measure(args: &Args, work: &std::path::Path) -> Result<(Report, String), String> {
    let fractions = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, f)| *f)
        .ok_or_else(|| {
            format!(
                "unknown workload '{}' (serve-mix, batch-apps)",
                args.workload
            )
        })?;
    let nproc = host::nproc();
    let fingerprint = host::fingerprint_json();
    let mut rep = Report::new();
    let mut tracer = Tracer::new(args.trace);

    // Input generation is not part of setup.
    let programs = batch::prepare(work, args.seed)?;

    let mut children = setup_children()?;
    let s = setup(nproc)?;

    // Batch first; it drops the pool after its executions: idle pool
    // workers spin-then-yield, and a pool left alive would take CPU
    // from compilation, the single-threaded tuner and the daemon.
    let tail_s = COMPILE_TAIL * args.seconds;
    let [fs, fb, ft] = fractions.map(|f| f * (args.seconds - tail_s));
    let Setup {
        registry,
        pool,
        server,
        total_s: s_total,
        ..
    } = s;
    let compiler = registry
        .compiler(serve_mix::EXT_SETS[0])
        .map_err(|e| e.to_string())?;
    let mut timer = batch::CompileTimer::new(&compiler, &programs);
    batch::phase(&programs, &compiler, pool, fb, &mut tracer, &mut rep)?;
    children.extend(setup_children()?);
    tune_search::phase(
        args.seed,
        ft,
        &mut || timer.slice_all(),
        &mut tracer,
        &mut rep,
    )?;
    children.extend(setup_children()?);
    serve_mix::phase(&server, args.seed, fs, &mut tracer, &mut rep)?;
    let drain = server.shutdown();
    rep.check("serve.drain", drain.clean, || {
        "daemon did not drain cleanly".to_string()
    });
    // Shutdown dropped the daemon's session pools, so no pool is alive.
    let t_tail = Instant::now();
    while t_tail.elapsed().as_secs_f64() < tail_s {
        timer.slice_all()?;
    }

    let batch_front = timer.finish(&mut tracer, &mut rep)?;
    let mut totals: Vec<f64> = children.iter().map(|c| c.total_s).collect();
    totals.push(s_total);
    rep.e2e("setup_s", median(&totals), "s");
    rep.e2e("peak_rss_mb", host::peak_rss_mb(), "MB");

    if args.trace {
        // Per-layer costs of the workload's own programs.
        let front = match args.workload.as_str() {
            "serve-mix" => {
                let mut f = FrontCosts::default();
                for r in serve_mix::phase_requests(args.seed, "quiet", 60, nproc) {
                    if r.class == "run" {
                        let names = r
                            .ext
                            .clone()
                            .unwrap_or_else(|| serve_mix::EXT_SETS[0].to_vec());
                        f.add(
                            &registry.compiler(&names).map_err(|e| e.to_string())?,
                            &r.src,
                        )?;
                    }
                }
                f
            }
            _ => batch_front,
        };
        front.report(&mut rep);
        // The daemon's default set, which most requests compose.
        let warm: Vec<f64> = (0..30)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(registry.compiler(serve_mix::EXT_SETS[0]));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        rep.layer("core.compiler_warm_us", median(&warm), "us");
        let cold: Vec<f64> = children
            .iter()
            .flat_map(|c| c.compiler_ms.clone())
            .collect();
        rep.layer("core.compiler_cold_ms", median(&cold), "ms");
        rep.layer(
            "core.registry_standard_us",
            median(&children.iter().map(|c| c.registry_us).collect::<Vec<_>>()),
            "us",
        );
        rep.layer(
            "forkjoin.pool_new_us",
            median(&children.iter().map(|c| c.pool_us).collect::<Vec<_>>()),
            "us",
        );
        let pc = compiler.parser_cache_stats();
        rep.layer(
            "core.parser_cache_hit_ratio",
            stats::ratio(pc.hits as f64, (pc.hits + pc.misses) as f64),
            "ratio",
        );
        let shares = trace::shares(&rep.budgets);
        for (layer, share) in &shares {
            let name = if *layer == "unattributed" {
                "unattributed_share".to_string()
            } else {
                format!("{layer}.self_share")
            };
            rep.layer(&name, *share, "ratio");
        }
        let trace_path =
            PathBuf::from(".perfbench").join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&trace_path, tracer.chrome_json())
            .map_err(|e| format!("write trace: {e}"))?;
        rep.detail(
            "trace_file",
            cmm_serve::json::quote(&trace_path.to_string_lossy()),
        );
        let budgets: Vec<String> = rep.budgets.iter().map(|b| b.to_json()).collect();
        rep.detail("budgets", format!("[{}]", budgets.join(", ")));
    }
    rep.layer(
        "fail_ratio",
        stats::ratio(rep.failed as f64, rep.attempted as f64),
        "ratio",
    );
    Ok((rep, fingerprint))
}

/// The detail line, then the result line.
fn print_result(args: &Args, rep: &Report, fingerprint: &str) {
    for f in &rep.failures {
        eprintln!("cmm-perfbench: FAILED {f}");
    }
    let failures: Vec<String> = rep
        .failures
        .iter()
        .map(|f| cmm_serve::json::quote(f))
        .collect();
    let mut details = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"host\": {fingerprint}"),
        format!("\"failures\": [{}]", failures.join(", ")),
    ];
    details.extend(rep.details.iter().cloned());
    if !args.trace {
        details.push(format!(
            "\"per_layer_untraced\": {}",
            metrics_json(&rep.layer)
        ));
    }
    println!("{{{}}}", details.join(", "));
    let metrics = if args.trace { &rep.layer } else { &rep.e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics_json(metrics)
    );
}
