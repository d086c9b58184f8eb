//! The tune phase: `cmm_tune::tune` with the default `TuneConfig` and
//! the workload seed on `examples/imbalanced.xc` and
//! `examples/pipeline_profile.xc`.

use std::time::Instant;

use cmm_ast::display::print_program;
use cmm_core::Registry;
use cmm_forkjoin::{deque_makespan, Schedule, TilePolicy, DEFAULT_GEOMETRY};
use cmm_loopir::{Interp, Limits, Tier};
use cmm_tune::{site, CandidateStatus, TuneConfig, TuneOutcome};

use crate::report::Report;
use crate::serve_mix::compile_traced;
use crate::stats::{geomean, median, ratio};
use crate::trace::{Budget, Tracer};

pub const PROGRAMS: [(&str, &str); 2] = [
    ("imbalanced", include_str!("../../examples/imbalanced.xc")),
    (
        "pipeline_profile",
        include_str!("../../examples/pipeline_profile.xc"),
    ),
];

/// Tune both programs in turn until `budget_s` is spent, at least once
/// each, calling `between` after every tune call.
pub fn phase(
    seed: u64,
    budget_s: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let cfg = TuneConfig {
        seed,
        ..TuneConfig::default()
    };
    let t_phase = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let mut outcomes: Vec<Option<TuneOutcome>> = PROGRAMS.iter().map(|_| None).collect();
    let mut last_round = 0.0;
    // Stop before a round that would overrun the budget.
    while times[0].is_empty() || t_phase.elapsed().as_secs_f64() + last_round <= budget_s {
        let t_round = Instant::now();
        for (k, (name, src)) in PROGRAMS.iter().enumerate() {
            let t = Instant::now();
            let out = cmm_tune::tune(src, &cfg).map_err(|e| format!("tune {name}: {e}"))?;
            times[k].push(t.elapsed().as_secs_f64());
            let improved = out.tuned_cost <= out.baseline_cost;
            rep.check(&format!("tune {name}"), out.verified && improved, || {
                format!(
                    "verified {}, tuned {} vs baseline {}",
                    out.verified, out.tuned_cost, out.baseline_cost
                )
            });
            outcomes[k] = Some(out);
            between()?;
        }
        last_round = t_round.elapsed().as_secs_f64();
    }
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    rep.e2e("tune_s", geomean(&medians), "s");
    let imb = outcomes[0].as_ref().ok_or("no tune outcome")?;
    rep.e2e(
        "tuned_cost_ratio",
        imb.tuned_cost as f64 / imb.baseline_cost as f64,
        "ratio",
    );
    let rows: Vec<String> = PROGRAMS
        .iter()
        .zip(&outcomes)
        .zip(&medians)
        .map(|(((name, _), o), t)| {
            let o = o.as_ref().expect("every program tuned at least once");
            format!(
                "{{\"program\": \"{name}\", \"tune_s\": {t:.4}, \"runs\": {}, \"baseline_cost\": {}, \"tuned_cost\": {}, \"verified\": {}}}",
                times[0].len(),
                o.baseline_cost,
                o.tuned_cost,
                o.verified
            )
        })
        .collect();
    rep.detail("tune_programs", format!("[{}]", rows.join(", ")));

    if tracer.enabled() {
        let mut candidates = 0usize;
        let mut scored = 0usize;
        let mut probe_ns = 0.0;
        let registry = Registry::standard();
        let compiler = registry
            .compiler(cmm_tune::EXTENSIONS)
            .map_err(|e| e.to_string())?;
        let mut probe_ms = Vec::new();
        for (k, (name, src)) in PROGRAMS.iter().enumerate() {
            let out = outcomes[k].as_ref().expect("tuned");
            for s in &out.sites {
                candidates += s.candidates.len();
                scored += s.candidates[1..]
                    .iter()
                    .filter(|c| matches!(c.status, CandidateStatus::Scored { .. }))
                    .count();
            }
            let (b, probe) = replay(
                name,
                src,
                out,
                &cfg,
                medians[k] * 1e9,
                times[k].len(),
                tracer,
            )?;
            probe_ns += probe;
            rep.budgets.push(b);
            let t: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    compiler
                        .run_cost_probe(
                            src,
                            Limits {
                                fuel: Some(cfg.probe_fuel),
                                ..Limits::default()
                            },
                        )
                        .map(|_| t.elapsed().as_secs_f64() * 1e3)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            probe_ms.push(median(&t));
        }
        let attempted = candidates
            - outcomes
                .iter()
                .flatten()
                .map(|o| o.sites.len())
                .sum::<usize>();
        rep.layer("tune.candidates", candidates as f64, "count");
        rep.layer(
            "tune.scored_ratio",
            ratio(scored as f64, attempted as f64),
            "ratio",
        );
        rep.layer(
            "tune.probe_share",
            probe_ns / (medians.iter().sum::<f64>() * 1e9),
            "ratio",
        );
        rep.layer("loopir.probe_ms", geomean(&probe_ms), "ms");
    }
    Ok(())
}

/// Replay the public calls one `tune` makes for `src` under spans: the
/// baseline and every non-baseline candidate are printed, compiled with
/// `compile_metered`, probed single-threaded on the tree tier, and
/// scored through the deque makespan model. Returns the budget of a
/// tune call (its remainder is the tuner's own search) and the probe
/// time (tree-tier runs plus makespan models) of one call.
fn replay(
    name: &str,
    src: &str,
    out: &TuneOutcome,
    cfg: &TuneConfig,
    tune_ns: f64,
    count: usize,
    tracer: &mut Tracer,
) -> Result<(Budget, f64), String> {
    let grain = TilePolicy::from_geometry(DEFAULT_GEOMETRY).static_grain;
    let op = tracer.op();
    let root = tracer.begin("bench", &format!("tune.replay {name}"), op, None);
    let s = tracer.begin("core", "Registry::standard", op, Some(root));
    let registry = Registry::standard();
    tracer.end(s);
    let s = tracer.begin("core", "Registry::compiler", op, Some(root));
    let compiler = registry
        .compiler(cmm_tune::EXTENSIONS)
        .map_err(|e| e.to_string())?;
    tracer.end(s);
    let s = tracer.begin("core", "Compiler::frontend", op, Some(root));
    let ast = compiler.frontend(src).map_err(|e| e.to_string())?;
    tracer.end(s);
    let mut sources = vec![src.to_string()];
    for site_result in &out.sites {
        for c in &site_result.candidates[1..] {
            let s = tracer.begin("tune", "site::apply + print", op, Some(root));
            sources.push(print_program(&site::apply(
                &ast,
                &[(site_result.site.id, c.directives.clone())],
            )));
            tracer.end(s);
        }
    }
    let mut probe_ns = 0u64;
    for csrc in &sources {
        let Ok(ir) = compile_traced(&compiler, csrc, tracer, op, root, false) else {
            continue;
        };
        let s = tracer.begin("loopir", "probe run (tree tier)", op, Some(root));
        let interp = Interp::new(&ir, 1)
            .with_limits(Limits {
                fuel: Some(cfg.probe_fuel),
                ..Limits::default()
            })
            .with_tier(Tier::Tree)
            .with_cost_probe(true);
        let ran = interp.run_main().is_ok();
        tracer.end(s);
        probe_ns += tracer.duration_ns(s);
        if !ran {
            continue;
        }
        let s = tracer.begin("forkjoin", "deque_makespan", op, Some(root));
        for r in interp.loop_costs() {
            std::hint::black_box(deque_makespan(
                &r.iters,
                r.schedule.unwrap_or(Schedule::Static),
                cfg.threads,
                grain,
            ));
        }
        tracer.end(s);
        probe_ns += tracer.duration_ns(s);
    }
    tracer.end(root);
    let mut b = Budget::new(&format!("tune {name}"), count, tune_ns);
    b.add_all(&tracer.self_times(root), 1.0);
    // Whatever the replayed lower layers do not cover is the tuner's own
    // work (site discovery, candidate search, ranking, the report).
    let covered: f64 = b.layers.values().sum();
    b.add("tune", (tune_ns - covered).max(0.0));
    Ok((b, probe_ns as f64))
}
