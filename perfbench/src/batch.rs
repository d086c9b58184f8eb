//! The batch phase: the paper's applications, each compiled once and
//! then executed repeatedly on the VM tier at `threads = nproc`, every
//! output checked against a reference that does not use the VM.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cmm_core::Compiler;
use cmm_eddy::conncomp::{canonical_labels, conn_comp_frame};
use cmm_eddy::programs::{
    connected_components_program, eddy_scoring_program, temporal_mean_program,
};
use cmm_eddy::{score_all, synthetic_ssh, SshParams};
use cmm_forkjoin::ForkJoinPool;
use cmm_loopir::{Interp, IrProgram, Limits, Tier};
use cmm_runtime::{matrix_map_seq, read_matrix, write_matrix, Ix, Matrix};

use crate::report::Report;
use crate::serve_mix::{compile_traced, exec_traced};
use crate::stats::{geomean, median, quantile, ratio};
use crate::trace::{Budget, Tracer};
use crate::{FrontCosts, Rng};

const IMBALANCED: &str = include_str!("../../examples/imbalanced.xc");
/// The Fig 9 recipe applied to Fig 1.
const FIG9: &str = "\n        transform split j by 4, jin, jout. vectorize jin. parallelize i";
/// Fig 4's minimum-label propagation is O(frames × cells × diameter),
/// so it labels only the first frames of the cube; a whole-cube run
/// would take seconds on its own.
const FIG4_FRAMES: usize = 16;
const FIG4_THRESHOLD: f32 = -0.3;
const MATMUL_N: usize = 96;
/// The quantile of a program's compile times reported as its
/// `compile_ms` (see `CompileTimer`).
const COMPILE_QUANTILE: f64 = 0.01;

/// How one program's output is checked.
enum Reference {
    /// Fig 1: plain Rust mean over time, within 1e-4.
    Mean(Matrix<f32>),
    /// Fig 8: `cmm_eddy::score_all`, bitwise.
    Scores(Matrix<f32>),
    /// Fig 4: `connected_components` per frame, labels canonicalized.
    Labels(Vec<Matrix<i32>>),
    /// Matmul: `Matrix::matmul`, bitwise (inputs are multiples of 1/64,
    /// so every partial sum is exact in f32 and order cannot matter).
    Product(Matrix<f32>),
    /// imbalanced.xc: the closed-form fold of its rows.
    Printed(f64),
}

pub struct Program {
    pub name: &'static str,
    pub src: String,
    output: String,
    reference: Reference,
}

/// Generate the seeded inputs under `dir` and the references they must
/// reproduce. The SSH cube is sized so that the working set of Fig 1
/// and Fig 8 exceeds the L2 size `cache_geometry()` reports.
pub fn prepare(dir: &Path, seed: u64) -> Result<Vec<Program>, String> {
    let l2 = cmm_forkjoin::cache_geometry().l2_bytes;
    let (lat, lon) = (32, 64);
    let time = (l2 * 11 / 10 / (lat * lon * 4)).div_ceil(8) * 8;
    let cube = synthetic_ssh(&SshParams {
        lat,
        lon,
        time,
        seed,
        ..SshParams::default()
    });
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let io = |e: cmm_runtime::MatrixError| e.to_string();
    write_matrix(path("ssh.cmmx"), &cube).map_err(io)?;
    let frames = Matrix::from_fn([lat, lon, FIG4_FRAMES], |ix| {
        cube.as_slice()[(ix[0] * lon + ix[1]) * time + ix[2]]
    });
    write_matrix(path("frames.cmmx"), &frames).map_err(io)?;

    let mean = Matrix::from_fn([lat, lon], |ix| {
        let row = &cube.as_slice()[(ix[0] * lon + ix[1]) * time..][..time];
        row.iter().fold(0.0f32, |a, &x| a + x) / time as f32
    });
    let scores = score_all(&ForkJoinPool::new(1), &cube).map_err(io)?;
    let native = matrix_map_seq(
        |f: &Matrix<f32>| conn_comp_frame(f, FIG4_THRESHOLD),
        &frames,
        &[0, 1],
    )
    .map_err(io)?;
    let labels = (0..FIG4_FRAMES)
        .map(|t| {
            native
                .index_get(&[Ix::All, Ix::All, Ix::At(t as i64)])
                .map(|m| canonical_labels(&m))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;

    // Rank-2 operands. The VM multiplies at roughly 50 ns per
    // multiply-add, so the operands stay small enough for one product
    // to take tens of milliseconds.
    let n = MATMUL_N;
    let mut rng = Rng::new(seed ^ crate::fnv("matmul"));
    let mut operand = || Matrix::from_fn([n, n], |_| rng.range(-64, 65) as f32 / 64.0);
    let (a, b) = (operand(), operand());
    write_matrix(path("a.cmmx"), &a).map_err(io)?;
    write_matrix(path("b.cmmx"), &b).map_err(io)?;
    let product = a.matmul(&b).map_err(io)?;
    let matmul = format!(
        "int main() {{\n    Matrix float <2> a = readMatrix(\"{}\");\n    Matrix float <2> b = readMatrix(\"{}\");\n    Matrix float <2> c = a * b;\n    writeMatrix(\"{}\", c);\n    return 0;\n}}\n",
        path("a.cmmx"),
        path("b.cmmx"),
        path("c.cmmx")
    );

    // imbalanced.xc: grid[i, j] = (i + j) / 4; row i folds grid[i, c] / 2
    // over 160 copies of each column c <= i; the program prints the row
    // mean. Every term is a multiple of 1/8 and the total stays below
    // 2^21, so the f32 fold is exact in any order.
    let (m, per) = (48i64, 160i64);
    let total: f64 = (0..m)
        .map(|i| {
            (0..=i)
                .map(|c| per as f64 * (i + c) as f64 * 0.125)
                .sum::<f64>()
        })
        .sum();
    let imbalanced_mean = (total as f32 / m as f32) as f64;

    Ok(vec![
        Program {
            name: "fig1",
            src: temporal_mean_program(&path("ssh.cmmx"), &path("fig1.cmmx"), ""),
            output: path("fig1.cmmx"),
            reference: Reference::Mean(mean.clone()),
        },
        Program {
            name: "fig1_fig9",
            src: temporal_mean_program(&path("ssh.cmmx"), &path("fig9.cmmx"), FIG9),
            output: path("fig9.cmmx"),
            reference: Reference::Mean(mean),
        },
        Program {
            name: "fig4",
            src: connected_components_program(
                &path("frames.cmmx"),
                &path("fig4.cmmx"),
                FIG4_THRESHOLD,
            ),
            output: path("fig4.cmmx"),
            reference: Reference::Labels(labels),
        },
        Program {
            name: "fig8",
            src: eddy_scoring_program(&path("ssh.cmmx"), &path("fig8.cmmx")),
            output: path("fig8.cmmx"),
            reference: Reference::Scores(scores),
        },
        Program {
            name: "matmul",
            src: matmul,
            output: path("c.cmmx"),
            reference: Reference::Product(product),
        },
        Program {
            name: "imbalanced",
            src: IMBALANCED.to_string(),
            output: String::new(),
            reference: Reference::Printed(imbalanced_mean),
        },
    ])
}

/// Check one execution's output against the program's reference.
fn check(p: &Program, printed: &str) -> Result<(), String> {
    let read_f32 = || read_matrix::<f32>(&p.output).map_err(|e| e.to_string());
    match &p.reference {
        Reference::Mean(want) => {
            let got = read_f32()?;
            let worst = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            if got.shape() != want.shape() || worst >= 1e-4 {
                return Err(format!("temporal mean off by {worst:e}"));
            }
        }
        Reference::Scores(want) | Reference::Product(want) => {
            let got = read_f32()?;
            let same = got.shape() == want.shape()
                && got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err("output differs bitwise from the reference".to_string());
            }
        }
        Reference::Labels(want) => {
            let got = read_matrix::<i32>(&p.output).map_err(|e| e.to_string())?;
            for (t, w) in want.iter().enumerate() {
                let frame = got
                    .index_get(&[Ix::All, Ix::All, Ix::At(t as i64)])
                    .map_err(|e| e.to_string())?;
                if &canonical_labels(&frame) != w {
                    return Err(format!("frame {t} labels differ structurally"));
                }
            }
        }
        Reference::Printed(want) => {
            let got: f64 = printed
                .trim()
                .parse()
                .map_err(|_| format!("printed {printed:?}"))?;
            if (got - want).abs() > want.abs() * 1e-6 {
                return Err(format!("printed {got}, closed form {want}"));
            }
        }
    }
    Ok(())
}

/// `Compiler::compile_to_c` timing of the suite. Host speed drifts on a
/// scale of seconds, so compilation is timed in short slices spread over
/// the tune phase and the end of the run rather than in one block.
/// Slices run only while no fork-join pool is alive: idle pool workers
/// spin, and on a host with few cores they would take the compiling
/// thread's core.
///
/// A program's time is the first percentile of its samples, not the
/// median: on a shared host the samples split into a fast and a slow
/// mode, each lasting from a fraction of a second to seconds, and the
/// share of each changes from run to run. The median jumps between the
/// modes; the low tail stays with the fast one whenever the run saw it.
pub struct CompileTimer<'a> {
    compiler: &'a Compiler,
    programs: &'a [Program],
    times: Vec<Vec<f64>>,
    c: Vec<String>,
}

impl<'a> CompileTimer<'a> {
    pub fn new(compiler: &'a Compiler, programs: &'a [Program]) -> CompileTimer<'a> {
        let n = programs.len();
        CompileTimer {
            compiler,
            programs,
            times: vec![Vec::new(); n],
            c: vec![String::new(); n],
        }
    }

    /// One slice of program `k`: at least three compilations and about
    /// 50 ms. Keeps the last emitted C.
    fn slice(&mut self, k: usize) -> Result<(), String> {
        let p = &self.programs[k];
        let t_slice = Instant::now();
        let mut reps = 0;
        while reps < 3 || t_slice.elapsed().as_secs_f64() < 0.05 {
            let t = Instant::now();
            self.c[k] = std::hint::black_box(self.compiler.compile_to_c(&p.src))
                .map_err(|e| format!("{}: {e}", p.name))?;
            self.times[k].push(t.elapsed().as_secs_f64() * 1e3);
            reps += 1;
        }
        Ok(())
    }

    /// One slice of every program.
    pub fn slice_all(&mut self) -> Result<(), String> {
        (0..self.programs.len()).try_for_each(|k| self.slice(k))
    }

    /// Report `compile_ms` and `c_kib`, check the emitted C, and in the
    /// traced run attribute each program's compile and measure the
    /// suite's front-end costs.
    pub fn finish(self, tracer: &mut Tracer, rep: &mut Report) -> Result<FrontCosts, String> {
        let mut front = FrontCosts::default();
        let mut compile_ms = Vec::new();
        for (k, p) in self.programs.iter().enumerate() {
            rep.check(
                &format!("batch.compile {}", p.name),
                self.c[k].contains("main("),
                || "emitted C has no main".into(),
            );
            compile_ms.push(quantile(&self.times[k], COMPILE_QUANTILE));
            if tracer.enabled() {
                let mut roots = Vec::new();
                let mut sub = Vec::new();
                for _ in 0..20 {
                    let op = tracer.op();
                    let root =
                        tracer.begin("bench", &format!("batch.compile {}", p.name), op, None);
                    compile_traced(self.compiler, &p.src, tracer, op, root, false)?;
                    tracer.end(root);
                    roots.push(tracer.duration_ns(root) as f64);
                    sub.push(tracer.self_times(root));
                }
                front.add(self.compiler, &p.src)?;
                let count = self.times[k].len();
                let mut b =
                    Budget::new(&format!("batch.compile {}", p.name), count, median(&roots));
                for layer in crate::trace::LAYERS {
                    let v: Vec<f64> = sub
                        .iter()
                        .map(|m| m.get(layer).copied().unwrap_or(0.0))
                        .collect();
                    b.add(layer, median(&v));
                }
                rep.budgets.push(b);
            }
        }
        rep.e2e("compile_ms", geomean(&compile_ms), "ms");
        let c_bytes: usize = self.c.iter().map(String::len).sum();
        rep.e2e("c_kib", c_bytes as f64 / 1024.0, "KiB");
        let rows: Vec<String> = self
            .programs
            .iter()
            .zip(&compile_ms)
            .zip(&self.times)
            .map(|((p, c), t)| {
                format!(
                    "{{\"program\": \"{}\", \"compile_ms\": {c:.4}, \"median_ms\": {:.4}, \"samples\": {}}}",
                    p.name,
                    median(t),
                    t.len()
                )
            })
            .collect();
        rep.detail("compile_programs", format!("[{}]", rows.join(", ")));
        Ok(front)
    }
}

/// One untraced execution: `Interp::with_pool(..).with_tier(Tier::Vm)`
/// plus `run_main`, exactly the timed operation. Returns nanoseconds,
/// printed output, steps, allocations and live buffers; fails if the VM
/// did not run.
fn exec(ir: &IrProgram, pool: &Arc<ForkJoinPool>) -> Result<(u64, String, u64, u32, u32), String> {
    let t = Instant::now();
    let interp = Interp::with_pool(ir, Arc::clone(pool)).with_tier(Tier::Vm);
    if interp.effective_tier() != Tier::Vm {
        return Err("VM lowering fell back to the tree tier".to_string());
    }
    interp.run_main().map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as u64;
    Ok((
        ns,
        interp.output(),
        interp.steps_used(),
        interp.alloc_count(),
        interp.live_buffers(),
    ))
}

/// Run the batch phase for about `budget_s` seconds on `pool` (built
/// during setup), which is dropped at the end: its idle workers spin.
pub fn phase(
    programs: &[Program],
    compiler: &Compiler,
    pool: Arc<ForkJoinPool>,
    budget_s: f64,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let traced = tracer.enabled();
    let t_phase = Instant::now();
    let irs = programs
        .iter()
        .map(|p| {
            compiler
                .compile(&p.src)
                .map_err(|e| format!("{}: {e}", p.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Execute round-robin until the budget is spent, at least five
    // rounds. The traced run alternates traced and untraced executions
    // so their difference is the tracing overhead.
    let n = programs.len();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut with_spans: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut sub: Vec<Vec<std::collections::BTreeMap<&'static str, f64>>> = vec![Vec::new(); n];
    let mut resolve_ns: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut vm_lower_ns: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut steps = vec![0u64; n];
    let mut allocs = vec![0u32; n];
    let mut leaked = 0u64;
    let rc0 = cmm_rc::pool_stats();
    if traced {
        pool.reset_metrics();
        pool.set_metrics_enabled(true);
    }
    let mut round = 0usize;
    let mut last_round = 0.0;
    // Stop before a round that would overrun the budget.
    while round < 5 || t_phase.elapsed().as_secs_f64() + last_round <= budget_s {
        let t_round = Instant::now();
        for (k, p) in programs.iter().enumerate() {
            let op_name = format!("batch.exec {}", p.name);
            if traced && round % 2 == 1 {
                let op = tracer.op();
                let root = tracer.begin("bench", &op_name, op, None);
                let before = pool.metrics().barrier_wait_nanos;
                let (printed, [resolve, lower], run) = exec_traced(
                    &irs[k],
                    Arc::clone(&pool),
                    Limits::default(),
                    tracer,
                    op,
                    root,
                )?;
                let wait = pool.metrics().barrier_wait_nanos - before;
                tracer.end(root);
                // The pool reports one barrier-wait total over the run's
                // regions; it is laid at the end of the run as one span.
                tracer.record_tail(run, "forkjoin", "barrier wait (total)", op, wait);
                with_spans[k].push(tracer.duration_ns(root) as f64);
                resolve_ns[k].push(resolve as f64);
                vm_lower_ns[k].push(lower as f64);
                sub[k].push(tracer.self_times(root));
                rep.check(&op_name, check(p, &printed).is_ok(), || {
                    check(p, &printed).unwrap_err()
                });
                continue;
            }
            let (ns, printed, s, a, live) = match exec(&irs[k], &pool) {
                Ok(r) => r,
                Err(e) => {
                    rep.check(&op_name, false, || e.clone());
                    continue;
                }
            };
            plain[k].push(ns as f64);
            steps[k] = s;
            allocs[k] = a;
            leaked += live as u64;
            let verdict = check(p, &printed).and_then(|()| {
                if live == 0 {
                    Ok(())
                } else {
                    Err(format!("{live} buffers leaked"))
                }
            });
            rep.check(&op_name, verdict.is_ok(), || verdict.clone().unwrap_err());
        }
        round += 1;
        last_round = t_round.elapsed().as_secs_f64();
    }
    let rc1 = cmm_rc::pool_stats();
    let exec_ms: Vec<f64> = plain.iter().map(|v| median(v) / 1e6).collect();
    rep.e2e("exec_ms", geomean(&exec_ms), "ms");
    rep.detail("batch_rounds", round.to_string());

    if traced {
        let metrics = pool.metrics();
        pool.set_metrics_enabled(false);
        let passes = round as f64;
        for (k, p) in programs.iter().enumerate() {
            rep.layer(&format!("loopir.vm_exec_ms.{}", p.name), exec_ms[k], "ms");
            let mut b = Budget::new(
                &format!("batch.exec {}", p.name),
                plain[k].len(),
                median(&with_spans[k]),
            );
            for layer in crate::trace::LAYERS {
                b.add(
                    layer,
                    median(
                        &sub[k]
                            .iter()
                            .map(|m| m.get(layer).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                );
            }
            rep.budgets.push(b);
        }
        let total_steps: u64 = steps.iter().sum();
        let total_exec_s: f64 = exec_ms.iter().sum::<f64>() / 1e3;
        let per_program =
            |v: &[Vec<f64>]| geomean(&v.iter().map(|x| median(x)).collect::<Vec<_>>());
        rep.layer("loopir.resolve_us", per_program(&resolve_ns) / 1e3, "us");
        rep.layer("loopir.vm_lower_us", per_program(&vm_lower_ns) / 1e3, "us");
        rep.layer("loopir.vm_exec_ms", geomean(&exec_ms), "ms");
        rep.layer("loopir.vm_steps", total_steps as f64, "count");
        rep.layer(
            "loopir.vm_msteps_s",
            total_steps as f64 / total_exec_s / 1e6,
            "Msteps/s",
        );
        rep.layer(
            "forkjoin.region_ms",
            metrics.region_nanos as f64 / passes / 1e6,
            "ms",
        );
        rep.layer(
            "forkjoin.barrier_wait_ms",
            metrics.barrier_wait_nanos as f64 / passes / 1e6,
            "ms",
        );
        rep.layer(
            "forkjoin.imbalance_ratio",
            metrics.imbalance_ratio(),
            "ratio",
        );
        let steals: u64 = metrics.steals.iter().sum();
        let failures: u64 = metrics.steal_failures.iter().sum();
        rep.layer("forkjoin.steals", steals as f64 / passes, "count");
        rep.layer(
            "forkjoin.steal_success_ratio",
            ratio(steals as f64, (steals + failures) as f64),
            "ratio",
        );
        rep.layer(
            "forkjoin.chunks_issued",
            metrics.chunks_issued as f64 / passes,
            "count",
        );
        let overhead: Vec<f64> = (0..n)
            .map(|k| median(&with_spans[k]) / median(&plain[k]))
            .collect();
        rep.layer("trace_overhead_share", geomean(&overhead) - 1.0, "ratio");

        // 1 participant against nproc on the two programs with parallel
        // regions that matter most.
        let one = Arc::new(ForkJoinPool::new(1));
        let mut t1 = Vec::new();
        let mut tn = Vec::new();
        for (k, p) in programs.iter().enumerate() {
            if p.name == "imbalanced" || p.name == "fig8" {
                let times: Vec<f64> = (0..3)
                    .map(|_| exec(&irs[k], &one).map(|r| r.0 as f64))
                    .collect::<Result<_, _>>()?;
                t1.push(median(&times));
                tn.push(median(&plain[k]));
            }
        }
        rep.layer("forkjoin.speedup", geomean(&t1) / geomean(&tn), "ratio");
    }
    drop(pool);
    let rows: Vec<String> = programs
        .iter()
        .zip(&exec_ms)
        .map(|(p, e)| format!("{{\"program\": \"{}\", \"exec_ms\": {e:.4}}}", p.name))
        .collect();
    rep.detail("batch_programs", format!("[{}]", rows.join(", ")));
    let (hits, misses) = (rc1.hits - rc0.hits, rc1.misses - rc0.misses);
    rep.layer(
        "rc.allocations",
        allocs.iter().map(|&a| a as f64).sum(),
        "count",
    );
    rep.layer(
        "rc.pool_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    rep.layer("rc.leaked", leaked as f64, "count");
    Ok(())
}
