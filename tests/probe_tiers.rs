//! Cross-tier parity of the loop-cost probe (`Interp::with_cost_probe`),
//! the measurement the autotuner scores every candidate with. The probe
//! runs on the bytecode VM; the tree-walker is its reference. On every
//! program both tiers must record the same per-iteration fuel, consume
//! the same total fuel, print the same output, and fail with the same
//! typed error.

use cmm::core::Registry;
use cmm::loopir::{
    CType, Elem, ForLoop, Interp, InterpError, IrExpr, IrFunction, IrProgram, IrStmt, Limits,
    LoopCost, Tier,
};

fn v(n: &str) -> IrExpr {
    IrExpr::var(n)
}

fn int(x: i64) -> IrExpr {
    IrExpr::Int(x)
}

fn call(f: &str, args: Vec<IrExpr>) -> IrExpr {
    IrExpr::Call(f.into(), args)
}

fn decl_int(name: &str, init: IrExpr) -> IrStmt {
    IrStmt::Decl { ty: CType::Int, name: name.into(), init: Some(init) }
}

fn assign(name: &str, value: IrExpr) -> IrStmt {
    IrStmt::Assign { name: name.into(), value }
}

fn store(buf: &str, idx: IrExpr, value: IrExpr) -> IrStmt {
    IrStmt::Store { elem: Elem::I32, buf: v(buf), idx, value }
}

fn load(buf: &str, idx: IrExpr) -> IrExpr {
    IrExpr::Load { elem: Elem::I32, buf: Box::new(v(buf)), idx: Box::new(idx) }
}

fn for_loop(var: &str, lo: IrExpr, hi: IrExpr, parallel: bool, body: Vec<IrStmt>) -> IrStmt {
    IrStmt::For(ForLoop { var: var.into(), lo, hi, body, parallel, vector: false, schedule: None })
}

fn function(name: &str, params: &[(&str, CType)], ret: CType, body: Vec<IrStmt>) -> IrFunction {
    IrFunction {
        name: name.into(),
        params: params.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        ret,
        ret_tuple: None,
        body,
    }
}

/// `main` allocating an `n`-cell int buffer `buf`, running `body`,
/// printing every cell and releasing the buffer.
fn with_buffer(n: i64, body: Vec<IrStmt>, helpers: Vec<IrFunction>) -> IrProgram {
    let mut stmts = vec![IrStmt::Decl {
        ty: CType::Buf(Elem::I32),
        name: "buf".into(),
        init: Some(call("alloc_mat_i32", vec![int(n)])),
    }];
    stmts.extend(body);
    stmts.push(for_loop(
        "k",
        int(0),
        int(n),
        false,
        vec![IrStmt::Expr(call("print_i32", vec![load("buf", v("k"))]))],
    ));
    stmts.push(IrStmt::Expr(call("rc_decr", vec![v("buf")])));
    let mut functions = helpers;
    functions.push(function("main", &[], CType::Void, stmts));
    IrProgram { functions }
}

/// Everything a probe run yields.
#[derive(Debug, PartialEq)]
struct ProbeRun {
    result: Result<(), InterpError>,
    costs: Vec<LoopCost>,
    steps: u64,
    output: String,
}

fn probe(program: &IrProgram, tier: Tier, limits: Limits) -> ProbeRun {
    let interp = Interp::new(program, 1).with_limits(limits).with_tier(tier).with_cost_probe(true);
    assert_eq!(interp.effective_tier(), tier, "probe fell back from {tier}");
    let result = interp.run_main().map(|_| ());
    ProbeRun {
        result,
        costs: interp.loop_costs(),
        steps: interp.steps_used(),
        output: interp.output(),
    }
}

/// Probe on both tiers, require identical records, fuel and output, and
/// return the (successful) VM run.
fn assert_probe_parity(name: &str, program: &IrProgram) -> ProbeRun {
    let tree = probe(program, Tier::Tree, Limits::default());
    let vm = probe(program, Tier::Vm, Limits::default());
    assert_eq!(vm, tree, "{name}: cost probe differs between tiers");
    if let Err(e) = &vm.result {
        panic!("{name}: probe failed: {e}");
    }
    vm
}

/// The output of an ordinary (non-probe) parallel run on the VM.
fn parallel_output(program: &IrProgram) -> String {
    let interp = Interp::new(program, 2).with_tier(Tier::Vm);
    interp.run_main().expect("parallel run succeeds");
    interp.output()
}

/// `buf[i] = 0 + 1 + .. + i` over a parallel `i`: iteration `i` runs an
/// inner sequential loop of `i + 1` steps.
fn triangular(n: i64) -> IrProgram {
    with_buffer(
        n,
        vec![for_loop(
            "i",
            int(0),
            int(n),
            true,
            vec![
                decl_int("acc", int(0)),
                for_loop(
                    "j",
                    int(0),
                    IrExpr::add(v("i"), int(1)),
                    false,
                    vec![assign("acc", IrExpr::add(v("acc"), v("j")))],
                ),
                store("buf", v("i"), v("acc")),
            ],
        )],
        vec![],
    )
}

#[test]
fn triangular_loop_records_growing_iterations_on_both_tiers() {
    let program = triangular(10);
    let run = assert_probe_parity("triangular", &program);
    assert_eq!(run.costs.len(), 1);
    let record = &run.costs[0];
    assert_eq!(record.name, "i");
    assert_eq!(record.iters.len(), 10);
    assert!(
        record.iters.windows(2).all(|w| w[1] > w[0]),
        "triangular iterations must grow: {:?}",
        record.iters
    );
    assert_eq!(run.output, parallel_output(&program));
}

#[test]
fn nested_parallel_loops_record_only_the_outer_loop() {
    // for i in 0..4 (parallel): for j in 0..i+1 (parallel): buf[4i+j] = i+j
    let program = with_buffer(
        16,
        vec![for_loop(
            "i",
            int(0),
            int(4),
            true,
            vec![for_loop(
                "j",
                int(0),
                IrExpr::add(v("i"), int(1)),
                true,
                vec![store(
                    "buf",
                    IrExpr::add(IrExpr::mul(v("i"), int(4)), v("j")),
                    IrExpr::add(v("i"), v("j")),
                )],
            )],
        )],
        vec![],
    );
    let run = assert_probe_parity("nested", &program);
    assert_eq!(run.costs.len(), 1, "inner loops must fold into the outer record");
    assert_eq!(run.costs[0].name, "i");
    assert_eq!(run.costs[0].iters.len(), 4);
    assert!(run.costs[0].iters.windows(2).all(|w| w[1] > w[0]));
    assert_eq!(run.output, parallel_output(&program));
}

#[test]
fn parallel_loop_run_twice_gives_two_records() {
    // fill(buf, n, k): for i in 0..n (parallel): buf[i] = buf[i] + k
    let fill = function(
        "fill",
        &[("b", CType::Buf(Elem::I32)), ("n", CType::Int), ("k", CType::Int)],
        CType::Void,
        vec![for_loop(
            "i",
            int(0),
            v("n"),
            true,
            vec![store("b", v("i"), IrExpr::add(load("b", v("i")), v("k")))],
        )],
    );
    let program = with_buffer(
        5,
        vec![
            IrStmt::Expr(call("fill", vec![v("buf"), int(5), int(1)])),
            IrStmt::Expr(call("fill", vec![v("buf"), int(5), int(10)])),
        ],
        vec![fill],
    );
    let run = assert_probe_parity("twice", &program);
    assert_eq!(run.costs.len(), 2);
    assert_eq!(run.costs[0], run.costs[1]);
    assert_eq!(run.output, "11\n11\n11\n11\n11\n");
}

#[test]
fn spawned_work_is_charged_to_its_iteration() {
    // work(k): s = 0; for j in 0..3k: s = s + j; return s
    let work = function(
        "work",
        &[("k", CType::Int)],
        CType::Int,
        vec![
            decl_int("s", int(0)),
            for_loop(
                "j",
                int(0),
                IrExpr::mul(v("k"), int(3)),
                false,
                vec![assign("s", IrExpr::add(v("s"), v("j")))],
            ),
            IrStmt::Return(Some(v("s"))),
        ],
    );
    // touch(b, i): b[i] = work(i)
    let touch = function(
        "touch",
        &[("b", CType::Buf(Elem::I32)), ("i", CType::Int)],
        CType::Void,
        vec![store("b", v("i"), call("work", vec![v("i")]))],
    );
    let spawn = |target: Option<&str>, func: &str, args: Vec<IrExpr>| IrStmt::Spawn {
        target: target.map(String::from),
        target_is_buf: false,
        func: func.into(),
        args,
    };
    // Synced spawns, then one left pending for the iteration's own
    // drain: both must land in the iteration's fuel window.
    let synced = with_buffer(
        6,
        vec![for_loop(
            "i",
            int(0),
            int(6),
            true,
            vec![
                decl_int("a", int(0)),
                decl_int("b", int(0)),
                spawn(Some("a"), "work", vec![v("i")]),
                spawn(Some("b"), "work", vec![IrExpr::add(v("i"), int(1))]),
                IrStmt::Sync,
                store("buf", v("i"), IrExpr::add(v("a"), v("b"))),
            ],
        )],
        vec![work.clone()],
    );
    let unsynced = with_buffer(
        6,
        vec![for_loop(
            "i",
            int(0),
            int(6),
            true,
            vec![spawn(None, "touch", vec![v("buf"), v("i")])],
        )],
        vec![work, touch],
    );
    for (name, program) in [("synced", &synced), ("unsynced", &unsynced)] {
        let run = assert_probe_parity(name, program);
        assert_eq!(run.costs.len(), 1, "{name}");
        let iters = &run.costs[0].iters;
        assert!(
            iters.windows(2).all(|w| w[1] > w[0]),
            "{name}: spawned work must be charged to its iteration: {iters:?}"
        );
        // Nothing is left over for after the loop: the iterations hold
        // every step but main's own statements and the print loop.
        let in_loop: u64 = iters.iter().sum();
        assert!(in_loop * 2 > run.steps, "{name}: {in_loop} of {} steps", run.steps);
        assert_eq!(run.output, parallel_output(program), "{name}");
    }
}

#[test]
fn return_inside_a_parallel_loop_is_the_same_error_on_both_tiers() {
    let program = IrProgram {
        functions: vec![function(
            "main",
            &[],
            CType::Int,
            vec![
                for_loop("i", int(0), int(3), true, vec![IrStmt::Return(Some(v("i")))]),
                IrStmt::Return(Some(int(0))),
            ],
        )],
    };
    let tree = probe(&program, Tier::Tree, Limits::default());
    let vm = probe(&program, Tier::Vm, Limits::default());
    assert_eq!(vm, tree);
    let err = vm.result.expect_err("return inside a parallel loop must fail");
    assert_eq!(err.to_string(), "runtime error: return inside a parallel loop is not supported");
    assert!(vm.costs.is_empty(), "a failed loop records nothing");
}

#[test]
fn fuel_exhaustion_mid_probe_stops_at_the_same_boundary() {
    let program = triangular(6);
    let total = assert_probe_parity("triangular", &program).steps;
    for fuel in 1..=total {
        let limits = Limits { fuel: Some(fuel), ..Limits::default() };
        let tree = probe(&program, Tier::Tree, limits.clone());
        let vm = probe(&program, Tier::Vm, limits);
        assert_eq!(vm.result, tree.result, "fuel {fuel}/{total}");
        assert_eq!(vm.costs, tree.costs, "fuel {fuel}/{total}");
        assert_eq!(vm.output, tree.output, "fuel {fuel}/{total}");
        assert_eq!(vm.result.is_ok(), fuel == total, "fuel {fuel}/{total}");
    }
}

#[test]
fn examples_probe_on_the_vm_without_fallback() {
    let compiler = Registry::standard().compiler(cmm::tune::EXTENSIONS).expect("compose");
    for name in ["imbalanced.xc", "pipeline_profile.xc"] {
        let src = std::fs::read_to_string(format!("examples/{name}")).expect("example exists");
        let ir = compiler.compile(&src).expect("example compiles");
        let run = assert_probe_parity(name, &ir);
        assert!(!run.costs.is_empty(), "{name}: no parallel loop recorded");
        let (result, costs, steps) =
            compiler.run_cost_probe(&src, Limits::default()).expect("probe runs");
        assert_eq!((result.output, costs, steps), (run.output, run.costs, run.steps), "{name}");
    }
}
