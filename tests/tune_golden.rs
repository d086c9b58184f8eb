//! Golden-report determinism for `cmm::tune` on the checked-in example
//! programs: the `cmm-tune-report-v1` document must be a byte-for-byte
//! pure function of `(source, TuneConfig)`, the winning directive sets
//! must be stable, the modeled costs and per-site counts must equal the
//! values checked in to `BENCH_tune.json`, and on the deliberately
//! imbalanced example the winner must model at least as well as the
//! hand-written `schedule i dynamic, 4` it was written to showcase.

use cmm::tune::{tune, CandidateStatus, TuneConfig, EXTENSIONS, REPORT_SCHEMA};

fn cfg_for(program: &str, seed: u64) -> TuneConfig {
    TuneConfig { seed, program: program.into(), ..TuneConfig::default() }
}

fn tune_example(name: &str, seed: u64) -> (String, cmm::tune::TuneOutcome) {
    let src = std::fs::read_to_string(format!("examples/{name}")).expect("example exists");
    let out = tune(&src, &cfg_for(name, seed)).expect("tune succeeds");
    (src, out)
}

/// Two independent runs over the same input and config must agree on
/// every byte of the report and on the tuned source.
fn assert_deterministic(name: &str) {
    let (_, a) = tune_example(name, 42);
    let (_, b) = tune_example(name, 42);
    assert_eq!(a.report, b.report, "{name}: report not byte-identical");
    assert_eq!(a.tuned_source, b.tuned_source, "{name}: tuned source drifted");
    let winners_a: Vec<String> = a
        .sites
        .iter()
        .map(|s| s.candidates[s.winner].rendered.clone())
        .collect();
    let winners_b: Vec<String> = b
        .sites
        .iter()
        .map(|s| s.candidates[s.winner].rendered.clone())
        .collect();
    assert_eq!(winners_a, winners_b, "{name}: winning directive sets drifted");
    assert!(a.report.contains(REPORT_SCHEMA));
    assert!(a.verified, "{name}: joint tuned result must verify");
}

#[test]
fn imbalanced_report_is_deterministic() {
    assert_deterministic("imbalanced.xc");
}

#[test]
fn pipeline_profile_report_is_deterministic() {
    assert_deterministic("pipeline_profile.xc");
}

/// One site's expected outcome: target, winning directives, candidates
/// evaluated, candidates scored (baseline included).
type SitePin = (&'static str, &'static str, usize, usize);

/// The seed-42 numbers `BENCH_tune.json` records. A drift that moves
/// every cost alike passes the determinism checks above; it fails here.
#[test]
fn tuner_numbers_match_the_checked_in_artifact() {
    let pins: [(&str, u64, u64, [SitePin; 2]); 2] = [
        (
            "imbalanced.xc",
            246686,
            147355,
            [("grid", "", 16, 16), ("work", "schedule i guided", 13, 13)],
        ),
        ("pipeline_profile.xc", 4190, 4190, [("grid", "", 16, 16), ("scores", "", 13, 13)]),
    ];
    for (name, baseline, tuned, sites) in pins {
        let (_, out) = tune_example(name, 42);
        assert_eq!((out.baseline_cost, out.tuned_cost), (baseline, tuned), "{name}");
        let got: Vec<(String, String, usize, usize)> = out
            .sites
            .iter()
            .map(|s| {
                let scored = s
                    .candidates
                    .iter()
                    .filter(|c| matches!(c.status, CandidateStatus::Scored { .. }))
                    .count();
                (
                    s.site.target.clone(),
                    s.candidates[s.winner].rendered.clone(),
                    s.candidates.len(),
                    scored,
                )
            })
            .collect();
        let want: Vec<(String, String, usize, usize)> =
            sites.iter().map(|&(t, w, c, k)| (t.to_string(), w.to_string(), c, k)).collect();
        assert_eq!(got, want, "{name}: per-site outcome drifted");
        assert!(out.verified, "{name}: joint tuned result must verify");
    }
}

/// The triangular workload's tuned winner must model at least as well
/// as the hand-written `schedule i dynamic, 4` the example was built
/// to showcase — the whole point of the tuner is matching that expert
/// choice automatically.
#[test]
fn imbalanced_winner_models_at_least_as_well_as_dynamic4() {
    let (_, out) = tune_example("imbalanced.xc", 42);
    let work = out
        .sites
        .iter()
        .find(|s| s.site.target == "work")
        .expect("imbalanced work site discovered");
    let winner = &work.candidates[work.winner];
    let dyn4 = work
        .candidates
        .iter()
        .find(|c| c.rendered == "schedule i dynamic, 4")
        .expect("dynamic,4 candidate evaluated");
    let (
        CandidateStatus::Scored { modeled_cost: w, .. },
        CandidateStatus::Scored { modeled_cost: d, .. },
    ) = (&winner.status, &dyn4.status)
    else {
        panic!("winner and dynamic,4 must both score");
    };
    assert!(
        w <= d,
        "winner `{}` modeled {w}, worse than hand-written dynamic,4 at {d}",
        winner.rendered
    );
    assert!(out.changed, "imbalanced must improve on the untuned baseline");
}

/// Applying the winners preserves semantics end-to-end on both
/// examples: same printed output as the untuned program, nothing
/// leaked, across 1 and 4 pool threads.
#[test]
fn tuned_examples_reproduce_untuned_output() {
    let registry = cmm::core::Registry::standard();
    let compiler = registry.compiler(EXTENSIONS).expect("compose");
    for name in ["imbalanced.xc", "pipeline_profile.xc"] {
        let (src, out) = tune_example(name, 42);
        for threads in [1usize, 4] {
            let base = compiler.run(&src, threads).expect("untuned runs");
            let tuned = compiler.run(&out.tuned_source, threads).expect("tuned runs");
            assert_eq!(base.output, tuned.output, "{name} diverged at {threads} threads");
            assert_eq!(tuned.leaked, 0, "{name} leaked at {threads} threads");
        }
    }
}
