//! Regenerates every figure and experiment of the paper and prints a
//! paper-vs-measured report.  See EXPERIMENTS.md for the recorded results.
//!
//! ```text
//! cargo run --release -p pathinv-cli --bin experiments            # everything
//! cargo run --release -p pathinv-cli --bin experiments -- f1 t5   # a subset
//! ```

use pathinv_bench::{
    forward_with_cex, initcheck_with_cex, partition_with_ge_cex, partition_with_lt_cex,
};
use pathinv_core::{path_program, PathInvariantRefiner, Verdict, Verifier};
use pathinv_invgen::PathInvariantGenerator;
use pathinv_ir::{corpus, parse_program, Path, Program};
use std::process::ExitCode;
use std::time::Instant;

const EXPERIMENTS: [(&str, fn()); 7] = [
    ("f1", experiment_f1),
    ("f2", experiment_f2),
    ("f3", experiment_f3),
    ("f4", experiment_f4),
    ("t5", experiment_t5),
    ("d6", experiment_d6),
    ("s1", experiment_s1),
];

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    // Reject unknown ids and flags loudly instead of silently running nothing.
    if let Some(bad) =
        ids.iter().find(|a| *a != "all" && !EXPERIMENTS.iter().any(|(id, _)| id == a))
    {
        eprintln!("error: unknown experiment `{bad}` (expected f1 f2 f3 f4 t5 d6 s1 or all)");
        return ExitCode::from(2);
    }
    let want = |id: &str| ids.is_empty() || ids.iter().any(|a| a == id || a == "all");
    println!("Path Invariants (PLDI 2007) — experiment reproduction harness\n");
    for (id, run) in EXPERIMENTS {
        if want(id) {
            run();
        }
    }
    ExitCode::SUCCESS
}

fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("[{id}] {title}");
    println!("================================================================");
}

/// Figure 1: FORWARD — divergence of finite-path refinement vs. convergence
/// of path-invariant refinement.
fn experiment_f1() {
    banner("F1", "Figure 1 — FORWARD: loop unrolling vs. path invariants");
    let (program, cex) = forward_with_cex();
    println!("counterexample of Figure 1(b):\n{}", cex.render(&program));
    let pp = path_program(&program, &cex).expect("path program construction");
    println!(
        "path program of Figure 1(c): {} locations, {} transitions, hatted block at position {}",
        pp.program.num_locs(),
        pp.program.transitions().len(),
        pp.hatted_blocks[0].0
    );
    run_both_verifiers("FORWARD", &program, 4);
    println!();
}

/// Figure 2: INITCHECK — universally quantified path invariants.
fn experiment_f2() {
    banner("F2", "Figure 2 — INITCHECK: universally quantified invariants");
    let (program, cex) = initcheck_with_cex();
    let pp = path_program(&program, &cex).expect("path program construction");
    println!(
        "path program of Figure 2(c): {} locations, {} transitions, {} hatted blocks",
        pp.program.num_locs(),
        pp.program.transitions().len(),
        pp.hatted_blocks.len()
    );
    let start = Instant::now();
    match PathInvariantGenerator::new().generate(&pp.program) {
        Ok(generated) => {
            println!("quantified path invariants (synthesised in {:?}):", start.elapsed());
            for (loc, inv) in &generated.cutpoint_invariants {
                println!("  {}: {}", pp.program.loc_label(*loc), inv);
            }
            println!("paper (§5): forall k: 0 <= k <= n-1 -> a[k] = 0  and  forall k: i <= k <= n-1 -> a[k] = 0");
        }
        Err(e) => println!("synthesis failed: {e}"),
    }
    run_both_verifiers("INITCHECK", &program, 3);
    println!();
}

/// Figure 3: PARTITION — lazy disjunctive reasoning, one conjunct per
/// counterexample.
fn experiment_f3() {
    banner("F3", "Figure 3 — PARTITION: one quantified conjunct per counterexample");
    for (label, (program, cex), paper) in [
        ("then-branch", partition_with_ge_cex(), "forall k: 0 <= k < gelen -> ge[k] >= 0"),
        ("else-branch", partition_with_lt_cex(), "forall k: 0 <= k < ltlen -> lt[k] < 0"),
    ] {
        let pp = path_program(&program, &cex).expect("path program construction");
        let start = Instant::now();
        match PathInvariantGenerator::new().generate(&pp.program) {
            Ok(generated) => {
                println!("{label} path program ({:?}):", start.elapsed());
                for (loc, inv) in &generated.cutpoint_invariants {
                    println!("  {}: {}", pp.program.loc_label(*loc), inv);
                }
                println!("  paper (Eq. 1/2): {paper}");
            }
            Err(e) => println!("{label}: synthesis failed: {e}"),
        }
    }
    println!();
}

/// Figure 4 / §3 worked example: the path-program transition set.
fn experiment_f4() {
    banner("F4", "Figure 4 — path-program construction for the §3 worked example");
    let program = corpus::figure4_program();
    let path = Path::new(&program, corpus::figure4_path(&program)).expect("figure-4 path");
    let pp = path_program(&program, &path).expect("path program construction");
    println!("{}", pp.program);
    println!(
        "paper: 17 transitions including two identity (skip) transitions per hatted block;\n\
         here:  {} transitions (the hatted copies of the two exit locations are collapsed,\n\
         as drawn in Figures 1(c) and 2(c)), hatted blocks at positions {:?}",
        pp.program.transitions().len(),
        pp.hatted_blocks.iter().map(|(i, _)| *i).collect::<Vec<_>>()
    );
    println!();
}

/// §5 measurements: template attempts and synthesis times.
fn experiment_t5() {
    banner("T5", "§5 — template instantiation measurements");
    // FORWARD: equality template fails, refined template succeeds.
    let (program, cex) = forward_with_cex();
    let pp = path_program(&program, &cex).expect("path program construction");
    match PathInvariantGenerator::new().generate(&pp.program) {
        Ok(generated) => {
            println!("FORWARD path program (paper: 40 ms failure, then 130 ms success):");
            for a in &generated.attempts {
                println!(
                    "  {:<45} {:>9.1?}  {}",
                    a.description,
                    a.duration,
                    if a.succeeded { "success" } else { "failure" }
                );
            }
            for (loc, inv) in &generated.cutpoint_invariants {
                println!(
                    "  invariant at {}: {}   (paper: a+b = 3i and a+b <= 3n)",
                    pp.program.loc_label(*loc),
                    inv
                );
            }
        }
        Err(e) => println!("FORWARD synthesis failed: {e}"),
    }
    // INITCHECK: quantified template, no refinement needed (paper: 3 s).
    let (program, cex) = initcheck_with_cex();
    let pp = path_program(&program, &cex).expect("path program construction");
    match PathInvariantGenerator::new().generate(&pp.program) {
        Ok(generated) => {
            println!("INITCHECK path program (paper: 3 s, no template refinement):");
            for a in &generated.attempts {
                println!(
                    "  {:<45} {:>9.1?}  {}",
                    a.description,
                    a.duration,
                    if a.succeeded { "success" } else { "failure" }
                );
            }
        }
        Err(e) => println!("INITCHECK synthesis failed: {e}"),
    }
    // PARTITION: same behaviour as INITCHECK (paper: "similar, no refinement").
    let (program, cex) = partition_with_ge_cex();
    let pp = path_program(&program, &cex).expect("path program construction");
    match PathInvariantGenerator::new().generate(&pp.program) {
        Ok(generated) => {
            println!("PARTITION path program (paper: similar to INITCHECK, no refinement):");
            for a in &generated.attempts {
                println!(
                    "  {:<45} {:>9.1?}  {}",
                    a.description,
                    a.duration,
                    if a.succeeded { "success" } else { "failure" }
                );
            }
        }
        Err(e) => println!("PARTITION synthesis failed: {e}"),
    }
    println!();
}

/// §6: the buggy INITCHECK variant is falsified.
fn experiment_d6() {
    banner("D6", "§6 — falsification of the buggy INITCHECK variant");
    let program = parse_program(
        "proc buggy_init(a: int[]) {
            var i: int;
            for (i = 0; i < 3; i++) { a[i] = 1; }
            assert(a[0] == 0);
        }",
    )
    .expect("buggy program parses");
    let start = Instant::now();
    let result = Verifier::path_invariants().verify(&program).expect("verification runs");
    println!(
        "verdict after {} refinements in {:?}: {}",
        result.refinements,
        start.elapsed(),
        match &result.verdict {
            Verdict::Unsafe { .. } =>
                "bug confirmed (as the paper predicts: no safe path-invariant map exists)",
            Verdict::Safe => "UNEXPECTED proof",
            Verdict::Unknown { reason } => reason,
            Verdict::Cancelled => "UNEXPECTED cancellation (no token was installed)",
        }
    );
    println!("(the paper uses a loop bound of 100; the bound here is 3 so the concrete\n counterexample, which must unroll the loop, stays short)");
    println!();
}

/// §6: the suite "none of which could be proved by BLAST".
fn experiment_s1() {
    banner("S1", "§6 — benchmark suite: path invariants vs. the finite-path baseline");
    println!(
        "{:<26} {:>6} {:>12} {:>22} {:>22}",
        "program", "safe?", "quantified?", "path-invariants", "baseline (bound 4)"
    );
    for (entry, program) in corpus::suite_programs() {
        let start = Instant::now();
        let pi = Verifier::path_invariants().verify(&program);
        let pi_str = verdict_summary(&pi, start.elapsed());
        let start = Instant::now();
        let base = Verifier::path_predicates(4).verify(&program);
        let base_str = verdict_summary(&base, start.elapsed());
        println!(
            "{:<26} {:>6} {:>12} {:>22} {:>22}",
            entry.name, entry.safe, entry.needs_quantifiers, pi_str, base_str
        );
    }
    println!();
}

fn verdict_summary(
    r: &Result<pathinv_core::VerificationResult, pathinv_core::CoreError>,
    elapsed: std::time::Duration,
) -> String {
    match r {
        Ok(res) => match &res.verdict {
            Verdict::Safe => format!("safe ({} ref, {:.1?})", res.refinements, elapsed),
            Verdict::Unsafe { .. } => format!("bug ({} ref, {:.1?})", res.refinements, elapsed),
            Verdict::Unknown { .. } => format!("unknown ({} ref)", res.refinements),
            Verdict::Cancelled => "cancelled".to_string(),
        },
        Err(e) => format!("error: {e}"),
    }
}

fn run_both_verifiers(name: &str, program: &Program, baseline_bound: usize) {
    let start = Instant::now();
    match Verifier::path_invariants().verify(program) {
        Ok(res) => println!(
            "{name} with path invariants: {:?} after {} refinements in {:?}",
            res.verdict,
            res.refinements,
            start.elapsed()
        ),
        Err(e) => println!("{name} with path invariants: error: {e}"),
    }
    let start = Instant::now();
    match Verifier::path_predicates(baseline_bound).verify(program) {
        Ok(res) => println!(
            "{name} with the finite-path baseline (bound {baseline_bound}): {:?} after {} refinements in {:?}",
            res.verdict,
            res.refinements,
            start.elapsed()
        ),
        Err(e) => println!("{name} with the finite-path baseline: error: {e}"),
    }
    // One refinement step in isolation, for the per-step comparison.
    let _ = PathInvariantRefiner::new();
}
