//! Integration tests: each rule against its fixture (positive hit,
//! pragma-suppressed, baseline-suppressed), plus a gate that the real
//! workspace is clean modulo the checked-in baseline — so a determinism
//! hazard reintroduced anywhere fails `cargo test`, not just CI.

use std::path::Path;

use dcs_lint::baseline::Baseline;
use dcs_lint::rules::{Finding, Suppression};
use dcs_lint::{analyze_source, source_line, workspace_files};

const DETERMINISM: &str = include_str!("fixtures/determinism.rs");
const INVARIANTS: &str = include_str!("fixtures/invariants.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const FIXTURE_BASELINE: &str = include_str!("fixtures/baseline.toml");

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .collect()
}

#[test]
fn determinism_fixture_trips_every_determinism_rule() {
    let f = analyze_source("crates/fixture/src/determinism.rs", DETERMINISM);
    // HashMap (use + 2 decls + ctor) and HashSet each count.
    assert!(active(&f, "hash-collection").len() >= 4, "{f:#?}");
    // Field iter(), field for-loop, retain, local values().
    assert!(active(&f, "hash-iter").len() >= 4, "{f:#?}");
    assert_eq!(active(&f, "wall-clock").len(), 2, "{f:#?}");
    assert_eq!(active(&f, "ambient-rng").len(), 2, "{f:#?}");
    assert_eq!(active(&f, "thread-spawn").len(), 1, "{f:#?}");
}

#[test]
fn invariants_fixture_trips_every_invariant_rule() {
    let f = analyze_source("crates/nvme/src/fixture.rs", INVARIANTS);
    // handle() + on_dma_complete(); the messaged expect, the non-event
    // fn, and the #[cfg(test)] unwrap are all sanctioned.
    let unwraps = active(&f, "unwrap-in-event-path");
    assert_eq!(unwraps.len(), 2, "{f:#?}");
    assert_eq!(active(&f, "wildcard-event-arm").len(), 1, "{f:#?}");
    // deadline_time and dma_addr truncate; `count as u32` is fine.
    assert_eq!(active(&f, "lossy-cast").len(), 2, "{f:#?}");
}

#[test]
fn wildcard_arm_is_scoped_to_protocol_crates() {
    let elsewhere = analyze_source("crates/cluster/src/fixture.rs", INVARIANTS);
    assert!(active(&elsewhere, "wildcard-event-arm").is_empty());
    // The path-independent rules still fire there.
    assert_eq!(active(&elsewhere, "unwrap-in-event-path").len(), 2);
}

#[test]
fn pragmas_suppress_exactly_their_rule_and_line() {
    let f = analyze_source("crates/fixture/src/suppressed.rs", SUPPRESSED);

    // Same-line pragma on the `use`.
    let hash: Vec<_> = f.iter().filter(|f| f.rule == "hash-collection").collect();
    assert!(
        hash.iter()
            .any(|f| f.suppressed == Some(Suppression::Pragma)),
        "use-line pragma must suppress: {hash:#?}"
    );
    // The `HashMap` in `fn table() -> HashMap<u8, u8>` return type has
    // no pragma on its line: still active.
    assert!(!active(&f, "hash-collection").is_empty(), "{f:#?}");

    // Pragma above `fn timed()` covers the signature line, not the
    // Instant::now() two lines down: wall-clock stays active.
    assert_eq!(active(&f, "wall-clock").len(), 2, "{f:#?}");

    // Pragma directly above the spawn call suppresses it.
    assert!(active(&f, "thread-spawn").is_empty(), "{f:#?}");

    // Reasonless pragma: suppresses nothing, and is itself a finding.
    assert_eq!(active(&f, "ambient-rng").len(), 1, "{f:#?}");
    assert!(!active(&f, "pragma-missing-reason").is_empty(), "{f:#?}");
}

#[test]
fn baseline_grandfathers_and_reports_stale_entries() {
    let mut baseline = Baseline::parse(FIXTURE_BASELINE).expect("fixture baseline parses");
    let mut findings = analyze_source("crates/fixture/src/suppressed.rs", SUPPRESSED);
    for f in findings.iter_mut() {
        baseline.apply(f, source_line(SUPPRESSED, f.line));
    }
    // The thread_rng and SystemTime::now sites are grandfathered…
    let baselined: Vec<_> = findings
        .iter()
        .filter(|f| f.suppressed == Some(Suppression::Baseline))
        .map(|f| f.rule)
        .collect();
    assert!(baselined.contains(&"ambient-rng"), "{findings:#?}");
    assert!(baselined.contains(&"wall-clock"), "{findings:#?}");
    // …while the entry pointing at a nonexistent file is stale.
    let stale = baseline.stale();
    assert_eq!(stale.len(), 1, "{stale:#?}");
    assert_eq!(stale[0].file, "crates/fixture/src/nonexistent.rs");
}

#[test]
fn baseline_does_not_cover_other_files_or_rules() {
    let mut baseline = Baseline::parse(FIXTURE_BASELINE).expect("parses");
    let mut findings = analyze_source("crates/fixture/src/other.rs", SUPPRESSED);
    for f in findings.iter_mut() {
        baseline.apply(f, source_line(SUPPRESSED, f.line));
    }
    assert!(
        findings
            .iter()
            .all(|f| f.suppressed != Some(Suppression::Baseline)),
        "entries are file-scoped: {findings:#?}"
    );
}

#[test]
fn allow_file_pragma_below_first_item_still_covers_whole_file() {
    // An allow-file pragma is position-independent: sitting at the
    // bottom of the file (below every item) it still waives the rule
    // everywhere above it.
    let src = "\
use std::collections::HashMap;
struct A { x: HashMap<u8, u8> }
// dcs-lint: allow-file(hash-collection) — interior index, never iterated
";
    let f = analyze_source("crates/x/src/lib.rs", src);
    let hash: Vec<_> = f.iter().filter(|f| f.rule == "hash-collection").collect();
    assert!(hash.len() >= 2, "{f:#?}");
    assert!(
        hash.iter()
            .all(|f| f.suppressed == Some(Suppression::Pragma)),
        "bottom-of-file allow-file must suppress lines above it: {f:#?}"
    );
}

#[test]
fn reasonless_pragma_is_rejected_even_for_allow_file() {
    let src = "\
// dcs-lint: allow-file(hash-collection)
use std::collections::HashMap;
";
    let f = analyze_source("crates/x/src/lib.rs", src);
    assert!(!active(&f, "hash-collection").is_empty(), "{f:#?}");
    assert!(!active(&f, "pragma-missing-reason").is_empty(), "{f:#?}");
}

#[test]
fn stale_pragma_is_flagged_once_the_violation_is_gone() {
    // The pragma once waived a HashMap on this line; the HashMap was
    // fixed but the pragma stayed behind.
    let src = "use std::collections::BTreeMap; // dcs-lint: allow(hash-collection) — index only\n";
    let f = analyze_source("crates/x/src/lib.rs", src);
    let stale = active(&f, "stale-pragma");
    assert_eq!(stale.len(), 1, "{f:#?}");
    assert!(stale[0].message.contains("hash-collection"));

    // A pragma that still suppresses something is NOT stale.
    let live = "use std::collections::HashMap; // dcs-lint: allow(hash-collection) — index only\n";
    let f = analyze_source("crates/x/src/lib.rs", live);
    assert!(active(&f, "stale-pragma").is_empty(), "{f:#?}");
}

#[test]
fn workspace_rule_pragmas_are_not_judged_stale_per_file() {
    // analyze_source never runs the workspace pass, so it cannot know
    // whether a shared-mut-state pragma is stale — it must stay silent
    // rather than cry wolf.
    let src = "struct S { x: u8 } // dcs-lint: allow(shared-mut-state) — judged by full run\n";
    let f = analyze_source("crates/nic/src/s.rs", src);
    assert!(active(&f, "stale-pragma").is_empty(), "{f:#?}");
}

/// The lint gate's coverage: the walk must include the root `tests/`
/// and `examples/` trees and every crate (crates/bench included) — a
/// determinism hazard in a benchmark harness or example skews the
/// paper tables just as surely as one in the library.
#[test]
fn workspace_walk_covers_tests_examples_and_bench() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root");
    let files = workspace_files(&root).expect("walk workspace");
    let rels: Vec<String> = files
        .iter()
        .map(|p| {
            p.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    for required in ["tests/", "examples/", "crates/bench/", "src/"] {
        assert!(
            rels.iter().any(|r| r.starts_with(required)),
            "lint walk must cover `{required}`: {rels:?}"
        );
    }
    // And the exclusions hold: no build output, no rule fixtures
    // (which are violations on purpose).
    assert!(
        rels.iter()
            .all(|r| !r.contains("target/") && !r.contains("fixtures/")),
        "{rels:?}"
    );
}

/// The real workspace must be clean modulo the checked-in baseline.
/// This is the same gate CI runs (`--workspace --deny`), enforced from
/// `cargo test` so a stray HashMap or Instant::now cannot land even
/// when CI is skipped.
#[test]
fn workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root");
    let files = workspace_files(&root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "workspace walk looks wrong: {} files",
        files.len()
    );

    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline exists");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");

    let report = dcs_lint::run(&root, &files, Some(baseline)).expect("lint run");
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        active.is_empty() && report.stale_baseline.is_empty(),
        "workspace must lint clean.\nactive:\n{}\nstale:\n{}",
        active.join("\n"),
        report.stale_baseline.join("\n")
    );
}
