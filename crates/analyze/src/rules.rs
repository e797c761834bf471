//! The named invariant rules.
//!
//! Each rule is a purely lexical check over [`crate::scan::ScannedFile`]s
//! (plus, for `registry-drift`, the docs and the benchmark trajectory file).
//! Rules deliberately over-approximate: a construct that *might* violate the
//! invariant is reported and must be either rewritten or explicitly
//! sanctioned with `// analyze: allow(<rule>) reason="..."`.

use crate::scan::{contains_word, find_word, ScannedFile};

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (one of [`RULE_IDS`], or `unused-allow` / `bad-annotation`).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// The enforced rule ids, i.e. the valid arguments to `analyze: allow(...)`.
pub const RULE_IDS: [&str; 9] = [
    "hot-path-alloc",
    "determinism",
    "swap-point",
    "config-hygiene",
    "registry-drift",
    "panic-policy",
    "sampling-discipline",
    "sync-discipline",
    "snapshot-clock",
];

/// Crates whose sources must stay deterministic: everything that executes
/// *inside* a simulation, as opposed to the CLI / bench-harness shells.
const SIM_CRATES: [&str; 9] = [
    "types",
    "core",
    "fetch",
    "mem",
    "branch",
    "predictors",
    "sched",
    "adapt",
    "trace",
];

/// Paths holding per-cycle pipeline code, where the zero-allocation steady
/// state (PR 2) is enforced. The `.smtt` replay decoder is in scope too: its
/// `refill` feeds the fetch stage every ~64 instructions, so an allocation
/// there is paid on the same per-cycle cadence as one in the pipeline.
fn in_hot_path_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/pipeline/")
        || path.starts_with("crates/fetch/src/")
        || path.starts_with("crates/mem/src/")
        || path == "crates/trace/src/reader.rs"
}

fn in_sim_scope(path: &str) -> bool {
    SIM_CRATES.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(c))
            .is_some_and(|p| p.starts_with("/src/"))
    })
}

/// The one file allowed to call `swap_policy`: the end-of-cycle adaptive
/// tick, the sanctioned swap point.
const SWAP_POINT_FILE: &str = "crates/core/src/pipeline/adaptive.rs";

/// The functional fast-forward file, where `sampling-discipline` pins that
/// warm-state code never reaches a statistics counter or moves simulated
/// time. If it did, sampled and exact runs would silently disagree about
/// what was measured.
const FAST_FORWARD_FILE: &str = "crates/core/src/pipeline/fast_forward.rs";

/// Statistics and cycle-accounting constructs forbidden in functional
/// fast-forward code. `(needle, needs_word_boundary_before)`. Assignment
/// patterns keep their trailing space so `cycle ==` comparisons and plain
/// `self.cycle` reads (both legal) do not match.
const SAMPLING_PATTERNS: [(&str, bool); 7] = [
    ("MachineStats", true),
    (".stats", false),
    ("measured_cycles", true),
    ("reset_stats", true),
    ("cycle = ", true),
    ("cycle += ", true),
    ("cycle -= ", true),
];

/// Crates holding fetch policies and adaptive selectors, whose per-cycle
/// queries must not depend on the clock (`snapshot-clock`).
fn in_policy_scope(path: &str) -> bool {
    path.starts_with("crates/fetch/src/") || path.starts_with("crates/adapt/src/")
}

/// Allocation constructs forbidden in steady-state pipeline code. `(needle,
/// needs_word_boundary_before)`.
const ALLOC_PATTERNS: [(&str, bool); 14] = [
    (".collect::<", false),
    ("Vec::new(", true),
    ("VecDeque::new(", true),
    ("BinaryHeap::new(", true),
    ("HashMap::new(", true),
    ("HashSet::new(", true),
    ("String::new(", true),
    ("Box::new(", true),
    ("vec!", true),
    ("format!", true),
    (".collect(", false),
    (".to_vec(", false),
    (".to_owned(", false),
    (".to_string(", false),
];

/// `.clone(` is reported separately: the message explains the heap-type
/// qualifier (a `Copy`-type clone should simply be dereferenced instead).
const CLONE_PATTERN: &str = ".clone(";

/// Wall-clock, randomness and environment reads forbidden in simulation
/// crates.
const NONDETERMINISM_PATTERNS: [(&str, bool); 5] = [
    ("Instant", true),
    ("SystemTime", true),
    ("thread_rng", true),
    ("from_entropy", true),
    ("env::var", false),
];

/// The one module of the simulation crates sanctioned to hold threads,
/// locks and atomics: the chip-stepping worker pool.
const SYNC_MODULE: &str = "crates/core/src/chip/parallel.rs";

/// Host-harness files inside `smt-core` that orchestrate simulations from
/// the *outside* (experiment thread pools, panic quarantine, bench timing)
/// and therefore legitimately use synchronization primitives. Nothing in
/// them executes within a simulated cycle.
fn in_sync_harness(path: &str) -> bool {
    path.starts_with("crates/core/src/experiments/")
        || path == "crates/core/src/runner.rs"
        || path == "crates/core/src/throughput.rs"
}

/// Synchronization and escape-hatch constructs forbidden in simulation code
/// outside [`SYNC_MODULE`]. `(needle, needs_word_boundary_before)`;
/// `Atomic` prefix-matches the whole `AtomicU8`/`AtomicU64`/`AtomicBool`
/// family.
const SYNC_PATTERNS: [(&str, bool); 5] = [
    ("Mutex", true),
    ("RwLock", true),
    ("RefCell", true),
    ("Atomic", true),
    ("unsafe", true),
];

/// Method calls that observe hash-iteration order.
const HASH_ITER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Runs the per-file rules over one scanned file.
pub(crate) fn check_file(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    if in_hot_path_scope(&file.path) {
        hot_path_alloc(file, raw, out);
    }
    if in_sim_scope(&file.path) {
        determinism(file, raw, out);
    }
    if file.path != SWAP_POINT_FILE {
        swap_point(file, raw, out);
    }
    if file.path.starts_with("crates/types/src/") {
        config_hygiene(file, raw, out);
    }
    if file.path.starts_with("crates/core/src/experiments/") {
        panic_policy(file, raw, out);
    }
    if file.path == FAST_FORWARD_FILE {
        sampling_discipline(file, raw, out);
    }
    if in_sim_scope(&file.path) && file.path != SYNC_MODULE && !in_sync_harness(&file.path) {
        sync_discipline(file, raw, out);
    }
    if in_policy_scope(&file.path) {
        snapshot_clock(file, raw, out);
    }
}

fn finding(
    file: &ScannedFile,
    raw: &[&str],
    line: usize,
    rule: &'static str,
    message: String,
) -> Finding {
    let excerpt = raw
        .get(line - 1)
        .map(|l| {
            let t = l.trim();
            if t.len() > 120 {
                let mut end = 119;
                while !t.is_char_boundary(end) {
                    end -= 1;
                }
                format!("{}…", &t[..end])
            } else {
                t.to_string()
            }
        })
        .unwrap_or_default();
    Finding {
        file: file.path.clone(),
        line,
        rule,
        message,
        excerpt,
    }
}

/// **hot-path-alloc** — no heap allocation in per-cycle pipeline code outside
/// constructors and test regions.
fn hot_path_alloc(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.in_constructor {
            continue;
        }
        let code = line.code.as_str();
        for (pat, word_start) in ALLOC_PATTERNS {
            if matches_pattern(code, pat, word_start) {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "hot-path-alloc",
                    format!("`{pat}` allocates on the heap in per-cycle pipeline code"),
                ));
            }
        }
        if matches_pattern(code, CLONE_PATTERN, false) {
            out.push(finding(
                file,
                raw,
                idx + 1,
                "hot-path-alloc",
                "`.clone()` in per-cycle pipeline code: heap-type clones allocate \
                 (for `Copy` types, dereference instead)"
                    .to_string(),
            ));
        }
    }
}

/// **determinism** — no wall-clock, randomness, environment reads or
/// hash-iteration-order dependence in simulation crates.
fn determinism(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    let hash_idents = collect_hash_idents(file);
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        for (pat, word) in NONDETERMINISM_PATTERNS {
            if matches_pattern(code, pat, word) {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "determinism",
                    format!("`{pat}` is nondeterministic input to a simulation crate"),
                ));
            }
        }
        for m in hash_iteration_sites(code, &hash_idents) {
            out.push(finding(
                file,
                raw,
                idx + 1,
                "determinism",
                format!(
                    "iteration over hash-ordered container `{m}`: visit order is \
                     nondeterministic across std versions"
                ),
            ));
        }
    }
}

/// How a hash container is reached from an identifier.
#[derive(Clone, Copy, PartialEq)]
enum HashClass {
    /// The identifier *is* a `HashMap`/`HashSet`.
    Direct,
    /// The identifier is a collection *containing* hash containers
    /// (`Vec<HashMap<..>>`); indexing it yields one.
    Nested,
}

/// Scans declarations (`let` bindings, struct fields, parameters) for
/// identifiers bound to hash-container types.
fn collect_hash_idents(file: &ScannedFile) -> Vec<(String, HashClass)> {
    let mut idents: Vec<(String, HashClass)> = Vec::new();
    for line in &file.lines {
        let code = line.code.as_str();
        let hash_pos = match find_word(code, "HashMap", 0).or_else(|| find_word(code, "HashSet", 0))
        {
            Some(p) => p,
            None => continue,
        };
        // `let [mut] name ... = ...` or `name: Type` — find the binder to the
        // left of the hash token.
        let before = &code[..hash_pos];
        let (name, type_start) = if let Some(colon) = before.rfind(':') {
            // Skip paths (`std::collections::HashMap`): a `::` is not a type
            // ascription.
            if before.as_bytes().get(colon.wrapping_sub(1)) == Some(&b':')
                || before.as_bytes().get(colon + 1) == Some(&b':')
            {
                match let_binder(before) {
                    Some(name) => (name, before.len()),
                    None => continue,
                }
            } else {
                match trailing_ident(&before[..colon]) {
                    Some(name) => (name, colon + 1),
                    None => continue,
                }
            }
        } else {
            match let_binder(before) {
                Some(name) => (name, before.len()),
                None => continue,
            }
        };
        let ty = code[type_start..].trim_start();
        let ty = ty
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim_start_matches("std::collections::")
            .trim_start();
        let class = if ty.starts_with("HashMap") || ty.starts_with("HashSet") {
            HashClass::Direct
        } else {
            HashClass::Nested
        };
        if !idents.iter().any(|(n, c)| *n == name && *c == class) {
            idents.push((name, class));
        }
    }
    idents
}

/// The `let [mut] NAME` binder of a line, if it is a let statement.
fn let_binder(before: &str) -> Option<String> {
    let at = find_word(before, "let", 0)?;
    let rest = before[at + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The identifier ending `text`, if any.
fn trailing_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    let name = &trimmed[start..];
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then(|| name.to_string())
}

/// Finds hash-container iteration on one line: `x.iter()` where `x` is a
/// hash container, `xs[i].retain(..)` where `xs` contains hash containers,
/// and `for .. in &x` over a hash container.
fn hash_iteration_sites(code: &str, idents: &[(String, HashClass)]) -> Vec<String> {
    let mut hits = Vec::new();
    for method in HASH_ITER_METHODS {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(method) {
            let at = from + pos;
            if let Some((name, indexed)) = receiver_ident(&code[..at]) {
                let flagged = idents.iter().any(|(n, class)| {
                    *n == name
                        && match class {
                            HashClass::Direct => !indexed,
                            HashClass::Nested => indexed,
                        }
                });
                if flagged && !hits.contains(&name) {
                    hits.push(name);
                }
            }
            from = at + method.len();
        }
    }
    // `for x in &container` / `for x in container`
    if let Some(for_at) = find_word(code, "for", 0) {
        if let Some(in_rel) = find_word(code, "in", for_at) {
            let expr = code[in_rel + 2..].trim_start().trim_end_matches('{').trim();
            let expr = expr.trim_start_matches('&').trim_start_matches("mut ");
            if !expr.contains('(') && !expr.contains('[') {
                if let Some(name) = trailing_ident(expr) {
                    if idents
                        .iter()
                        .any(|(n, c)| *n == name && *c == HashClass::Direct)
                        && !hits.contains(&name)
                    {
                        hits.push(name);
                    }
                }
            }
        }
    }
    hits
}

/// Walks backwards from a method call to its receiver identifier, skipping
/// one balanced `[..]` / `(..)` suffix group. Returns `(ident, was_indexed)`.
fn receiver_ident(before: &str) -> Option<(String, bool)> {
    let chars: Vec<char> = before.chars().collect();
    let mut i = chars.len();
    let mut indexed = false;
    loop {
        if i == 0 {
            return None;
        }
        match chars[i - 1] {
            ']' | ')' => {
                let open = if chars[i - 1] == ']' { '[' } else { '(' };
                let close = chars[i - 1];
                indexed = close == ']';
                let mut depth = 0i32;
                while i > 0 {
                    let c = chars[i - 1];
                    if c == close {
                        depth += 1;
                    } else if c == open {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    i -= 1;
                }
                if !indexed {
                    // A call suffix (`foo().iter()`): unknown result type.
                    return None;
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let end = i;
                while i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
                    i -= 1;
                }
                let name: String = chars[i..end].iter().collect();
                return Some((name, indexed));
            }
            _ => return None,
        }
    }
}

/// **swap-point** — `swap_policy` may only be called from the adaptive
/// end-of-cycle tick.
fn swap_point(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if code.contains("fn swap_policy") {
            continue;
        }
        if let Some(at) = find_word(code, "swap_policy", 0) {
            let rest = code[at + "swap_policy".len()..].trim_start();
            if rest.starts_with('(') {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "swap-point",
                    "`swap_policy` called outside the sanctioned end-of-cycle swap \
                     point (crates/core/src/pipeline/adaptive.rs)"
                        .to_string(),
                ));
            }
        }
    }
}

/// **config-hygiene** — every `Deserialize` struct in `smt-types` must carry
/// `#[serde(deny_unknown_fields)]` so config typos fail loudly.
fn config_hygiene(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !(code.contains("derive(") && contains_word(code, "Deserialize")) {
            continue;
        }
        // Walk the attribute block down to the item; only structs need the
        // guard (enum variants are closed sets already).
        let mut has_deny = code.contains("deny_unknown_fields");
        let mut is_struct = false;
        for follow in file.lines.iter().skip(idx + 1).take(16) {
            let t = follow.code.trim();
            if t.starts_with("#[") || t.starts_with("#![") || t.is_empty() {
                has_deny |= t.contains("deny_unknown_fields");
                continue;
            }
            let t = t
                .strip_prefix("pub")
                .map(|r| {
                    r.trim_start_matches(|c: char| c == '(' || c == ')' || c.is_alphanumeric())
                })
                .unwrap_or(t)
                .trim_start();
            is_struct = t.starts_with("struct ");
            break;
        }
        if is_struct && !has_deny {
            out.push(finding(
                file,
                raw,
                idx + 1,
                "config-hygiene",
                "`Deserialize` struct without `#[serde(deny_unknown_fields)]`: \
                 config typos would be silently ignored"
                    .to_string(),
            ));
        }
    }
}

/// **panic-policy** — no bare `unwrap()` / `expect(` in the resilient
/// experiment engine. The engine's whole contract is that cell failures are
/// caught, classified and reported as [`CellOutcome`]s rather than crashing
/// the run, so non-test engine code must surface errors as `Result`s (or
/// carry an `analyze: allow(panic-policy)` explaining why the panic is
/// unreachable).
///
/// [`CellOutcome`]: https://docs.rs/smt-types
fn panic_policy(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        for pat in [".unwrap()", ".expect("] {
            if code.contains(pat) {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "panic-policy",
                    format!(
                        "`{pat}` can panic inside the resilient experiment engine; \
                         propagate a `SimError` instead"
                    ),
                ));
            }
        }
    }
}

/// **sampling-discipline** — functional fast-forward code must not touch
/// statistics or cycle accounting. The sampled/exact equivalence of the
/// SMARTS-style engine rests on fast-forward advancing *only* warm state
/// (caches, TLBs, predictors, LLSR): a statistics update here would count
/// unmeasured instructions, and a cycle mutation would move simulated time
/// during a phase that is by definition timeless. Reading the frozen cycle
/// counter (e.g. to stamp stream-buffer availability) stays legal.
fn sampling_discipline(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        for (pat, word_start) in SAMPLING_PATTERNS {
            if matches_pattern(code, pat, word_start) {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "sampling-discipline",
                    format!(
                        "`{}` in functional fast-forward code: warm-state \
                         warming must not touch statistics or cycle accounting",
                        pat.trim_end()
                    ),
                ));
            }
        }
    }
}

/// **sync-discipline** — simulation state is single-owner and stepped
/// deterministically; threads, locks, interior mutability and `unsafe` live
/// only in the sanctioned chip worker-pool module ([`SYNC_MODULE`]) and the
/// host-side harness files. Additionally, frozen read views (types named
/// `*View*`) must expose only `&self` methods: a `&mut self` method on a
/// view would let a worker mutate what the staged chip discipline promises
/// is frozen for the duration of the cycle.
fn sync_discipline(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    // Brace depth of the body of the innermost `impl ... View ...` block, if
    // any; while inside one, `fn` signatures taking `&mut self` are flagged.
    let mut depth = 0usize;
    let mut view_impl_depth: Option<usize> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        if !line.in_test {
            for (pat, word) in SYNC_PATTERNS {
                if matches_pattern(code, pat, word) {
                    out.push(finding(
                        file,
                        raw,
                        idx + 1,
                        "sync-discipline",
                        format!(
                            "`{pat}` in simulation code: synchronization primitives and \
                             escape hatches live only in the chip worker pool ({SYNC_MODULE})"
                        ),
                    ));
                }
            }
            if view_impl_depth.is_some()
                && find_word(code, "fn", 0).is_some()
                && code.contains("&mut self")
            {
                out.push(finding(
                    file,
                    raw,
                    idx + 1,
                    "sync-discipline",
                    "`&mut self` method on a frozen view: intra-cycle view queries \
                     must be read-only (`&self`)"
                        .to_string(),
                ));
            }
        }
        if view_impl_depth.is_none()
            && find_word(code, "impl", 0).is_some()
            && code.contains("View")
        {
            // The impl body opens at the next brace depth (the `{` may sit
            // on a later line when a `where` clause intervenes).
            view_impl_depth = Some(depth + 1);
        }
        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if view_impl_depth.is_some_and(|d| depth < d) {
                        view_impl_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
}

/// **snapshot-clock** — fetch policies and adaptive selectors never read
/// the cycle number off the `SmtSnapshot` they are handed. The pipeline's
/// quiescent fast path skips the per-cycle policy queries while nothing but
/// the clock changes; a query that depended on the clock would make that
/// skip observable. Flags `.cycle` field reads (not `.cycles`, `.cycle_*`
/// or a `.cycle(` method call) and a `cycle` field destructured out of an
/// `SmtSnapshot` pattern on one line.
fn snapshot_clock(file: &ScannedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let field_read = code.match_indices(".cycle").any(|(at, pat)| {
            code.as_bytes()
                .get(at + pat.len())
                .is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'('))
        });
        let destructured = contains_word(code, "SmtSnapshot") && contains_word(code, "cycle");
        if field_read || destructured {
            out.push(finding(
                file,
                raw,
                idx + 1,
                "snapshot-clock",
                "reads the snapshot's cycle number in policy code: fetch-policy and \
                 selector queries must not depend on the clock (the quiescent fast \
                 path skips them while only the clock moves)"
                    .to_string(),
            ));
        }
    }
}

fn matches_pattern(code: &str, pat: &str, word_boundary_before: bool) -> bool {
    let mut from = 0usize;
    while let Some(pos) = code.get(from..).and_then(|c| c.find(pat)) {
        let at = from + pos;
        if !word_boundary_before {
            return true;
        }
        let before_ok = at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        if before_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = scan(path, src);
        let raw: Vec<&str> = src.lines().collect();
        let mut out = Vec::new();
        check_file(&file, &raw, &mut out);
        out
    }

    #[test]
    fn alloc_flagged_outside_constructors_only() {
        let src = "impl X {\n    fn new() -> Self {\n        let v = Vec::new();\n    }\n    fn step(&mut self) {\n        let v = Vec::new();\n    }\n}\n";
        let out = run("crates/fetch/src/lib.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
        assert_eq!(out[0].rule, "hot-path-alloc");
    }

    #[test]
    fn alloc_scope_is_pipeline_fetch_mem_only() {
        let src = "fn step() { let v = Vec::new(); }\n";
        assert!(run("crates/core/src/runner.rs", src).is_empty());
        assert_eq!(run("crates/core/src/pipeline/x.rs", src).len(), 1);
    }

    #[test]
    fn hash_iteration_direct_and_indexed() {
        let src = "struct S {\n    pending: HashSet<u64>,\n    per_thread: Vec<HashSet<u64>>,\n}\nimpl S {\n    fn a(&mut self) {\n        self.pending.retain(|&s| s > 0);\n    }\n    fn b(&mut self) {\n        self.per_thread[0].retain(|&s| s > 0);\n    }\n    fn c(&self) {\n        for t in &self.per_thread {\n            let _ = t;\n        }\n    }\n}\n";
        let out = run("crates/fetch/src/x.rs", src);
        let lines: Vec<usize> = out
            .iter()
            .filter(|f| f.rule == "determinism")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![7, 10], "{out:?}");
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let src = "struct S { xs: Vec<u64> }\nimpl S {\n    fn a(&self) {\n        for x in &self.xs {\n            let _ = x;\n        }\n        self.xs.iter().count();\n    }\n}\n";
        assert!(run("crates/mem/src/x.rs", src).is_empty());
    }

    #[test]
    fn swap_policy_only_from_adaptive_submodule() {
        let src = "fn tick(&mut self) {\n    self.swap_policy(kind);\n}\n";
        assert_eq!(run("crates/core/src/pipeline/mod.rs", src).len(), 1);
        assert!(run("crates/core/src/pipeline/adaptive.rs", src).is_empty());
    }

    #[test]
    fn panic_policy_scoped_to_the_experiment_engine() {
        let src =
            "fn go() {\n    let x = compute().unwrap();\n    let y = other().expect(\"y\");\n}\n";
        let out = run("crates/core/src/experiments/engine.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "panic-policy"));
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
        // Out of scope: the rest of smt-core, and engine test code.
        assert!(run("crates/core/src/runner.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        compute().unwrap();\n    }\n}\n";
        assert!(run("crates/core/src/experiments/engine.rs", test_src).is_empty());
    }

    #[test]
    fn sampling_discipline_pins_fast_forward_purity() {
        let src = "impl Core {\n    fn fast_forward(&mut self) {\n        let now = self.cycle;\n        self.stats.commits += 1;\n        self.cycle += 4;\n        if self.cycle == now {}\n    }\n}\n";
        let out = run("crates/core/src/pipeline/fast_forward.rs", src);
        let lines: Vec<usize> = out
            .iter()
            .filter(|f| f.rule == "sampling-discipline")
            .map(|f| f.line)
            .collect();
        // Reading the frozen counter (line 3) and comparing it (line 6) are
        // legal; the statistics update and the cycle mutation are not.
        assert_eq!(lines, vec![4, 5], "{out:?}");
        // Out of scope: every other pipeline file.
        assert!(run("crates/core/src/pipeline/mod.rs", src)
            .iter()
            .all(|f| f.rule != "sampling-discipline"));
    }

    #[test]
    fn sync_discipline_flags_primitives_outside_the_pool_module() {
        let src = "use std::sync::{Mutex, RwLock};\nfn f() {\n    let c = RefCell::new(0u64);\n    let n = AtomicU64::new(0);\n    unsafe { hint::unreachable_unchecked() };\n}\n";
        let out = run("crates/adapt/src/x.rs", src);
        let lines: Vec<usize> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 1, 3, 4, 5], "{out:?}");
        assert!(out.iter().all(|f| f.rule == "sync-discipline"));
        // Sanctioned: the pool module itself, the host-side harness files,
        // non-simulation crates, and test regions.
        assert!(run("crates/core/src/chip/parallel.rs", src).is_empty());
        assert!(run("crates/core/src/runner.rs", src).is_empty());
        assert!(run("crates/core/src/throughput.rs", src).is_empty());
        assert!(run("crates/core/src/experiments/engine.rs", src).is_empty());
        assert!(run("crates/cli/src/main.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let m = std::sync::Mutex::new(0);\n        let _ = m;\n    }\n}\n";
        assert!(run("crates/adapt/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn sync_discipline_pins_frozen_views_to_shared_refs() {
        let src = "pub struct LlcView;\nimpl LlcView {\n    pub fn probe(&self, a: u64) -> bool {\n        a == 0\n    }\n    pub fn touch(&mut self, a: u64) {\n        let _ = a;\n    }\n}\nimpl Stage {\n    pub fn apply(&mut self) {}\n}\n";
        let out = run("crates/mem/src/x.rs", src);
        let lines: Vec<usize> = out
            .iter()
            .filter(|f| f.rule == "sync-discipline")
            .map(|f| f.line)
            .collect();
        // `&self` queries on the view (line 3) and `&mut self` methods on
        // non-view impls (line 11) are legal; a mutating view method is not.
        assert_eq!(lines, vec![6], "{out:?}");
    }

    #[test]
    fn deserialize_struct_needs_deny_unknown_fields() {
        let with = "#[derive(Serialize, Deserialize)]\n#[serde(deny_unknown_fields)]\npub struct A { pub x: u64 }\n";
        assert!(run("crates/types/src/a.rs", with).is_empty());
        let without = "#[derive(Serialize, Deserialize)]\npub struct A { pub x: u64 }\n";
        assert_eq!(run("crates/types/src/a.rs", without).len(), 1);
        let enumeration = "#[derive(Serialize, Deserialize)]\npub enum E { A, B }\n";
        assert!(run("crates/types/src/a.rs", enumeration).is_empty());
    }
}
