//! Name resolution and the world-isolation prover.
//!
//! Resolution is deliberately lightweight: the workspace has no proc
//! macros and no type-level tricks, so "what does identifier `Frame`
//! mean in this file" is answerable from the item tables alone —
//! same-file definitions first, then `use`-imported crates, then the
//! defining crate of the file, then any workspace match. That is
//! enough to walk the *ownership graph*: starting from the isolation
//! roots (the `World`, every `Component` impl, every registered world
//! resource), visit each struct/enum a root can store, transitively,
//! and flag any field whose type smuggles shared mutability (`Rc`,
//! `Arc`, `RefCell`, locks, atomics) or borrows (`&T`) into per-world
//! state. The per-crate tallies become the isolation certificate the
//! parallel-DES runner's CI gate consumes (DESIGN.md §15).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Token;
use crate::model::{is_sim_state_crate, ItemRef, Workspace, SIM_STATE_CRATES};
use crate::parser::{Field, ItemKind};
use crate::rules::Finding;

/// Name-resolution index over a [`Workspace`].
pub struct Resolver<'w> {
    ws: &'w Workspace,
    /// Type name → defining (non-test) struct/enum items, file order.
    types: BTreeMap<&'w str, Vec<ItemRef>>,
    /// Per file: imported leaf name → source crate hint.
    imports: Vec<BTreeMap<&'w str, String>>,
}

impl<'w> Resolver<'w> {
    pub fn new(ws: &'w Workspace) -> Resolver<'w> {
        let mut types: BTreeMap<&str, Vec<ItemRef>> = BTreeMap::new();
        for (r, item) in ws.items() {
            if !item.cfg_test
                && matches!(item.kind, ItemKind::Struct { .. } | ItemKind::Enum { .. })
                && !item.name.is_empty()
            {
                types.entry(item.name.as_str()).or_default().push(r);
            }
        }
        let imports = ws
            .files
            .iter()
            .map(|f| {
                let mut map = BTreeMap::new();
                for item in &f.parsed.items {
                    let ItemKind::Use { path, leaves } = &item.kind else {
                        continue;
                    };
                    let Some(source) = import_crate(path, &f.crate_name) else {
                        continue;
                    };
                    for leaf in leaves {
                        map.insert(leaf.as_str(), source.clone());
                    }
                }
                map
            })
            .collect();
        Resolver { ws, types, imports }
    }

    /// Resolves type `name` as seen from `from_file`, most specific
    /// match first: same file, imported crate, same crate, anywhere.
    pub fn resolve_type(&self, from_file: usize, name: &str) -> Vec<ItemRef> {
        let Some(candidates) = self.types.get(name) else {
            return Vec::new();
        };
        let in_file: Vec<ItemRef> = candidates
            .iter()
            .copied()
            .filter(|r| r.file == from_file)
            .collect();
        if !in_file.is_empty() {
            return in_file;
        }
        let by_crate = |krate: &str| -> Vec<ItemRef> {
            candidates
                .iter()
                .copied()
                .filter(|r| self.ws.files[r.file].crate_name == krate)
                .collect()
        };
        if let Some(hint) = self.imports[from_file].get(name) {
            let hinted = by_crate(hint);
            if !hinted.is_empty() {
                return hinted;
            }
        }
        let same_crate = by_crate(&self.ws.files[from_file].crate_name);
        if !same_crate.is_empty() {
            return same_crate;
        }
        candidates.clone()
    }

    /// The fields (or variant payload slots) of a struct/enum item.
    pub fn fields_of(&self, r: ItemRef) -> Vec<&'w Field> {
        match &self.ws.item(r).kind {
            ItemKind::Struct { fields, .. } => fields.iter().collect(),
            ItemKind::Enum { variants } => variants.iter().flat_map(|v| v.fields.iter()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Maps a `use` path head to the short crate name it draws from.
/// `dcs_sim::World` → `sim`; `crate::…`/`super::…`/`self::…` → the
/// importing file's crate; `std`/`core`/`alloc` → `None` (external).
fn import_crate(path: &str, own_crate: &str) -> Option<String> {
    let head = path
        .split("::")
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches(' ');
    match head {
        "crate" | "super" | "self" => Some(own_crate.to_string()),
        "std" | "core" | "alloc" => None,
        h => Some(h.strip_prefix("dcs_").unwrap_or(h).to_string()),
    }
}

/// Structural (pre-suppression) output of the isolation prover.
pub struct IsolationAnalysis {
    /// `shared-mut-state` / `borrowed-state` findings, file order.
    pub findings: Vec<Finding>,
    /// Per sim-state crate: (sorted root names, structs checked,
    /// opaque edges). One entry per crate in `SIM_STATE_CRATES` order.
    pub per_crate: Vec<(String, Vec<String>, usize, usize)>,
}

/// Type heads that smuggle shared mutability into per-world state.
/// Each entry carries the message fragment explaining *why* it breaks
/// the lock-step parallel plan.
const SHARED_MUT_TYPES: &[(&str, &str)] = &[
    (
        "Rc",
        "shared ownership — two worlds could alias the same allocation",
    ),
    (
        "Arc",
        "shared ownership across threads — worlds must not alias state",
    ),
    (
        "RefCell",
        "interior mutability — aliased writes bypass per-world ownership",
    ),
    (
        "Cell",
        "interior mutability — aliased writes bypass per-world ownership",
    ),
    (
        "UnsafeCell",
        "interior mutability — aliased writes bypass per-world ownership",
    ),
    (
        "Mutex",
        "cross-thread sharing — epoch merges must be the only sync point",
    ),
    (
        "RwLock",
        "cross-thread sharing — epoch merges must be the only sync point",
    ),
];

/// True for `AtomicU64`-style names (cross-thread mutation).
pub(crate) fn is_atomic(name: &str) -> bool {
    name.strip_prefix("Atomic")
        .is_some_and(|rest| !rest.is_empty() && rest.chars().next().unwrap().is_ascii_uppercase())
}

/// Struct-name suffixes whose instances are frozen inputs or derived
/// outputs, exempt from the borrowed-reference rule (they never evolve
/// inside the event loop, so sharing them cannot fork worlds).
const OWNERSHIP_EXEMPT_SUFFIXES: &[&str] = &["Config", "Report", "Perf", "Spec"];

/// Methods of `World` whose turbofish type argument registers or reads
/// a world resource — each such type is an isolation root.
const RESOURCE_METHODS: &[&str] = &["insert", "get", "get_mut", "expect", "expect_mut", "remove"];

/// Runs the world-isolation prover over the workspace.
pub fn prove_isolation(ws: &Workspace, resolver: &Resolver) -> IsolationAnalysis {
    // --- Collect roots -------------------------------------------------
    // (root name, defining ItemRef); BTreeSet for deterministic order.
    let mut roots: BTreeSet<(String, ItemRef)> = BTreeSet::new();
    for r in ws.types_named("World") {
        if ws.files[r.file].crate_name == "sim" {
            roots.insert(("World".to_string(), r));
        }
    }
    // Every `impl Component for X`.
    for (r, item) in ws.items() {
        let ItemKind::Impl {
            self_ty,
            trait_name: Some(t),
        } = &item.kind
        else {
            continue;
        };
        if t == "Component" && !item.cfg_test {
            for def in resolver.resolve_type(r.file, self_ty) {
                roots.insert((self_ty.clone(), def));
            }
        }
    }
    // Every type registered or read as a world resource:
    // `w.insert::<T>(…)`, `w.expect::<T>()`, and `w.insert(T::new(…))`.
    for (fi, f) in ws.files.iter().enumerate() {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_punct('.') {
                continue;
            }
            let Some(m) = toks.get(i + 1).and_then(|t| t.ident()) else {
                continue;
            };
            if !RESOURCE_METHODS.contains(&m) {
                continue;
            }
            // `. m :: < T` (turbofish).
            let ty = if seq(toks, i + 2, &[":", ":", "<"]) {
                toks.get(i + 5).and_then(|t| t.ident())
            } else if m == "insert" && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                // `. insert ( T …` — a constructor-expression argument.
                toks.get(i + 3).and_then(|t| t.ident())
            } else {
                None
            };
            let Some(ty) = ty else { continue };
            for def in resolver.resolve_type(fi, ty) {
                roots.insert((ty.to_string(), def));
            }
        }
    }

    // --- Traverse the ownership graph ---------------------------------
    let mut visited: BTreeSet<ItemRef> = BTreeSet::new();
    let mut queue: Vec<(ItemRef, String)> = Vec::new(); // (item, root it came from)
    let mut crate_roots: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (name, r) in &roots {
        let krate = ws.files[r.file].crate_name.as_str();
        if is_sim_state_crate(krate) {
            crate_roots.entry(krate).or_default().insert(name.clone());
        }
        if visited.insert(*r) {
            queue.push((*r, name.clone()));
        }
    }

    let mut findings = Vec::new();
    let mut checked: BTreeMap<&str, usize> = BTreeMap::new();
    let mut opaque: BTreeMap<&str, usize> = BTreeMap::new();
    while let Some((r, root)) = queue.pop() {
        let file = &ws.files[r.file];
        let krate = file.crate_name.as_str();
        let item = ws.item(r);
        let in_scope = is_sim_state_crate(krate);
        if in_scope {
            *checked.entry(krate).or_default() += 1;
        }
        let exempt = OWNERSHIP_EXEMPT_SUFFIXES
            .iter()
            .any(|s| item.name.ends_with(s));
        for field in resolver.fields_of(r) {
            if in_scope {
                *opaque.entry(krate).or_default() += field.ty.opaque_edges();
                for ident in field.ty.idents() {
                    let why = SHARED_MUT_TYPES
                        .iter()
                        .find(|(t, _)| *t == ident)
                        .map(|(_, why)| *why)
                        .or_else(|| {
                            is_atomic(ident)
                                .then_some("cross-thread mutation — worlds must not share counters")
                        });
                    if let Some(why) = why {
                        findings.push(Finding {
                            rule: "shared-mut-state",
                            file: file.rel.clone(),
                            line: field.line,
                            message: format!(
                                "field `{}` of `{}` holds `{}` ({why}); state reachable from \
                                 isolation root `{root}` must be uniquely owned per world",
                                display_name(&item.name, field),
                                item.name,
                                field.ty.display(),
                            ),
                            suppressed: None,
                        });
                    }
                }
                if field.ty.is_reference() && !field.ty.is_static_shared_ref() && !exempt {
                    findings.push(Finding {
                        rule: "borrowed-state",
                        file: file.rel.clone(),
                        line: field.line,
                        message: format!(
                            "field `{}` of `{}` borrows (`{}`) — per-world state reachable from \
                             `{root}` must own its data; share `*Config`/`*Report` values by \
                             clone, not by reference, across node boundaries",
                            display_name(&item.name, field),
                            item.name,
                            field.ty.display(),
                        ),
                        suppressed: None,
                    });
                }
            }
            // Follow workspace-defined types regardless of crate scope —
            // a cluster struct may route through a workloads type and
            // back into sim state.
            for ident in field.ty.idents() {
                for next in resolver.resolve_type(r.file, ident) {
                    if visited.insert(next) {
                        queue.push((next, root.clone()));
                    }
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let per_crate = SIM_STATE_CRATES
        .iter()
        .map(|&krate| {
            (
                krate.to_string(),
                crate_roots
                    .get(krate)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default(),
                checked.get(krate).copied().unwrap_or(0),
                opaque.get(krate).copied().unwrap_or(0),
            )
        })
        .collect();
    IsolationAnalysis {
        findings,
        per_crate,
    }
}

/// `Struct.field` display for named fields, `Struct.N`-less fallback
/// for tuple slots.
fn display_name(_struct_name: &str, field: &Field) -> String {
    if field.name.is_empty() {
        "<tuple field>".to_string()
    } else {
        field.name.clone()
    }
}

/// True when the identifiers/punctuation at `start` match `pat`.
fn seq(tokens: &[Token], start: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(j, p)| {
        let Some(t) = tokens.get(start + j) else {
            return false;
        };
        if p.len() == 1 && !p.chars().next().unwrap().is_ascii_alphanumeric() {
            t.is_punct(p.chars().next().unwrap())
        } else {
            t.is_ident(p)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(r, s)| (r.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn resolution_prefers_same_file_then_import_then_crate() {
        let w = ws(&[
            ("crates/sim/src/a.rs", "pub struct Frame { x: u8 }"),
            ("crates/nic/src/b.rs", "pub struct Frame { y: u8 }"),
            (
                "crates/nvme/src/c.rs",
                "use dcs_nic::Frame;\nstruct Holder { f: Frame }",
            ),
            ("crates/nic/src/d.rs", "struct Holder2 { f: Frame }"),
        ]);
        let r = Resolver::new(&w);
        // c.rs imports dcs_nic::Frame → resolves to the nic definition.
        let hit = r.resolve_type(2, "Frame");
        assert_eq!(hit.len(), 1);
        assert_eq!(w.files[hit[0].file].crate_name, "nic");
        // d.rs (no import) prefers its own crate.
        let hit = r.resolve_type(3, "Frame");
        assert_eq!(w.files[hit[0].file].crate_name, "nic");
        // a.rs sees its own definition first.
        let hit = r.resolve_type(0, "Frame");
        assert_eq!(hit[0].file, 0);
    }

    #[test]
    fn prover_reaches_through_component_state_and_flags_rc() {
        let w = ws(&[(
            "crates/nic/src/device.rs",
            r#"
            use std::rc::Rc;
            use std::cell::RefCell;
            pub struct Inner { pub peer: Rc<RefCell<u64>> }
            pub struct Nic { inner: Inner }
            impl Component for Nic { fn handle(&mut self) {} }
            "#,
        )]);
        let r = Resolver::new(&w);
        let out = prove_isolation(&w, &r);
        let rules: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
        // Rc and RefCell both live on the `peer` field's type.
        assert!(rules.contains(&"shared-mut-state"), "{:#?}", out.findings);
        // nic certificate row: 1 root (Nic), 2 structs checked.
        let nic = out.per_crate.iter().find(|c| c.0 == "nic").unwrap();
        assert_eq!(nic.1, vec!["Nic".to_string()]);
        assert_eq!(nic.2, 2);
    }

    #[test]
    fn prover_flags_borrowed_state_but_exempts_config() {
        let w = ws(&[(
            "crates/cluster/src/x.rs",
            r#"
            pub struct TorConfig { pub ports: u32 }
            pub struct Shared<'a> { pub cfg: &'a TorConfig, pub label: &'static str }
            pub struct SwitchConfig<'a> { pub peer: &'a str }
            impl Component for Shared { fn handle(&mut self) {} }
            impl Component for SwitchConfig { fn handle(&mut self) {} }
            "#,
        )]);
        let r = Resolver::new(&w);
        let out = prove_isolation(&w, &r);
        let borrowed: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "borrowed-state")
            .collect();
        // `Shared.cfg` flagged; `Shared.label` is `&'static` (immutable
        // forever — exempt); `SwitchConfig.peer` exempt by suffix.
        assert_eq!(borrowed.len(), 1, "{:#?}", out.findings);
        assert!(borrowed[0].message.contains("`cfg`"));
    }

    #[test]
    fn world_resources_are_roots_via_turbofish_and_insert() {
        let w = ws(&[
            (
                "crates/pcie/src/mem.rs",
                "pub struct PhysMemory { pages: Rc<u8> }",
            ),
            (
                "crates/pcie/src/fabric.rs",
                r#"
                fn setup(w: &mut World) {
                    w.insert(PhysMemory::new());
                }
                fn read(w: &World) {
                    let _ = w.expect::<PhysMemory>();
                }
                "#,
            ),
        ]);
        let r = Resolver::new(&w);
        let out = prove_isolation(&w, &r);
        assert!(
            out.findings.iter().any(|f| f.rule == "shared-mut-state"),
            "resource structs must be traversed: {:#?}",
            out.findings
        );
        let pcie = out.per_crate.iter().find(|c| c.0 == "pcie").unwrap();
        assert!(pcie.1.contains(&"PhysMemory".to_string()));
    }

    #[test]
    fn atomics_and_locks_are_flagged_enums_traversed() {
        let w = ws(&[(
            "crates/store/src/s.rs",
            r#"
            pub enum Slot { Busy(Holder), Idle }
            pub struct Holder { pub n: AtomicU64 }
            pub struct Cachey { pub slots: Vec<Slot>, pub lock: Mutex<u8> }
            impl Component for Cachey { fn handle(&mut self) {} }
            "#,
        )]);
        let r = Resolver::new(&w);
        let out = prove_isolation(&w, &r);
        let rules: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules.iter().filter(|r| **r == "shared-mut-state").count(),
            2,
            "{:#?}",
            out.findings
        );
    }

    #[test]
    fn unreachable_transient_structs_are_not_flagged() {
        // Ctx-style borrowed accessors are fine: nothing stores them.
        let w = ws(&[(
            "crates/sim/src/engine.rs",
            r#"
            pub struct Ctx<'a> { pub world: &'a mut u64 }
            pub struct World { pub seed: u64 }
            "#,
        )]);
        let r = Resolver::new(&w);
        let out = prove_isolation(&w, &r);
        assert!(out.findings.is_empty(), "{:#?}", out.findings);
        let sim = out.per_crate.iter().find(|c| c.0 == "sim").unwrap();
        assert_eq!(sim.2, 1, "only World is visited");
    }
}
