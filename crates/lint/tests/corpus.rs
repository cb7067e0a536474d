//! Self-tests of the analysis pipeline against the real workspace: the
//! symbol table must see every `fn` the lexer sees, and the `lint-root:`
//! annotations must cover exactly the functions the dynamic allocation gate
//! (`tests/alloc_gate.rs`) asserts — so the static rules and the runtime
//! measurement guard the same surface.

use puffer_lint::symbols::SymbolTable;
use puffer_lint::tokens::Kind;
use puffer_lint::Corpus;

/// Every `fn <ident>` token pair in the scanned workspace must produce a
/// symbol at that exact file and line.  A gap here means the scope walker
/// skipped a declaration shape, and with it every call edge into that fn.
#[test]
fn symbol_table_covers_every_fn_token() {
    let corpus = Corpus::load(&puffer_lint::workspace_root());
    let symbols = SymbolTable::build(&corpus);
    let mut checked = 0usize;
    for (file_idx, file) in corpus.files.iter().enumerate() {
        for pair in file.tokens.windows(2) {
            let (kw, name) = (&pair[0], &pair[1]);
            if kw.text != "fn" || name.kind != Kind::Ident {
                continue;
            }
            checked += 1;
            assert!(
                symbols
                    .fns
                    .iter()
                    .any(|f| f.file == file_idx && f.name == name.text && f.decl_line == kw.line),
                "no symbol for `fn {}` at {}:{}",
                name.text,
                file.relpath,
                kw.line + 1
            );
        }
    }
    assert!(checked > 100, "workspace scan saw only {checked} fn declarations");
}

/// The functions `tests/alloc_gate.rs` asserts allocation-free in steady
/// state, by (self type, name).  Update alongside the gate.
const GATED: &[(Option<&str>, &str)] = &[
    (Some("StochasticMpc"), "plan_with"),
    (Some("Mpc"), "plan_with"),
    (Some("Ttp"), "predict_time_distributions_batched_into"),
    (Some("ArchiveWriter"), "push"),
    (Some("ArchiveReader"), "next_block"),
    (Some("Matrix"), "matmul_into_with"),
    (None, "train_one_net"),
];

#[test]
fn root_annotations_cover_every_alloc_gate_function() {
    let corpus = Corpus::load(&puffer_lint::workspace_root());
    let symbols = SymbolTable::build(&corpus);
    for &(self_type, name) in GATED {
        assert!(
            symbols
                .fns
                .iter()
                .any(|f| f.name == name && f.self_type.as_deref() == self_type && f.alloc_root),
            "`{}{name}` is asserted by tests/alloc_gate.rs but has no \
             `lint-root: alloc-free` annotation",
            self_type.map(|t| format!("{t}::")).unwrap_or_default(),
        );
    }
}
