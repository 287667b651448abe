//! Item-level parser over the token stream.
//!
//! The lexer ([`crate::lexer`]) gives a flat token list; this module
//! recovers the *item structure* of a file — structs with their typed
//! fields, enums with variant payloads, impl blocks with their self
//! type and trait, consts/statics, `use` imports, inline modules — so
//! that the semantic rule families ([`crate::rules`]) and the
//! world-isolation prover ([`crate::resolve`]) can reason across files:
//! "what type is this field", "which structs implement `Component`",
//! "is this `static` mutable".
//!
//! It is a *recognizer*, not a full Rust parser: anything it does not
//! understand it skips token-by-token, so a file that rustc rejects
//! still yields the items that did parse. Nesting (inline `mod`s) is
//! flattened into one item list per file with `#[cfg(test)]`
//! inheritance, which is all the rules need.

use crate::lexer::{Lexed, Token, TokenKind};

/// The parsed item list of one file (inline modules flattened in).
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub items: Vec<Item>,
}

/// One top-level (or inline-module-level) item.
#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name (`""` where none applies, e.g. `impl` blocks).
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// True when the item (or an enclosing module) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// Token-index range `[start, end)` covering the whole item.
    pub span: (usize, usize),
}

/// What kind of item, with the structure the rules consume.
#[derive(Debug)]
pub enum ItemKind {
    Struct {
        fields: Vec<Field>,
        /// Tuple struct (`struct Gbps(f64);`) — fields are unnamed.
        tuple: bool,
    },
    Enum {
        variants: Vec<Variant>,
    },
    Fn,
    Trait,
    Impl {
        /// Head name of the self type (`Foo` in `impl Foo<T>`).
        self_ty: String,
        /// Head name of the implemented trait, if a trait impl.
        trait_name: Option<String>,
    },
    Const,
    Static {
        mutable: bool,
        /// Tokens of the static's declared type.
        ty: TypeTokens,
    },
    TypeAlias,
    Mod {
        inline: bool,
    },
    Use {
        /// The import path as written, `::`-joined (no brace groups).
        path: String,
        /// The names this import binds locally (rename-aware; `*` for
        /// glob imports).
        leaves: Vec<String>,
    },
    /// An item-position macro invocation (`thread_local! { … }`).
    MacroCall,
}

/// One struct field (or tuple/variant payload slot, with `name == ""`).
#[derive(Debug)]
pub struct Field {
    pub name: String,
    pub line: u32,
    pub ty: TypeTokens,
}

/// One enum variant with its payload fields.
#[derive(Debug)]
pub struct Variant {
    pub name: String,
    pub line: u32,
    pub fields: Vec<Field>,
}

/// The token slice of a type annotation, with the queries rules need.
#[derive(Debug, Clone, Default)]
pub struct TypeTokens(pub Vec<Token>);

impl TypeTokens {
    /// Every identifier in the type, outermost first (`BTreeMap<u64,
    /// Box<Frame>>` → `BTreeMap`, `u64`, `Box`, `Frame`).
    pub fn idents(&self) -> impl Iterator<Item = &str> {
        self.0.iter().filter_map(|t| t.ident())
    }

    /// True when the type is a borrowed reference (`&T`, `&mut T`).
    pub fn is_reference(&self) -> bool {
        self.0.first().is_some_and(|t| t.is_punct('&'))
    }

    /// True for a shared `&'static T` reference: the pointee lives (and
    /// stays immutable) for the whole program, so holding it in world
    /// state cannot fork a replay — interior mutability behind it is
    /// caught separately by the shared-mut ident check. `&'static mut`
    /// is NOT exempt.
    pub fn is_static_shared_ref(&self) -> bool {
        self.is_reference()
            && self.0.get(1).is_some_and(|t| t.is_ident("'static"))
            && !self.0.get(2).is_some_and(|t| t.is_ident("mut"))
    }

    /// True when the type contains a raw pointer (`*const T`/`*mut T`).
    pub fn has_raw_pointer(&self) -> bool {
        self.0
            .windows(2)
            .any(|w| w[0].is_punct('*') && (w[1].is_ident("const") || w[1].is_ident("mut")))
    }

    /// Number of type-erasure edges (`dyn Trait`) the prover cannot see
    /// through.
    pub fn opaque_edges(&self) -> usize {
        self.idents().filter(|i| *i == "dyn").count()
    }

    /// The type as a compact display string (for messages).
    pub fn display(&self) -> String {
        let mut out = String::new();
        for t in &self.0 {
            match &t.kind {
                TokenKind::Ident(s) => {
                    if out
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        out.push(' ');
                    }
                    out.push_str(s);
                }
                TokenKind::Punct(c) => out.push(*c),
                TokenKind::Literal(_) => out.push_str("\"…\""),
                TokenKind::Number => out.push('N'),
            }
        }
        out
    }
}

/// Parses the item structure out of a lexed file.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(&lexed.tokens, 0, lexed.tokens.len(), false, &mut out.items);
    out
}

/// Parses items in `tokens[start..end)` (a file body or an inline-mod
/// body), appending to `items`. `in_test` marks an enclosing
/// `#[cfg(test)]`.
fn parse_items(tokens: &[Token], start: usize, end: usize, in_test: bool, items: &mut Vec<Item>) {
    let mut i = start;
    while i < end {
        // Attributes: `#[...]` / `#![...]`; remember #[cfg(test)].
        let mut cfg_test = in_test;
        let item_start = i;
        while i < end && tokens[i].is_punct('#') {
            let mut j = i + 1;
            if j < end && tokens[j].is_punct('!') {
                j += 1;
            }
            if j >= end || !tokens[j].is_punct('[') {
                break;
            }
            let close = matching(tokens, j, '[', ']').unwrap_or(end);
            let attr = &tokens[j..close.min(end)];
            let is_cfg_test =
                attr.iter().any(|t| t.is_ident("cfg")) && attr.iter().any(|t| t.is_ident("test"));
            // A bare `#[test]` fn attribute also marks test code.
            let is_test_attr = attr.len() == 2 && attr[1].is_ident("test");
            if is_cfg_test || is_test_attr {
                cfg_test = true;
            }
            i = (close + 1).min(end);
        }
        if i >= end {
            break;
        }
        // Visibility and modifier prefixes.
        while i < end {
            let t = &tokens[i];
            if t.is_ident("pub") {
                i += 1;
                if i < end && tokens[i].is_punct('(') {
                    i = matching(tokens, i, '(', ')').map_or(end, |c| c + 1);
                }
            } else if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("default") {
                i += 1;
            } else {
                break;
            }
        }
        if i >= end {
            break;
        }
        let line = tokens[i].line;
        let kw = tokens[i].ident().unwrap_or("");
        match kw {
            "struct" => {
                let (item, next) = parse_struct(tokens, i, end, line, cfg_test, item_start);
                items.push(item);
                i = next;
            }
            "enum" => {
                let (item, next) = parse_enum(tokens, i, end, line, cfg_test, item_start);
                items.push(item);
                i = next;
            }
            "fn" => {
                let name = tokens.get(i + 1).and_then(|t| t.ident()).unwrap_or("");
                let next = skip_to_body_or_semi(tokens, i + 1, end);
                items.push(Item {
                    kind: ItemKind::Fn,
                    name: name.to_string(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "trait" => {
                let name = tokens.get(i + 1).and_then(|t| t.ident()).unwrap_or("");
                let next = skip_to_body_or_semi(tokens, i + 1, end);
                items.push(Item {
                    kind: ItemKind::Trait,
                    name: name.to_string(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "impl" => {
                let (item, next) = parse_impl(tokens, i, end, line, cfg_test, item_start);
                items.push(item);
                i = next;
            }
            "const" | "static" => {
                // `const fn` is a function, not a constant.
                if tokens.get(i + 1).is_some_and(|t| t.is_ident("fn")) {
                    i += 1;
                    continue;
                }
                let is_static = kw == "static";
                let mut j = i + 1;
                let mutable = is_static && tokens.get(j).is_some_and(|t| t.is_ident("mut"));
                if mutable {
                    j += 1;
                }
                let name = tokens.get(j).and_then(|t| t.ident()).unwrap_or("");
                // Type tokens: after `:` up to `=` or `;` at depth 0.
                let mut ty = TypeTokens::default();
                if tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    let ty_end = scan_type(tokens, j + 2, end, &['=', ';']);
                    ty = TypeTokens(tokens[j + 2..ty_end.min(end)].to_vec());
                }
                let next = skip_to_semi(tokens, i, end);
                items.push(Item {
                    kind: if is_static {
                        ItemKind::Static { mutable, ty }
                    } else {
                        ItemKind::Const
                    },
                    name: name.to_string(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "type" => {
                let name = tokens.get(i + 1).and_then(|t| t.ident()).unwrap_or("");
                let next = skip_to_semi(tokens, i, end);
                items.push(Item {
                    kind: ItemKind::TypeAlias,
                    name: name.to_string(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "mod" => {
                let name = tokens.get(i + 1).and_then(|t| t.ident()).unwrap_or("");
                let mut j = i + 2;
                let inline = j < end && tokens[j].is_punct('{');
                let next = if inline {
                    let close = matching(tokens, j, '{', '}').unwrap_or(end);
                    // Recurse: items of the inline module join the flat
                    // list, inheriting #[cfg(test)].
                    parse_items(tokens, j + 1, close, cfg_test, items);
                    (close + 1).min(end)
                } else {
                    while j < end && !tokens[j].is_punct(';') {
                        j += 1;
                    }
                    (j + 1).min(end)
                };
                items.push(Item {
                    kind: ItemKind::Mod { inline },
                    name: name.to_string(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "use" => {
                let next = skip_to_semi(tokens, i, end);
                let (path, leaves) = parse_use(&tokens[i + 1..next.saturating_sub(1).max(i + 1)]);
                items.push(Item {
                    kind: ItemKind::Use { path, leaves },
                    name: String::new(),
                    line,
                    cfg_test,
                    span: (item_start, next),
                });
                i = next;
            }
            "extern" => {
                i = skip_to_body_or_semi(tokens, i, end);
            }
            _ => {
                // Item-position macro call: `name ! ( … );` / `name ! { … }`.
                if !kw.is_empty() && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                    let next = skip_macro_call(tokens, i + 2, end);
                    items.push(Item {
                        kind: ItemKind::MacroCall,
                        name: kw.to_string(),
                        line,
                        cfg_test,
                        span: (item_start, next),
                    });
                    i = next;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Index just past the `)`/`]`/`}` matching the opener at `open`.
fn matching(tokens: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Skips past a `;` at brace/paren/bracket depth 0, or past a matched
/// `{ … }` body — whichever comes first. Returns the index just after.
fn skip_to_body_or_semi(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut i = from;
    let (mut paren, mut bracket) = (0i64, 0i64);
    while i < end {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return i + 1;
            }
            if t.is_punct('{') {
                return matching(tokens, i, '{', '}').map_or(end, |c| (c + 1).min(end));
            }
        }
        i += 1;
    }
    end
}

/// Skips past the next `;` at all-brackets depth 0 (bodies of const
/// initializers may contain braces).
fn skip_to_semi(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut i = from;
    let (mut paren, mut bracket, mut brace) = (0i64, 0i64, 0i64);
    while i < end {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if t.is_punct(';') && paren == 0 && bracket == 0 && brace == 0 {
            return i + 1;
        }
        i += 1;
    }
    end
}

/// Skips an item-macro body starting at the delimiter after `name !`.
fn skip_macro_call(tokens: &[Token], from: usize, end: usize) -> usize {
    let Some(t) = tokens.get(from).filter(|_| from < end) else {
        return end;
    };
    if t.is_punct('{') {
        return matching(tokens, from, '{', '}').map_or(end, |c| (c + 1).min(end));
    }
    let close = if t.is_punct('(') {
        matching(tokens, from, '(', ')')
    } else if t.is_punct('[') {
        matching(tokens, from, '[', ']')
    } else {
        None
    };
    match close {
        Some(c) => {
            let mut i = (c + 1).min(end);
            if i < end && tokens[i].is_punct(';') {
                i += 1;
            }
            i
        }
        None => (from + 1).min(end),
    }
}

/// Skips a balanced `< … >` generics list starting at `from` (which
/// must be `<`), returning the index just past the closing `>`.
fn skip_generics(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut i = from;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` inside `Fn(..) -> T` bounds does not close a list.
            let arrow = i >= 1 && tokens[i - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    end
}

/// Scans a type annotation starting at `from`; stops at the first of
/// `stops` at angle/paren/bracket depth 0 (or `}`/`,` likewise).
/// Returns the index of the stopping token.
fn scan_type(tokens: &[Token], from: usize, end: usize, stops: &[char]) -> usize {
    let (mut angle, mut paren, mut bracket) = (0i64, 0i64, 0i64);
    let mut i = from;
    while i < end {
        let t = &tokens[i];
        if let TokenKind::Punct(c) = t.kind {
            match c {
                '<' => angle += 1,
                '>' => {
                    let arrow = i >= 1 && tokens[i - 1].is_punct('-');
                    if !arrow {
                        angle -= 1;
                        if angle < 0 {
                            return i;
                        }
                    }
                }
                '(' => paren += 1,
                ')' => {
                    paren -= 1;
                    if paren < 0 {
                        return i;
                    }
                }
                '[' => bracket += 1,
                ']' => bracket -= 1,
                '{' | '}' if angle == 0 && paren == 0 && bracket == 0 => {
                    return i;
                }
                _ if angle == 0 && paren == 0 && bracket == 0 && stops.contains(&c) => {
                    return i;
                }
                _ => {}
            }
        }
        i += 1;
    }
    end
}

fn parse_struct(
    tokens: &[Token],
    kw: usize,
    end: usize,
    line: u32,
    cfg_test: bool,
    item_start: usize,
) -> (Item, usize) {
    let name = tokens.get(kw + 1).and_then(|t| t.ident()).unwrap_or("");
    let mut i = kw + 2;
    if i < end && tokens[i].is_punct('<') {
        i = skip_generics(tokens, i, end);
    }
    // `where` clause before the body.
    while i < end
        && !tokens[i].is_punct('{')
        && !tokens[i].is_punct('(')
        && !tokens[i].is_punct(';')
    {
        i += 1;
    }
    let (fields, tuple, next) = if i < end && tokens[i].is_punct('{') {
        let close = matching(tokens, i, '{', '}').unwrap_or(end);
        (
            parse_named_fields(tokens, i + 1, close),
            false,
            (close + 1).min(end),
        )
    } else if i < end && tokens[i].is_punct('(') {
        let close = matching(tokens, i, '(', ')').unwrap_or(end);
        let fields = parse_tuple_fields(tokens, i + 1, close);
        let mut next = (close + 1).min(end);
        if next < end && tokens[next].is_punct(';') {
            next += 1;
        }
        (fields, true, next)
    } else {
        // Unit struct `struct X;`.
        (Vec::new(), false, (i + 1).min(end))
    };
    (
        Item {
            kind: ItemKind::Struct { fields, tuple },
            name: name.to_string(),
            line,
            cfg_test,
            span: (item_start, next),
        },
        next,
    )
}

/// Parses `name: Type, …` field lists in `tokens[from..to)`.
fn parse_named_fields(tokens: &[Token], from: usize, to: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = from;
    while i < to {
        // Field attributes and visibility.
        while i < to && tokens[i].is_punct('#') {
            if tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                i = matching(tokens, i + 1, '[', ']').map_or(to, |c| (c + 1).min(to));
            } else {
                i += 1;
            }
        }
        if i < to && tokens[i].is_ident("pub") {
            i += 1;
            if i < to && tokens[i].is_punct('(') {
                i = matching(tokens, i, '(', ')').map_or(to, |c| (c + 1).min(to));
            }
        }
        let Some(name) = tokens.get(i).filter(|_| i < to).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        let ty_end = scan_type(tokens, i + 2, to, &[',']);
        fields.push(Field {
            name: name.to_string(),
            line,
            ty: TypeTokens(tokens[i + 2..ty_end.min(to)].to_vec()),
        });
        i = (ty_end + 1).min(to);
    }
    fields
}

/// Parses the unnamed `Type, …` list of a tuple struct or variant.
fn parse_tuple_fields(tokens: &[Token], from: usize, to: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = from;
    while i < to {
        while i < to && tokens[i].is_ident("pub") {
            i += 1;
            if i < to && tokens[i].is_punct('(') {
                i = matching(tokens, i, '(', ')').map_or(to, |c| (c + 1).min(to));
            }
        }
        if i >= to {
            break;
        }
        let line = tokens[i].line;
        let ty_end = scan_type(tokens, i, to, &[',']);
        if ty_end > i {
            fields.push(Field {
                name: String::new(),
                line,
                ty: TypeTokens(tokens[i..ty_end.min(to)].to_vec()),
            });
        }
        i = (ty_end + 1).min(to);
    }
    fields
}

fn parse_enum(
    tokens: &[Token],
    kw: usize,
    end: usize,
    line: u32,
    cfg_test: bool,
    item_start: usize,
) -> (Item, usize) {
    let name = tokens.get(kw + 1).and_then(|t| t.ident()).unwrap_or("");
    let mut i = kw + 2;
    if i < end && tokens[i].is_punct('<') {
        i = skip_generics(tokens, i, end);
    }
    while i < end && !tokens[i].is_punct('{') && !tokens[i].is_punct(';') {
        i += 1;
    }
    let mut variants = Vec::new();
    let next = if i < end && tokens[i].is_punct('{') {
        let close = matching(tokens, i, '{', '}').unwrap_or(end);
        let mut j = i + 1;
        while j < close {
            // Variant attributes.
            while j < close && tokens[j].is_punct('#') {
                if tokens.get(j + 1).is_some_and(|t| t.is_punct('[')) {
                    j = matching(tokens, j + 1, '[', ']').map_or(close, |c| (c + 1).min(close));
                } else {
                    j += 1;
                }
            }
            let Some(vname) = tokens.get(j).filter(|_| j < close).and_then(|t| t.ident()) else {
                j += 1;
                continue;
            };
            let vline = tokens[j].line;
            let mut fields = Vec::new();
            j += 1;
            if j < close && tokens[j].is_punct('(') {
                let vclose = matching(tokens, j, '(', ')').unwrap_or(close);
                fields = parse_tuple_fields(tokens, j + 1, vclose.min(close));
                j = (vclose + 1).min(close);
            } else if j < close && tokens[j].is_punct('{') {
                let vclose = matching(tokens, j, '{', '}').unwrap_or(close);
                fields = parse_named_fields(tokens, j + 1, vclose.min(close));
                j = (vclose + 1).min(close);
            } else if j < close && tokens[j].is_punct('=') {
                // Discriminant: skip to the separating comma.
                while j < close && !tokens[j].is_punct(',') {
                    j += 1;
                }
            }
            variants.push(Variant {
                name: vname.to_string(),
                line: vline,
                fields,
            });
            // Skip the separating comma.
            if j < close && tokens[j].is_punct(',') {
                j += 1;
            }
        }
        (close + 1).min(end)
    } else {
        (i + 1).min(end)
    };
    (
        Item {
            kind: ItemKind::Enum { variants },
            name: name.to_string(),
            line,
            cfg_test,
            span: (item_start, next),
        },
        next,
    )
}

fn parse_impl(
    tokens: &[Token],
    kw: usize,
    end: usize,
    line: u32,
    cfg_test: bool,
    item_start: usize,
) -> (Item, usize) {
    let mut i = kw + 1;
    if i < end && tokens[i].is_punct('<') {
        i = skip_generics(tokens, i, end);
    }
    // First path: either the self type or the trait (if `for` follows).
    let first_end = scan_impl_path(tokens, i, end);
    let first = head_name(&tokens[i..first_end.min(end)]);
    let (self_ty, trait_name, mut j) = if first_end < end && tokens[first_end].is_ident("for") {
        let second_end = scan_impl_path(tokens, first_end + 1, end);
        (
            head_name(&tokens[first_end + 1..second_end.min(end)]),
            Some(first),
            second_end,
        )
    } else {
        (first, None, first_end)
    };
    // `where` clause, then the body.
    while j < end && !tokens[j].is_punct('{') {
        j += 1;
    }
    let next = if j < end {
        matching(tokens, j, '{', '}').map_or(end, |c| (c + 1).min(end))
    } else {
        end
    };
    (
        Item {
            kind: ItemKind::Impl {
                self_ty,
                trait_name: trait_name.filter(|t| !t.is_empty()),
            },
            name: String::new(),
            line,
            cfg_test,
            span: (item_start, next),
        },
        next,
    )
}

/// Scans an impl-header path (`core::Foo<Bar>`) starting at `from`;
/// stops before `for`, `where`, or `{` at angle depth 0.
fn scan_impl_path(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut angle = 0i64;
    let mut i = from;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if !(i >= 1 && tokens[i - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if angle == 0 && (t.is_ident("for") || t.is_ident("where") || t.is_punct('{')) {
            return i;
        }
        i += 1;
    }
    end
}

/// The head type name of a path slice: the last identifier at angle
/// depth 0 (`core::Foo<Bar>` → `Foo`; `&mut Foo` → `Foo`).
fn head_name(tokens: &[Token]) -> String {
    let mut angle = 0i64;
    let mut name = "";
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if !(i >= 1 && tokens[i - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if angle == 0 {
            if let Some(id) = t.ident() {
                if id != "dyn" && id != "mut" && id != "const" {
                    name = id;
                }
            }
        }
    }
    name.to_string()
}

/// Parses the token slice of a `use` path (between `use` and `;`) into
/// a display path and the locally bound leaf names.
fn parse_use(tokens: &[Token]) -> (String, Vec<String>) {
    let mut path = String::new();
    for t in tokens {
        match &t.kind {
            TokenKind::Ident(s) => {
                if path
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    path.push(' ');
                }
                path.push_str(s);
            }
            TokenKind::Punct(c) => path.push(*c),
            _ => {}
        }
    }
    // Leaves: every ident that is not followed by `::`, honoring
    // `as rename` (the rename wins) and `*` globs.
    let mut leaves = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('*') {
            leaves.push("*".to_string());
            i += 1;
            continue;
        }
        let Some(id) = t.ident() else {
            i += 1;
            continue;
        };
        if id == "as" {
            i += 1;
            continue;
        }
        let followed_by_path = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'));
        let renamed = tokens.get(i + 1).is_some_and(|t| t.is_ident("as"));
        if renamed {
            if let Some(rename) = tokens.get(i + 2).and_then(|t| t.ident()) {
                leaves.push(rename.to_string());
            }
            i += 3;
            continue;
        }
        if !followed_by_path {
            leaves.push(id.to_string());
        }
        i += 1;
    }
    (path, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    fn find<'a>(p: &'a ParsedFile, name: &str) -> &'a Item {
        p.items
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no item `{name}` in {:#?}", p.items))
    }

    #[test]
    fn parses_struct_fields_with_types() {
        let p = items(
            r#"
            pub struct Node {
                pub id: u32,
                queue: BTreeMap<u64, Box<Frame>>,
                #[allow(dead_code)]
                scratch: Vec<(SimTime, u8)>,
            }
            "#,
        );
        let ItemKind::Struct { fields, tuple } = &find(&p, "Node").kind else {
            panic!()
        };
        assert!(!tuple);
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["id", "queue", "scratch"]);
        let q: Vec<&str> = fields[1].ty.idents().collect();
        assert_eq!(q, vec!["BTreeMap", "u64", "Box", "Frame"]);
    }

    #[test]
    fn parses_tuple_and_unit_structs() {
        let p = items("pub struct Gbps(pub f64); struct Marker; struct After { x: u8 }");
        let ItemKind::Struct { fields, tuple } = &find(&p, "Gbps").kind else {
            panic!()
        };
        assert!(tuple);
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].ty.idents().collect::<Vec<_>>(), vec!["f64"]);
        assert!(matches!(
            find(&p, "Marker").kind,
            ItemKind::Struct { ref fields, .. } if fields.is_empty()
        ));
        // Resynchronized on the item after the unit struct.
        assert!(matches!(find(&p, "After").kind, ItemKind::Struct { .. }));
    }

    #[test]
    fn parses_enum_variants_with_payloads() {
        let p = items(
            r#"
            pub enum NodeFault {
                Crash { at_ns: u64, restart_at_ns: Option<u64> },
                Hang(u64),
                None,
            }
            "#,
        );
        let ItemKind::Enum { variants } = &find(&p, "NodeFault").kind else {
            panic!()
        };
        assert_eq!(variants.len(), 3);
        assert_eq!(variants[0].fields.len(), 2);
        assert_eq!(variants[0].fields[1].name, "restart_at_ns");
        assert_eq!(variants[1].fields.len(), 1);
        assert!(variants[2].fields.is_empty());
    }

    #[test]
    fn parses_impls_with_and_without_traits() {
        let p = items(
            r#"
            impl Component for FakeNic { fn handle(&mut self) {} }
            impl<'a> Ctx<'a> { fn now(&self) -> u64 { 0 } }
            impl core::fmt::Display for Gbps {}
            "#,
        );
        let impls: Vec<(&str, Option<&str>)> = p
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Impl {
                    self_ty,
                    trait_name,
                } => Some((self_ty.as_str(), trait_name.as_deref())),
                _ => None,
            })
            .collect();
        assert_eq!(
            impls,
            vec![
                ("FakeNic", Some("Component")),
                ("Ctx", None),
                ("Gbps", Some("Display")),
            ]
        );
    }

    #[test]
    fn statics_consts_and_macros() {
        let p = items(
            r#"
            static mut COUNTER: u64 = 0;
            static OK: u64 = 0;
            pub const WIRE_DROP: &str = "wire.drop";
            thread_local! { static TLS: u32 = 0; }
            "#,
        );
        assert!(matches!(
            find(&p, "COUNTER").kind,
            ItemKind::Static { mutable: true, .. }
        ));
        assert!(matches!(
            find(&p, "OK").kind,
            ItemKind::Static { mutable: false, .. }
        ));
        assert!(matches!(find(&p, "WIRE_DROP").kind, ItemKind::Const));
        assert!(matches!(find(&p, "thread_local").kind, ItemKind::MacroCall));
    }

    #[test]
    fn use_leaves_honor_groups_renames_and_globs() {
        let p = items(
            r#"
            use dcs_sim::{Simulator, World};
            use std::collections::BTreeMap as Map;
            use crate::rules::*;
            "#,
        );
        let leaves: Vec<Vec<String>> = p
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use { leaves, .. } => Some(leaves.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(leaves[0], vec!["Simulator", "World"]);
        assert_eq!(leaves[1], vec!["Map"]);
        assert_eq!(leaves[2], vec!["*"]);
    }

    #[test]
    fn cfg_test_marks_items_and_inherits_into_mods() {
        let p = items(
            r#"
            struct Live { x: u8 }
            #[cfg(test)]
            mod tests {
                struct Fixture { y: u8 }
                fn helper() {}
            }
            #[test]
            fn t() {}
            "#,
        );
        assert!(!find(&p, "Live").cfg_test);
        assert!(find(&p, "Fixture").cfg_test);
        assert!(find(&p, "helper").cfg_test);
        assert!(find(&p, "t").cfg_test);
    }

    #[test]
    fn reference_and_raw_pointer_types_are_detected() {
        let p = items(
            r#"
            struct Bad<'a> {
                peer: &'a mut Node,
                raw: *mut u8,
                cb: Box<dyn Fn(u64) -> u64>,
            }
            "#,
        );
        let ItemKind::Struct { fields, .. } = &find(&p, "Bad").kind else {
            panic!()
        };
        assert!(fields[0].ty.is_reference());
        assert!(fields[1].ty.has_raw_pointer());
        assert_eq!(fields[2].ty.opaque_edges(), 1);
        assert!(!fields[2].ty.is_reference());
    }

    #[test]
    fn fn_return_types_with_arrows_do_not_derail_generics() {
        let p = items("struct S { f: Box<dyn Fn(u64) -> u64>, g: u8 } struct T { x: u8 }");
        let ItemKind::Struct { fields, .. } = &find(&p, "S").kind else {
            panic!()
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].name, "g");
        assert!(matches!(find(&p, "T").kind, ItemKind::Struct { .. }));
    }
}
