//! Offline stand-in for `serde_derive`.
//!
//! The build container has no crates.io access (so no `syn`/`quote` either);
//! this macro parses the item declaration directly from the
//! [`proc_macro::TokenStream`] and emits impls against the shim `serde`'s
//! JSON-shaped `Content` data model:
//!
//! * `Serialize` — `write_json` appends the item's JSON text straight to a
//!   buffer (the path `serde_json::to_string` takes), and `serialize`
//!   builds a `serde::__private::Content` tree and hands it to the
//!   serializer's `serialize_content` (the reference the direct writer is
//!   tested against);
//! * `Deserialize` — implements `serde::__private::FromContent` (the
//!   workhorse used for nested fields) plus a bridging `Deserialize` impl.
//!
//! Supported shapes are exactly what this workspace derives on: structs with
//! named fields, newtype/tuple structs, unit/newtype/tuple/struct-variant
//! enums (externally tagged), `#[serde(with = "path")]` on named fields, and
//! `#[serde(untagged)]` on all-newtype enums (Deserialize only). Const
//! generics are carried through; anything unsupported fails with a
//! `compile_error!` naming the construct.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Parsed shape of the deriving item.

struct Input {
    name: String,
    /// Generic parameter list verbatim (without the angle brackets), e.g.
    /// `const M : u64`. Empty when the item is not generic.
    generic_params: String,
    /// Matching argument list, e.g. `M`.
    generic_args: String,
    kind: Kind,
    untagged: bool,
}

enum Kind {
    /// Struct with named fields.
    Struct(Vec<Field>),
    /// Tuple struct with the given arity.
    Tuple(usize),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// Module path from `#[serde(with = "path")]`, if present.
    with: Option<String>,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

// ---------------------------------------------------------------------------
// Token utilities.

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_of(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// Splits a token slice on commas that sit outside nested `<...>` pairs.
/// Commas inside parenthesised/bracketed groups never show up because a
/// group is a single `TokenTree`.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0i32;
    for t in tokens {
        if is_punct(t, '<') {
            angle_depth += 1;
        } else if is_punct(t, '>') {
            angle_depth -= 1;
        } else if is_punct(t, ',') && angle_depth == 0 {
            out.push(std::mem::take(&mut current));
            continue;
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Extracts `with = "path"` / `untagged` from a `#[serde(...)]` attribute
/// body; returns `(with, untagged)`.
fn parse_serde_attr(group: &proc_macro::Group) -> (Option<String>, bool) {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.first().and_then(ident_of).as_deref() != Some("serde") {
        return (None, false);
    }
    let Some(TokenTree::Group(inner)) = tokens.get(1) else {
        return (None, false);
    };
    let inner: Vec<TokenTree> = inner.stream().into_iter().collect();
    let mut with = None;
    let mut untagged = false;
    let mut i = 0;
    while i < inner.len() {
        match ident_of(&inner[i]).as_deref() {
            Some("untagged") => untagged = true,
            Some("with") if i + 2 < inner.len() && is_punct(&inner[i + 1], '=') => {
                if let TokenTree::Literal(lit) = &inner[i + 2] {
                    let s = lit.to_string();
                    with = Some(s.trim_matches('"').to_string());
                    i += 2;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (with, untagged)
}

/// Parses the fields of a named-fields brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    for segment in split_top_level_commas(&tokens) {
        let mut with = None;
        let mut i = 0;
        // Attributes.
        while i + 1 < segment.len() && is_punct(&segment[i], '#') {
            if let TokenTree::Group(g) = &segment[i + 1] {
                if let (Some(w), _) = parse_serde_attr(g) {
                    with = Some(w);
                }
            }
            i += 2;
        }
        // Visibility.
        if segment.get(i).and_then(ident_of).as_deref() == Some("pub") {
            i += 1;
            if matches!(segment.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
                i += 1;
            }
        }
        let name = segment.get(i).and_then(ident_of).ok_or_else(|| "expected field name".to_string())?;
        fields.push(Field { name, with });
    }
    Ok(fields)
}

/// Arity of a tuple struct/variant paren group.
fn tuple_arity(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    split_top_level_commas(&tokens).len()
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    for segment in split_top_level_commas(&tokens) {
        let mut i = 0;
        while i + 1 < segment.len() && is_punct(&segment[i], '#') {
            i += 2; // skip attributes (doc comments)
        }
        let name = segment.get(i).and_then(ident_of).ok_or_else(|| "expected variant name".to_string())?;
        i += 1;
        let shape = match segment.get(i) {
            None => Shape::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Shape::Tuple(tuple_arity(g)),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Struct(parse_named_fields(g)?),
            Some(t) if is_punct(t, '=') => return Err(format!("discriminant on variant {name} is not supported")),
            Some(other) => return Err(format!("unexpected token {other} after variant {name}")),
        };
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// Parses `<...>` generics starting at `tokens[i]` (which must be `<`);
/// returns (params, args, index-after-`>`).
fn parse_generics(tokens: &[TokenTree], start: usize) -> Result<(String, String, usize), String> {
    let mut depth = 0i32;
    let mut i = start;
    let mut inner: Vec<TokenTree> = Vec::new();
    loop {
        let t = tokens.get(i).ok_or_else(|| "unterminated generics".to_string())?;
        if is_punct(t, '<') {
            depth += 1;
            if depth > 1 {
                inner.push(t.clone());
            }
        } else if is_punct(t, '>') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
            inner.push(t.clone());
        } else {
            inner.push(t.clone());
        }
        i += 1;
    }
    let params = inner.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ");
    let mut args = Vec::new();
    for segment in split_top_level_commas(&inner) {
        let arg = match segment.first() {
            Some(t) if is_punct(t, '\'') => {
                let life = segment.get(1).and_then(ident_of).ok_or("bad lifetime param")?;
                format!("'{life}")
            }
            Some(t) if ident_of(t).as_deref() == Some("const") => segment.get(1).and_then(ident_of).ok_or("bad const param")?,
            Some(t) => ident_of(t).ok_or_else(|| format!("unsupported generic param starting at {t}"))?,
            None => continue,
        };
        args.push(arg);
    }
    Ok((params, args.join(", "), i))
}

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut untagged = false;
    let mut i = 0;
    let is_enum = loop {
        match tokens.get(i) {
            None => return Err("no struct or enum found".into()),
            Some(t) if is_punct(t, '#') => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    let (_, u) = parse_serde_attr(g);
                    untagged |= u;
                }
                i += 2;
            }
            Some(t) => match ident_of(t).as_deref() {
                Some("struct") => break false,
                Some("enum") => break true,
                _ => i += 1, // visibility and such
            },
        }
    };
    i += 1;
    let name = tokens.get(i).and_then(ident_of).ok_or_else(|| "expected item name".to_string())?;
    i += 1;
    let (generic_params, generic_args) = if matches!(tokens.get(i), Some(t) if is_punct(t, '<')) {
        let (p, a, next) = parse_generics(&tokens, i)?;
        i = next;
        (p, a)
    } else {
        (String::new(), String::new())
    };
    // Skip a `where` clause if one ever appears.
    if tokens.get(i).and_then(ident_of).as_deref() == Some("where") {
        return Err("where clauses are not supported".into());
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Kind::Enum(parse_variants(g)?)
            } else {
                Kind::Struct(parse_named_fields(g)?)
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => Kind::Tuple(tuple_arity(g)),
        other => return Err(format!("unsupported item body: {other:?}")),
    };
    Ok(Input { name, generic_params, generic_args, kind, untagged })
}

// ---------------------------------------------------------------------------
// Code generation.

impl Input {
    /// `impl <params> Trait for Name<args>` header fragments; `extra` adds
    /// parameters (the `'de` of Deserialize).
    fn impl_header(&self, extra: &str) -> (String, String) {
        let params = match (extra.is_empty(), self.generic_params.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("<{}>", self.generic_params),
            (false, true) => format!("<{extra}>"),
            (false, false) => format!("<{extra}, {}>", self.generic_params),
        };
        let target = if self.generic_args.is_empty() {
            self.name.clone()
        } else {
            format!("{}<{}>", self.name, self.generic_args)
        };
        (params, target)
    }
}

const MAP_ERR_SER: &str = ".map_err(|e| <__S::Error as serde::ser::Error>::custom(e))?";

/// Expression producing the `Content` for one field value expression.
fn field_to_content(value_expr: &str, with: &Option<String>, map_err: &str) -> String {
    match with {
        Some(path) => format!("{path}::serialize({value_expr}, serde::__private::ContentSerializer){map_err}"),
        None => format!("serde::__private::to_content({value_expr}){map_err}"),
    }
}

/// Expression building a `Content::Map` from named fields; `accessor` maps a
/// field name to the value expression (e.g. `&self.name` or `name`).
fn named_fields_content(fields: &[Field], accessor: impl Fn(&str) -> String, map_err: &str) -> String {
    let mut pushes = String::new();
    for f in fields {
        let value = field_to_content(&accessor(&f.name), &f.with, map_err);
        pushes.push_str(&format!("__fields.push((::std::string::String::from(\"{}\"), {value}));\n", f.name));
    }
    format!(
        "{{ let mut __fields: ::std::vec::Vec<(::std::string::String, serde::__private::Content)> = ::std::vec::Vec::new();\n\
         {pushes} serde::__private::Content::Map(__fields) }}"
    )
}

/// Builds the body of a derived `write_json`: literal JSON text is
/// coalesced into one `push_str` per run, values write themselves.
#[derive(Default)]
struct JsonCode {
    code: String,
    text: String,
}

impl JsonCode {
    fn text(&mut self, json: &str) {
        self.text.push_str(json);
    }

    /// A JSON object key with its colon (field and variant names are Rust
    /// identifiers, so they need no escaping).
    fn key(&mut self, name: &str) {
        self.text.push_str(&format!("\"{name}\":"));
    }

    fn flush(&mut self) {
        if !self.text.is_empty() {
            self.code.push_str(&format!("__out.push_str({:?});\n", self.text));
            self.text.clear();
        }
    }

    /// Writes the value of `expr` (a reference), through the field's
    /// `with` codec when it has one.
    fn value(&mut self, expr: &str, with: &Option<String>) {
        self.flush();
        self.code.push_str(&match with {
            Some(path) => format!("{path}::serialize({expr}, serde::__private::JsonSerializer(__out))?;\n"),
            None => format!("serde::Serialize::write_json({expr}, __out)?;\n"),
        });
    }

    /// `{"a":…,"b":…}` over named fields; `accessor` maps a field name to
    /// its value expression.
    fn object(&mut self, fields: &[Field], accessor: impl Fn(&str) -> String) {
        self.text("{");
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.key(&f.name);
            self.value(&accessor(&f.name), &f.with);
        }
        self.text("}");
    }

    /// `[…,…]` over value expressions.
    fn array(&mut self, exprs: &[String]) {
        self.text("[");
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.value(e, &None);
        }
        self.text("]");
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

/// Body of the derived `write_json`: the same JSON the content tree
/// renders to, written without building the tree.
fn write_json_body(input: &Input) -> String {
    let mut w = JsonCode::default();
    match &input.kind {
        Kind::Struct(fields) => w.object(fields, |n| format!("&self.{n}")),
        Kind::Tuple(1) => w.value("&self.0", &None),
        Kind::Tuple(n) => w.array(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>()),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let (name, vname) = (&input.name, &v.name);
                let mut arm = JsonCode::default();
                let pattern = match &v.shape {
                    Shape::Unit => {
                        arm.text(&format!("\"{vname}\""));
                        format!("{name}::{vname}")
                    }
                    Shape::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        arm.text("{");
                        arm.key(vname);
                        if *n == 1 {
                            arm.value("__f0", &None);
                        } else {
                            arm.array(&binders);
                        }
                        arm.text("}");
                        format!("{name}::{vname}({})", binders.join(", "))
                    }
                    Shape::Struct(fields) => {
                        arm.text("{");
                        arm.key(vname);
                        arm.object(fields, |n| n.to_string());
                        arm.text("}");
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!("{name}::{vname} {{ {} }}", binders.join(", "))
                    }
                };
                arms.push_str(&format!("{pattern} => {{\n{}}}\n", arm.finish()));
            }
            return format!("match self {{\n{arms}}}\n::core::result::Result::Ok(())");
        }
    }
    format!("{}::core::result::Result::Ok(())", w.finish())
}

fn gen_serialize(input: &Input) -> Result<String, String> {
    if input.untagged {
        return Err("#[serde(untagged)] Serialize is not supported by the shim derive".into());
    }
    let (params, target) = input.impl_header("");
    let body = match &input.kind {
        Kind::Struct(fields) => {
            let content = named_fields_content(fields, |n| format!("&self.{n}"), MAP_ERR_SER);
            format!("__s.serialize_content({content})")
        }
        Kind::Tuple(1) => format!("__s.serialize_content(serde::__private::to_content(&self.0){MAP_ERR_SER})"),
        Kind::Tuple(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("serde::__private::to_content(&self.{i}){MAP_ERR_SER}")).collect();
            format!("__s.serialize_content(serde::__private::Content::Seq(::std::vec![{}]))", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let name = &input.name;
                let vname = &v.name;
                let arm = match &v.shape {
                    Shape::Unit => format!(
                        "{name}::{vname} => __s.serialize_content(serde::__private::Content::Str(::std::string::String::from(\"{vname}\"))),\n"
                    ),
                    Shape::Tuple(1) => format!(
                        "{name}::{vname}(__f0) => __s.serialize_content(serde::__private::Content::Map(::std::vec![\
                         (::std::string::String::from(\"{vname}\"), serde::__private::to_content(__f0){MAP_ERR_SER})])),\n"
                    ),
                    Shape::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> =
                            binders.iter().map(|b| format!("serde::__private::to_content({b}){MAP_ERR_SER}")).collect();
                        format!(
                            "{name}::{vname}({}) => __s.serialize_content(serde::__private::Content::Map(::std::vec![\
                             (::std::string::String::from(\"{vname}\"), serde::__private::Content::Seq(::std::vec![{}]))])),\n",
                            binders.join(", "),
                            items.join(", ")
                        )
                    }
                    Shape::Struct(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let inner = named_fields_content(fields, |n| n.to_string(), MAP_ERR_SER);
                        format!(
                            "{name}::{vname} {{ {} }} => __s.serialize_content(serde::__private::Content::Map(::std::vec![\
                             (::std::string::String::from(\"{vname}\"), {inner})])),\n",
                            binders.join(", ")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let write_json = write_json_body(input);
    Ok(format!(
        "#[automatically_derived]\n\
         impl {params} serde::Serialize for {target} {{\n\
             fn serialize<__S: serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
                 {body}\n\
             }}\n\
             fn write_json(&self, __out: &mut ::std::string::String) -> ::core::result::Result<(), serde::__private::ContentError> {{\n\
                 {write_json}\n\
             }}\n\
         }}\n"
    ))
}

/// Expression deserializing one named field out of `__m`.
fn field_from_content(field: &Field) -> String {
    match &field.with {
        Some(path) => format!(
            "{path}::deserialize(serde::__private::ContentDeserializer::new(serde::__private::field_content(__m, \"{}\")?.clone()))?",
            field.name
        ),
        None => format!("serde::__private::field(__m, \"{}\")?", field.name),
    }
}

fn named_struct_expr(type_path: &str, fields: &[Field]) -> String {
    let inits: Vec<String> = fields.iter().map(|f| format!("{}: {}", f.name, field_from_content(f))).collect();
    format!("{type_path} {{ {} }}", inits.join(", "))
}

fn gen_deserialize(input: &Input) -> Result<String, String> {
    let name = &input.name;
    let from_content_body = match &input.kind {
        Kind::Struct(fields) => {
            format!(
                "let __m = serde::__private::as_map(__c)?;\n::core::result::Result::Ok({})",
                named_struct_expr(name, fields)
            )
        }
        Kind::Tuple(1) => format!("::core::result::Result::Ok({name}(serde::__private::content_to(__c)?))"),
        Kind::Tuple(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("serde::__private::content_to(serde::__private::idx(__seq, {i})?)?")).collect();
            format!(
                "let __seq = serde::__private::as_seq(__c)?;\n::core::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Kind::Enum(variants) if input.untagged => {
            let mut attempts = String::new();
            for v in variants {
                let vname = &v.name;
                match v.shape {
                    Shape::Tuple(1) => attempts.push_str(&format!(
                        "if let ::core::result::Result::Ok(__v) = serde::__private::content_to(__c) {{\n\
                             return ::core::result::Result::Ok({name}::{vname}(__v));\n\
                         }}\n"
                    )),
                    _ => return Err(format!("untagged enums only support newtype variants (variant {vname})")),
                }
            }
            format!(
                "{attempts}::core::result::Result::Err(serde::__private::ContentError::msg(\
                 \"data matched no variant of untagged enum {name}\"))"
            )
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let arm = match &v.shape {
                    Shape::Unit => format!("\"{vname}\" => ::core::result::Result::Ok({name}::{vname}),\n"),
                    Shape::Tuple(1) => format!(
                        "\"{vname}\" => ::core::result::Result::Ok({name}::{vname}(\
                         serde::__private::content_to(serde::__private::variant_inner(__inner, \"{vname}\")?)?)),\n"
                    ),
                    Shape::Tuple(n) => {
                        let items: Vec<String> =
                            (0..*n).map(|i| format!("serde::__private::content_to(serde::__private::idx(__seq, {i})?)?")).collect();
                        format!(
                            "\"{vname}\" => {{\n\
                                 let __seq = serde::__private::as_seq(serde::__private::variant_inner(__inner, \"{vname}\")?)?;\n\
                                 ::core::result::Result::Ok({name}::{vname}({}))\n\
                             }}\n",
                            items.join(", ")
                        )
                    }
                    Shape::Struct(fields) => format!(
                        "\"{vname}\" => {{\n\
                             let __m = serde::__private::as_map(serde::__private::variant_inner(__inner, \"{vname}\")?)?;\n\
                             ::core::result::Result::Ok({})\n\
                         }}\n",
                        named_struct_expr(&format!("{name}::{vname}"), fields)
                    ),
                };
                arms.push_str(&arm);
            }
            format!(
                "let (__tag, __inner) = serde::__private::enum_parts(__c)?;\n\
                 match __tag {{\n{arms}\
                 __other => ::core::result::Result::Err(serde::__private::ContentError::msg(\
                 &format!(\"unknown variant {{__other}} of enum {name}\"))),\n}}"
            )
        }
    };
    let (params, target) = input.impl_header("");
    let (de_params, _) = input.impl_header("'de");
    Ok(format!(
        "#[automatically_derived]\n\
         impl {params} serde::__private::FromContent for {target} {{\n\
             fn from_content(__c: &serde::__private::Content) -> ::core::result::Result<Self, serde::__private::ContentError> {{\n\
                 {from_content_body}\n\
             }}\n\
         }}\n\
         #[automatically_derived]\n\
         impl {de_params} serde::Deserialize<'de> for {target} {{\n\
             fn deserialize<__D: serde::Deserializer<'de>>(__d: __D) -> ::core::result::Result<Self, __D::Error> {{\n\
                 let __c = __d.content()?;\n\
                 <Self as serde::__private::FromContent>::from_content(&__c)\
                     .map_err(|e| <__D::Error as serde::de::Error>::custom(e))\n\
             }}\n\
         }}\n"
    ))
}

fn expand(input: TokenStream, gen: fn(&Input) -> Result<String, String>) -> TokenStream {
    let code = parse(input).and_then(|parsed| gen(&parsed));
    match code {
        Ok(code) => code.parse().expect("shim serde_derive generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
