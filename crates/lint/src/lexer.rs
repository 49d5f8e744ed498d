//! A minimal, self-contained Rust lexer.
//!
//! The build environment has no crates.io access, so `syn` is not an option;
//! like the `compat/` stubs, the tokenizer is vendored in-crate. It produces
//! a flat token stream with line numbers — enough for the repo's rules, which
//! are all expressible over tokens plus delimiter-depth tracking (no type
//! information needed).
//!
//! Faithfully handled so rules never fire inside non-code text:
//!
//! * line comments (`//`), nested block comments (`/* /* */ */`)
//! * doc comments — kept as tokens ([`TokKind::DocOuter`] for `///` and
//!   `/** */`, [`TokKind::DocInner`] for `//!` and `/*! */`) because a doc
//!   comment marks an item boundary, which `impl` detection reads
//! * string, raw-string (`r#"…"#`), byte-string and char literals
//! * lifetimes (`'a`) vs. char literals (`'a'`)
//! * raw identifiers (`r#type`)

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `_`, …).
    Ident,
    /// Single punctuation character (`:`, `=`, `>`, `.`, `!`, …).
    Punct(char),
    /// Opening delimiter: one of `(`, `[`, `{`.
    Open(char),
    /// Closing delimiter: one of `)`, `]`, `}`.
    Close(char),
    /// String / char / numeric literal (contents irrelevant to the rules).
    Lit,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Outer doc comment (`///` or `/** */`) — documents the *next* item.
    DocOuter,
    /// Inner doc comment (`//!` or `/*! */`) — documents the enclosing item.
    DocInner,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token's kind.
    pub kind: TokKind,
    /// The token's text. Literals and doc comments keep only a marker text,
    /// not their contents; identifiers keep their exact spelling.
    pub text: String,
    /// 1-based line number where the token starts.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lex `src` into a flat token stream. Never fails: unterminated constructs
/// consume to end-of-file, which is the forgiving behaviour a linter wants
/// (the compiler proper reports the real error).
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: &str, line: u32) {
        self.out.push(Tok {
            kind,
            text: text.to_string(),
            line,
        });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string_lit(line),
                'r' | 'b' if self.raw_or_byte_prefix() => self.prefixed_lit(line),
                '\'' => self.quote(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                '(' | '[' | '{' => {
                    self.bump();
                    self.push(TokKind::Open(c), &c.to_string(), line);
                }
                ')' | ']' | '}' => {
                    self.bump();
                    self.push(TokKind::Close(c), &c.to_string(), line);
                }
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c), &c.to_string(), line);
                }
            }
        }
        self.out
    }

    /// `//`-style comment. `///` (not `////`) is an outer doc comment,
    /// `//!` an inner one; both become tokens, anything else is skipped.
    fn line_comment(&mut self, line: u32) {
        let third = self.peek(2);
        let fourth = self.peek(3);
        let kind = match third {
            Some('/') if fourth != Some('/') => Some(TokKind::DocOuter),
            Some('!') => Some(TokKind::DocInner),
            _ => None,
        };
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        if let Some(kind) = kind {
            self.push(kind, "doc", line);
        }
    }

    /// `/* */` comment with nesting. `/**` (not `/***` or the empty `/**/`)
    /// is an outer doc comment, `/*!` an inner one.
    fn block_comment(&mut self, line: u32) {
        let kind = match (self.peek(2), self.peek(3)) {
            (Some('*'), Some(c)) if c != '*' && c != '/' => Some(TokKind::DocOuter),
            (Some('!'), _) => Some(TokKind::DocInner),
            _ => None,
        };
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        if let Some(kind) = kind {
            self.push(kind, "doc", line);
        }
    }

    /// Ordinary `"…"` string with escapes.
    fn string_lit(&mut self, line: u32) {
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Lit, "\"str\"", line);
    }

    /// Whether the cursor sits on a raw/byte string or raw-ident prefix
    /// rather than a plain identifier starting with `r` or `b`.
    fn raw_or_byte_prefix(&self) -> bool {
        let c0 = self.peek(0);
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        match (c0, c1) {
            // r"…", r#"…"# (raw string) and r#ident (raw identifier).
            (Some('r'), Some('"')) | (Some('r'), Some('#')) => true,
            // b"…", b'…', br"…", br#"…"#.
            (Some('b'), Some('"')) | (Some('b'), Some('\'')) => true,
            (Some('b'), Some('r')) => matches!(c2, Some('"') | Some('#')),
            _ => false,
        }
    }

    /// A literal (or raw identifier) starting with `r` / `b` prefixes.
    fn prefixed_lit(&mut self, line: u32) {
        // Raw identifier r#ident: lex as the identifier itself.
        if self.peek(0) == Some('r')
            && self.peek(1) == Some('#')
            && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            self.bump();
            self.bump();
            self.ident(line);
            return;
        }
        // Consume prefix letters.
        while matches!(self.peek(0), Some('r') | Some('b')) {
            self.bump();
        }
        match self.peek(0) {
            Some('#') | Some('"') => {
                // Raw string: r<hashes>"…"<hashes>.
                let mut hashes = 0usize;
                while self.peek(0) == Some('#') {
                    hashes += 1;
                    self.bump();
                }
                self.bump(); // opening quote
                loop {
                    match self.bump() {
                        Some('"') => {
                            let mut seen = 0usize;
                            while seen < hashes && self.peek(0) == Some('#') {
                                seen += 1;
                                self.bump();
                            }
                            if seen == hashes {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                self.push(TokKind::Lit, "r\"str\"", line);
            }
            Some('\'') => {
                // Byte char b'…'.
                self.bump();
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(TokKind::Lit, "b'c'", line);
            }
            _ => self.ident(line),
        }
    }

    /// A `'` is either a lifetime (`'a`, no closing quote) or a char literal
    /// (`'a'`, `'\n'`).
    fn quote(&mut self, line: u32) {
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_lifetime = c1.is_some_and(|c| c.is_alphabetic() || c == '_') && c2 != Some('\'');
        if is_lifetime {
            self.bump();
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, &name, line);
        } else {
            self.bump();
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokKind::Lit, "'c'", line);
        }
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, &name, line);
    }

    /// Numeric literal. Consumes alphanumerics and `_` only — `1.5` lexes as
    /// `1` `.` `5`, which is fine for the rules and keeps `0..n` ranges
    /// unambiguous.
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Lit, &text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_code() {
        let src = "// HashMap\n/* HashSet /* nested */ */ fn x() {}";
        assert_eq!(idents(src), vec!["fn", "x"]);
    }

    #[test]
    fn strings_are_not_code() {
        let src = r###"let s = "HashMap"; let r = r#"HashSet"#; f(s);"###;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "f", "s"]);
    }

    #[test]
    fn doc_comments_become_tokens() {
        let toks = lex("/// outer\n//! inner\npub fn f() {}");
        assert_eq!(toks[0].kind, TokKind::DocOuter);
        assert_eq!(toks[1].kind, TokKind::DocInner);
        assert!(toks[2].is_ident("pub"));
    }

    #[test]
    fn quad_slash_is_plain_comment() {
        let toks = lex("//// not a doc\nfn f() {}");
        assert!(toks[0].is_ident("fn"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "'c'"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn raw_identifier_is_ident() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }
}
