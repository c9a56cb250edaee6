//! A comment/string-aware Rust lexer — just enough syntax to lint with.
//!
//! The linter must never mistake a `stream(...)` call in a string or an
//! `Enum::Variant` path in a doc comment for real code. Full parsing is
//! overkill (and would drag in a dependency); instead this module
//! tokenizes source text into identifiers, string literals and
//! punctuation with exact line/column spans, and collects comments
//! separately (they carry the `sda-lint:` escape hatches).
//!
//! Handled Rust surface: line and (nested) block comments, string /
//! raw-string / byte-string / char literals, lifetimes, numbers. That is
//! every construct that could otherwise smuggle a name past a text
//! search or hide one from it.

/// What a [`Token`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `r#type`, …).
    Ident(String),
    /// A string literal, with the raw (uncooked) contents.
    Str(String),
    /// A numeric literal (contents not interpreted).
    Num,
    /// A char literal or lifetime (contents irrelevant to the lints).
    CharOrLifetime,
    /// A single punctuation character (`.`, `:`, `{`, …).
    Punct(char),
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// A comment (line or block), kept out-of-band from the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// The comment text *without* the `//` / `/*` markers.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// True when no token precedes the comment on its starting line.
    pub owns_line: bool,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Tokenizes `src`. Never fails: unterminated constructs consume to
    /// end-of-file (the compiler, not the linter, reports those).
    pub fn new(src: &str) -> Lexed {
        let mut lx = Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
            line_has_token: false,
        };
        lx.run();
        lx.out
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
    line_has_token: bool,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
            self.line_has_token = false;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: u32, col: u32) {
        self.out.tokens.push(Token { kind, line, col });
        self.line_has_token = true;
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => {
                    self.bump();
                    let s = self.cooked_string();
                    self.push(TokenKind::Str(s), line, col);
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.bump();
                    let s = self.cooked_string();
                    self.push(TokenKind::Str(s), line, col);
                }
                'r' | 'b' if self.raw_string_ahead() => {
                    let s = self.raw_string();
                    self.push(TokenKind::Str(s), line, col);
                }
                '\'' => {
                    self.char_or_lifetime();
                    self.push(TokenKind::CharOrLifetime, line, col);
                }
                c if c.is_ascii_digit() => {
                    // Consume the whole numeric literal, including `.`,
                    // exponent signs and suffixes (`1.0e-3f64`).
                    self.bump();
                    while let Some(n) = self.peek(0) {
                        let exp_sign = (n == '+' || n == '-')
                            && matches!(self.chars.get(self.pos - 1), Some('e' | 'E'));
                        if n.is_ascii_alphanumeric() || n == '_' || n == '.' || exp_sign {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Num, line, col);
                }
                c if c == '_' || c.is_alphabetic() => {
                    let mut ident = String::new();
                    // Raw identifiers (`r#type`) lex as plain idents.
                    if c == 'r' && self.peek(1) == Some('#') {
                        if let Some(c2) = self.peek(2) {
                            if c2 == '_' || c2.is_alphabetic() {
                                self.bump();
                                self.bump();
                            }
                        }
                    }
                    while let Some(n) = self.peek(0) {
                        if n == '_' || n.is_alphanumeric() {
                            ident.push(n);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Ident(ident), line, col);
                }
                p => {
                    self.bump();
                    self.push(TokenKind::Punct(p), line, col);
                }
            }
        }
    }

    fn line_comment(&mut self, line: u32) {
        let owns_line = !self.line_has_token;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text,
            line,
            owns_line,
        });
    }

    fn block_comment(&mut self, line: u32) {
        let owns_line = !self.line_has_token;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        text.push('*');
                        text.push('/');
                    }
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            text,
            line,
            owns_line,
        });
    }

    /// Consumes a cooked string body (opening quote already consumed).
    fn cooked_string(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '"' => {
                    self.bump();
                    break;
                }
                '\\' => {
                    // Keep escapes verbatim; the lints only need literal
                    // stream names, which never contain escapes.
                    s.push(c);
                    self.bump();
                    if let Some(esc) = self.peek(0) {
                        s.push(esc);
                        self.bump();
                    }
                }
                _ => {
                    s.push(c);
                    self.bump();
                }
            }
        }
        s
    }

    /// Whether `r"`, `r#"`, `br"`, `br#"`… starts at the cursor.
    fn raw_string_ahead(&self) -> bool {
        let mut i = 0;
        if self.peek(i) == Some('b') {
            i += 1;
        }
        if self.peek(i) != Some('r') {
            return false;
        }
        i += 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn raw_string(&mut self) -> String {
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut s = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // Close only on `"` followed by exactly `hashes` hashes.
                let mut ok = true;
                for h in 0..hashes {
                    if self.peek(1 + h) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break 'outer;
                }
            }
            s.push(c);
            self.bump();
        }
        s
    }

    /// Distinguishes `'a'` / `'\n'` (char literals) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        self.bump(); // opening '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape, then to the quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                if self.peek(1) == Some('\'') {
                    // 'x' — plain char literal.
                    self.bump();
                    self.bump();
                } else {
                    // 'ident — lifetime: consume the identifier only.
                    while let Some(n) = self.peek(0) {
                        if n == '_' || n.is_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' .
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        Lexed::new(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* Instant in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"SystemTime"#;
            let c = 'I';
            let real = thread_rng;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
    }

    #[test]
    fn string_literal_values_are_captured() {
        let lx = Lexed::new(r#"f.stream("workload.pex")"#);
        let strs: Vec<_> = lx
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["workload.pex".to_string()]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
        assert!(ids.contains(&"x".to_string()));
    }

    #[test]
    fn char_literals_do_not_unbalance() {
        let ids = idents("let q = '\\''; let b = '{'; after");
        assert!(ids.contains(&"after".to_string()));
        let lx = Lexed::new("let b = '{'; fn g() {}");
        let braces: i32 = lx
            .tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Punct('{') => 1,
                TokenKind::Punct('}') => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0, "char-literal brace must not count");
    }

    #[test]
    fn comment_ownership_and_positions() {
        let src = "let x = 1; // trailing\n// own line\nlet y = 2;\n";
        let lx = Lexed::new(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(!lx.comments[0].owns_line);
        assert_eq!(lx.comments[0].line, 1);
        assert!(lx.comments[1].owns_line);
        assert_eq!(lx.comments[1].line, 2);
        let y = lx
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokenKind::Ident(i) if i == "y"))
            .unwrap();
        assert_eq!((y.line, y.col), (3, 5));
    }
}
