//! Lexer for the LAWS workflow specification language.
//!
//! The paper builds on "a workflow specification language called LAWS
//! \[that\] allows the specification of failure handling and coordinated
//! execution requirements" (§1). Its grammar is unpublished (it lives in
//! the PhD thesis), so `crew-laws` defines a small declarative surface
//! covering everything the paper attributes to LAWS; see the crate docs
//! for the grammar.

use crew_lint::Span;
use std::fmt;

/// Token kinds (names are the documentation).
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals & identifiers
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // Punctuation
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
    Arrow, // ->
    Dot,
    // Operators
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer {v}"),
            Tok::Float(v) => write!(f, "float {v}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its position.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub pos: Span,
}

/// Lexing errors.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub pos: Span,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `source`. Comments run `//` to end of line.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut chars = source.chars().peekable();
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }

    loop {
        let pos = Span { line, col };
        let Some(&c) = chars.peek() else {
            out.push(Token { tok: Tok::Eof, pos });
            return Ok(out);
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '/' => {
                bump!();
                match chars.peek() {
                    Some('/') => {
                        // Line comment.
                        while let Some(&n) = chars.peek() {
                            if n == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    _ => out.push(Token {
                        tok: Tok::Slash,
                        pos,
                    }),
                }
            }
            '{' => {
                bump!();
                out.push(Token {
                    tok: Tok::LBrace,
                    pos,
                });
            }
            '}' => {
                bump!();
                out.push(Token {
                    tok: Tok::RBrace,
                    pos,
                });
            }
            '(' => {
                bump!();
                out.push(Token {
                    tok: Tok::LParen,
                    pos,
                });
            }
            ')' => {
                bump!();
                out.push(Token {
                    tok: Tok::RParen,
                    pos,
                });
            }
            ',' => {
                bump!();
                out.push(Token {
                    tok: Tok::Comma,
                    pos,
                });
            }
            ';' => {
                bump!();
                out.push(Token {
                    tok: Tok::Semi,
                    pos,
                });
            }
            '.' => {
                bump!();
                out.push(Token { tok: Tok::Dot, pos });
            }
            '+' => {
                bump!();
                out.push(Token {
                    tok: Tok::Plus,
                    pos,
                });
            }
            '*' => {
                bump!();
                out.push(Token {
                    tok: Tok::Star,
                    pos,
                });
            }
            '-' => {
                bump!();
                if chars.peek() == Some(&'>') {
                    bump!();
                    out.push(Token {
                        tok: Tok::Arrow,
                        pos,
                    });
                } else {
                    out.push(Token {
                        tok: Tok::Minus,
                        pos,
                    });
                }
            }
            '=' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Token {
                        tok: Tok::EqEq,
                        pos,
                    });
                } else {
                    return Err(LexError {
                        pos,
                        message: "expected `==`".into(),
                    });
                }
            }
            '!' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Token {
                        tok: Tok::NotEq,
                        pos,
                    });
                } else {
                    out.push(Token {
                        tok: Tok::Bang,
                        pos,
                    });
                }
            }
            '<' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Token { tok: Tok::Le, pos });
                } else {
                    out.push(Token { tok: Tok::Lt, pos });
                }
            }
            '>' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Token { tok: Tok::Ge, pos });
                } else {
                    out.push(Token { tok: Tok::Gt, pos });
                }
            }
            '&' => {
                bump!();
                if chars.peek() == Some(&'&') {
                    bump!();
                    out.push(Token {
                        tok: Tok::AndAnd,
                        pos,
                    });
                } else {
                    return Err(LexError {
                        pos,
                        message: "expected `&&`".into(),
                    });
                }
            }
            '|' => {
                bump!();
                if chars.peek() == Some(&'|') {
                    bump!();
                    out.push(Token {
                        tok: Tok::OrOr,
                        pos,
                    });
                } else {
                    return Err(LexError {
                        pos,
                        message: "expected `||`".into(),
                    });
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some('"') => break,
                        Some('\\') => match bump!() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some(c2 @ ('"' | '\\')) => s.push(c2),
                            other => {
                                return Err(LexError {
                                    pos,
                                    message: format!("bad escape {other:?}"),
                                })
                            }
                        },
                        Some(c2) => s.push(c2),
                        None => {
                            return Err(LexError {
                                pos,
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    pos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                let mut is_float = false;
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_digit() {
                        text.push(n);
                        bump!();
                    } else if n == '.' {
                        // Lookahead: `1.5` is a float, `S1.O2` never starts
                        // with a digit, so a dot after digits means float
                        // only when followed by a digit.
                        let mut clone = chars.clone();
                        clone.next();
                        if clone.peek().is_some_and(|d| d.is_ascii_digit()) {
                            is_float = true;
                            text.push('.');
                            bump!();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| LexError {
                        pos,
                        message: format!("bad float literal {text:?}"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| LexError {
                        pos,
                        message: format!("bad integer literal {text:?}"),
                    })?)
                };
                out.push(Token { tok, pos });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut text = String::new();
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_alphanumeric() || n == '_' {
                        text.push(n);
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(text),
                    pos,
                });
            }
            other => {
                return Err(LexError {
                    pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("workflow X { } -> ; , ."),
            vec![
                Tok::Ident("workflow".into()),
                Tok::Ident("X".into()),
                Tok::LBrace,
                Tok::RBrace,
                Tok::Arrow,
                Tok::Semi,
                Tok::Comma,
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_and_literals() {
        assert_eq!(
            toks(r#"== != < <= > >= + - * / && || ! 42 1.5 "hi\n""#),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bang,
                Tok::Int(42),
                Tok::Float(1.5),
                Tok::Str("hi\n".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn dotted_item_refs_lex_as_parts() {
        // `S1.O2` lexes as Ident, Dot, Ident — the parser reassembles.
        assert_eq!(
            toks("S1.O2"),
            vec![
                Tok::Ident("S1".into()),
                Tok::Dot,
                Tok::Ident("O2".into()),
                Tok::Eof
            ]
        );
        // but 1.5 stays a float and `1.x` splits.
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5), Tok::Eof]);
    }

    #[test]
    fn positions_tracked() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].pos, Span { line: 1, col: 1 });
        assert_eq!(tokens[1].pos, Span { line: 2, col: 3 });
    }

    #[test]
    fn errors_reported_with_position() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(err.pos, Span { line: 1, col: 3 });
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a = b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }
}
