// Package minic implements the frontend that stands in for clang in the
// atomig pipeline: a lexer, parser, and lowering pass that compile a
// C-like language (MiniC) to AIR modules.
//
// MiniC covers the C subset that the AtoMig analyses are designed for:
// global variables (with volatile and _Atomic qualifiers), structs,
// pointers, arrays, functions, the usual control flow, C11-style atomic
// builtins with explicit memory orders, x86 inline-assembly
// synchronization idioms (mapped to builtins by the frontend, as in paper
// section 3.2), and thread primitives for test harnesses.
package minic

import (
	"fmt"
	"strings"
)

// TokKind classifies a token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct
	TokKeyword
)

var keywords = map[string]bool{
	"int": true, "void": true, "struct": true, "volatile": true,
	"_Atomic": true, "while": true, "do": true, "for": true, "if": true,
	"else": true, "break": true, "continue": true, "return": true,
	"sizeof": true, "__asm__": true,
	"switch": true, "case": true, "default": true,
}

// Token is a lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

// Lexer scans MiniC source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	// interned dedups identifier text so the AST holds one small
	// string per distinct name instead of thousands of substrings
	// pinning the source buffer. Keywords intern too (their map keys
	// double as the canonical spelling).
	interned map[string]string
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

// intern returns the canonical allocation for an identifier spelling.
// The substring s is used only to probe the map, so the clone is paid
// once per distinct identifier, not once per occurrence.
func (l *Lexer) intern(s string) string {
	if v, ok := l.interned[s]; ok {
		return v
	}
	if l.interned == nil {
		l.interned = make(map[string]string, 64)
	}
	c := strings.Clone(s)
	l.interned[c] = c
	return c
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			startLine := l.line
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return fmt.Errorf("line %d: unterminated block comment", startLine)
				}
				if l.peekByte() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punct matches the longest punctuator at l.pos, switching on the lead
// byte instead of probing a table of prefixes — the per-token cost on
// operator-dense source is one branch tree, not up to 33 HasPrefix
// calls. Returns "" when the byte starts no punctuator.
func (l *Lexer) punct() string {
	s, i := l.src, l.pos
	two := func(b byte) bool { return i+1 < len(s) && s[i+1] == b }
	three := func(b byte) bool { return i+2 < len(s) && s[i+2] == b }
	switch s[i] {
	case '<':
		if two('<') {
			if three('=') {
				return "<<="
			}
			return "<<"
		}
		if two('=') {
			return "<="
		}
		return "<"
	case '>':
		if two('>') {
			if three('=') {
				return ">>="
			}
			return ">>"
		}
		if two('=') {
			return ">="
		}
		return ">"
	case '+':
		if two('+') {
			return "++"
		}
		if two('=') {
			return "+="
		}
		return "+"
	case '-':
		if two('-') {
			return "--"
		}
		if two('=') {
			return "-="
		}
		if two('>') {
			return "->"
		}
		return "-"
	case '*':
		if two('=') {
			return "*="
		}
		return "*"
	case '/':
		if two('=') {
			return "/="
		}
		return "/"
	case '%':
		if two('=') {
			return "%="
		}
		return "%"
	case '&':
		if two('&') {
			return "&&"
		}
		if two('=') {
			return "&="
		}
		return "&"
	case '|':
		if two('|') {
			return "||"
		}
		if two('=') {
			return "|="
		}
		return "|"
	case '^':
		if two('=') {
			return "^="
		}
		return "^"
	case '=':
		if two('=') {
			return "=="
		}
		return "="
	case '!':
		if two('=') {
			return "!="
		}
		return "!"
	case '(':
		return "("
	case ')':
		return ")"
	case '{':
		return "{"
	case '}':
		return "}"
	case '[':
		return "["
	case ']':
		return "]"
	case ';':
		return ";"
	case ',':
		return ","
	case '.':
		return "."
	case '~':
		return "~"
	case ':':
		return ":"
	}
	return ""
}

// Next returns the next token. Error values are constructed only on
// the failure path; the success path allocates only for the first
// occurrence of each identifier (interning) and for escaped string
// literals.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		// Identifiers contain no newline: scan bytes directly and fix
		// the column once, instead of per-byte advance() calls.
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		l.col += l.pos - start
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: l.intern(text), Line: line, Col: col}, nil
	case isDigit(c):
		start := l.pos
		for l.pos < len(l.src) {
			b := l.src[l.pos]
			if !(isDigit(b) || b == 'x' || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')) {
				break
			}
			l.pos++
		}
		l.col += l.pos - start
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case c == '"':
		l.advance()
		// Fast path: an escape-free literal is a source substring.
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '"' && l.src[l.pos] != '\\' {
			l.advance()
		}
		if l.pos < len(l.src) && l.src[l.pos] == '"' {
			text := l.src[start:l.pos]
			l.advance()
			return Token{Kind: TokString, Text: text, Line: line, Col: col}, nil
		}
		var b strings.Builder
		b.WriteString(l.src[start:l.pos])
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("line %d: unterminated string", line)
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				b.WriteByte(l.advance())
				continue
			}
			b.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: b.String(), Line: line, Col: col}, nil
	}
	if p := l.punct(); p != "" {
		// Punctuators contain no newline either.
		l.pos += len(p)
		l.col += len(p)
		return Token{Kind: TokPunct, Text: p, Line: line, Col: col}, nil
	}
	return Token{}, fmt.Errorf("line %d:%d: unexpected character %q", line, col, string(c))
}

// tokensPerByteEstimate sizes the token slice from the source length.
// Generated MiniC (appgen) averages one token per 2.8 bytes, and
// hand-written MiniC, with its indentation and comments, fewer; one
// token per 2.5 bytes over-reserves by about an eighth on generated
// modules, so Tokenize regrows only on denser source.
func tokensPerByteEstimate(n int) int { return n*2/5 + 8 }

// Tokenize scans the entire source, returning all tokens (excluding
// EOF). The token slice is preallocated from a source-length estimate,
// so lexing a module allocates its token array once.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	toks := make([]Token, 0, tokensPerByteEstimate(len(src)))
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
