package lexer

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// edgeTokens has a keyword spelled in lower case in its token file, a
// mixed-case one, and a 12-byte keyword that sets MaxKeywordLen.
const edgeTokens = `
tokens edge ;
SELECT       : 'SELECT' ;
FROM         : 'from' ;
DISTINCT     : 'Distinct' ;
CURRENT_DATE : 'CURRENT_DATE' ;
COMMA        : ',' ;
EQ           : '=' ;
LT           : '<' ;
LTEQ         : '<=' ;
IDENTIFIER   : <identifier> ;
INTEGER      : <integer> ;
STRING       : <string> ;
HOSTPARAM    : <host_parameter> ;
`

// dumpScan renders what Scan makes of src, one line per token — name,
// quoted text, line:col and byte span — and, on a lexical error, the
// tokens of the input before the error followed by the error's position,
// resume offset and message.
func dumpScan(l *Lexer, src string) string {
	toks, err := l.Scan(src)
	var le *Error
	if err != nil {
		if !errors.As(err, &le) {
			return fmt.Sprintf("unpositioned error %v", err)
		}
		if toks, err = l.Scan(src[:le.Off]); err != nil {
			return fmt.Sprintf("prefix before the error fails to scan: %v", err)
		}
	}
	var b strings.Builder
	for _, t := range toks {
		fmt.Fprintf(&b, "%s %q %d:%d %d-%d\n", t.Name, t.Text, t.Line, t.Col, t.Off, t.End)
	}
	if le != nil {
		fmt.Fprintf(&b, "error %d:%d %d..%d %s\n", le.Line, le.Col, le.Off, le.Resume, le)
	}
	return b.String()
}

// TestScanEdgeCases pins the scanner at the edges of its word handling:
// non-ASCII letters anywhere in an identifier, keywords reached only
// through Unicode upper-casing, mixed case, words at and just past the
// longest keyword and past 64 bytes, truncated UTF-8 right after a word,
// and CRLF line ends (a CR is an ordinary column).
func TestScanEdgeCases(t *testing.T) {
	l := newLexer(t, edgeTokens)
	long := strings.Repeat("ab", 35) // 70 bytes
	for _, tc := range []struct {
		name, src, want string
	}{
		{"mixed-case keywords", "SeLeCt Distinct FROM current_Date", `
SELECT "SeLeCt" 1:1 0-6
DISTINCT "Distinct" 1:8 7-15
FROM "FROM" 1:17 16-20
CURRENT_DATE "current_Date" 1:22 21-33
`},
		{"non-ASCII letter first", "SELECT émile", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "émile" 1:8 7-13
`},
		{"non-ASCII letter inside", "SELECT naïve FROM t", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "naïve" 1:8 7-13
FROM "FROM" 1:15 14-18
IDENTIFIER "t" 1:20 19-20
`},
		{"non-ASCII letter last", "SELECT café,t", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "café" 1:8 7-12
COMMA "," 1:13 12-13
IDENTIFIER "t" 1:14 13-14
`},
		{"all non-ASCII", "SELECT 日本語 FROM 表", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "日本語" 1:8 7-16
FROM "FROM" 1:18 17-21
IDENTIFIER "表" 1:23 22-25
`},
		{"letter, non-ASCII, digit, underscore", "aé1_=1", `
IDENTIFIER "aé1_" 1:1 0-5
EQ "=" 1:6 5-6
INTEGER "1" 1:7 6-7
`},
		{"keyword only through Unicode upper-casing", "ſelect a from t", `
SELECT "ſelect" 1:1 0-7
IDENTIFIER "a" 1:9 8-9
FROM "from" 1:11 10-14
IDENTIFIER "t" 1:16 15-16
`},
		{"Unicode upper-casing past a keyword", "ſelects ſelectü", `
IDENTIFIER "ſelects" 1:1 0-8
IDENTIFIER "ſelectü" 1:10 9-18
`},
		{"keyword followed by a non-ASCII letter", "selectü", `
IDENTIFIER "selectü" 1:1 0-8
`},
		{"word of the longest keyword's length", "current_date CURRENT_DATX", `
CURRENT_DATE "current_date" 1:1 0-12
IDENTIFIER "CURRENT_DATX" 1:14 13-25
`},
		{"one byte past the longest keyword", "current_dates", `
IDENTIFIER "current_dates" 1:1 0-13
`},
		{"70-byte word", long + " " + strings.ToUpper(long), `
IDENTIFIER "` + long + `" 1:1 0-70
IDENTIFIER "` + strings.ToUpper(long) + `" 1:72 71-141
`},
		{"70-byte word ending non-ASCII", long[:68] + "é", `
IDENTIFIER "` + long[:68] + `é" 1:1 0-70
`},
		{"truncated UTF-8 after an ASCII word", "SELECT a\xc3", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "a" 1:8 7-8
error 1:9 8..8 lex error at 1:9: unexpected character '�'
`},
		{"truncated UTF-8 after a non-ASCII word", "SELECT naï\xe6\x97 from t", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "naï" 1:8 7-11
error 1:12 11..11 lex error at 1:12: unexpected character '�'
`},
		{"symbol after a word", "a€", `
IDENTIFIER "a" 1:1 0-1
error 1:2 1..1 lex error at 1:2: unexpected character '€'
`},
		{"non-ASCII digits continue but cannot start a word", "a١ ١a", `
IDENTIFIER "a١" 1:1 0-3
error 1:5 4..4 lex error at 1:5: unexpected character '١'
`},
		{"host parameter with a non-ASCII letter", ":naïve<=:ſ", `
HOSTPARAM ":naïve" 1:1 0-7
LTEQ "<=" 1:8 7-9
HOSTPARAM ":ſ" 1:10 9-12
`},
		{"CRLF line ends", "SELECT a\r\nFROM t\r\n\r\n  WHERE", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "a" 1:8 7-8
FROM "FROM" 2:1 10-14
IDENTIFIER "t" 2:6 15-16
IDENTIFIER "WHERE" 4:3 22-27
`},
		{"CRLF in comments and strings", "-- c\r\nSELECT 'a\r\nb' /* x\r\n */ t", `
SELECT "SELECT" 2:1 6-12
STRING "'a\r\nb'" 2:8 13-19
IDENTIFIER "t" 4:5 30-31
`},
		{"unterminated string after CRLF", "SELECT a\r\n\r\n  'open", `
SELECT "SELECT" 1:1 0-6
IDENTIFIER "a" 1:8 7-8
error 3:3 14..19 lex error at 3:3: unterminated string literal: reached end of input at 3:8
`},
	} {
		if got, want := dumpScan(l, tc.src), strings.TrimPrefix(tc.want, "\n"); got != want {
			t.Errorf("%s: Scan(%q):\n%s\nwant:\n%s", tc.name, tc.src, got, want)
		}
	}
}
