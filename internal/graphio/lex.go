package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// The decoder below is a hand-written lexer over the whole body. It
// accepts exactly the documents encoding/json accepted when it decoded
// into graphDoc and topologyDoc with DisallowUnknownFields, and yields
// bit-identical docs; reference_test.go keeps that decoder and fuzzes
// the two against each other. The one difference is deliberate:
// anything but whitespace after the document is an error.

// bodies recycles read buffers: a parsed doc keeps no reference into
// the bytes it came from.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode reads all of r and parses it into doc. A reader error is
// returned wrapped with %w, unless the bytes read before it already
// hold a syntax error, which encoding/json would have reported first.
func decode(r io.Reader, doc interface{ parse(*lexer) }) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	l := lexer{data: buf.Bytes()}
	if rerr != nil {
		l.value(0)
		l.end()
		if l.err != nil && !l.eof {
			return l.err
		}
		return fmt.Errorf("graphio: %w", rerr)
	}
	doc.parse(&l)
	l.end()
	return l.err
}

// lexer walks one JSON document. The first failure sticks: it moves
// pos to the end, so every later read fails quietly and every loop
// ends.
type lexer struct {
	data []byte
	pos  int
	err  error
	eof  bool // the failure was running out of input
}

func (l *lexer) fail(format string, args ...any) {
	if l.err == nil {
		l.eof = l.pos >= len(l.data)
		l.err = fmt.Errorf("graphio: offset %d: %s", l.pos, fmt.Sprintf(format, args...))
	}
	l.pos = len(l.data)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (l *lexer) peek() byte {
	d := l.data
	for i := l.pos; i < len(d); i++ {
		if c := d[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			l.pos = i
			return c
		}
	}
	l.pos = len(d)
	return 0
}

// end fails unless only whitespace is left.
func (l *lexer) end() {
	if l.peek(); l.pos < len(l.data) {
		l.fail("data after the document")
	}
}

// open consumes the opening '{' or '[' of a container and reports
// whether a first member follows.
func (l *lexer) open(c byte) bool {
	if l.peek() != c {
		l.fail("expected %q", c)
		return false
	}
	l.pos++
	if l.peek() == c+2 { // '}' or ']'
		l.pos++
		return false
	}
	return true
}

// more consumes the ',' after a member, reporting true, or the closing
// delimiter, reporting false.
func (l *lexer) more(closing byte) bool {
	switch l.peek() {
	case ',':
		l.pos++
		return true
	case closing:
		l.pos++
		return false
	}
	l.fail("expected ',' or %q", closing)
	return false
}

// null consumes a null literal if one comes next.
func (l *lexer) null() bool {
	if l.peek() != 'n' {
		return false
	}
	l.literal("null")
	return true
}

func (l *lexer) literal(word string) {
	for i := 0; i < len(word); i++ {
		if l.pos >= len(l.data) || l.data[l.pos] != word[i] {
			l.fail("invalid literal, want %s", word)
			return
		}
		l.pos++
	}
}

// str consumes a string token and returns it with its quotes. plain
// reports a token with no escapes and no byte above 0x7f, whose
// contents are its value as they stand.
func (l *lexer) str() (tok []byte, plain bool) {
	if l.peek() != '"' {
		l.fail("expected a string")
		return nil, false
	}
	d, start := l.data, l.pos
	plain = true
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			l.pos = i + 1
			return d[start:l.pos], plain
		case c < 0x20:
			l.pos = i
			l.fail("control character in string")
			return nil, false
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			l.pos = i + 1
			if !l.escape() {
				return nil, false
			}
			i = l.pos
		}
	}
	l.pos = len(d)
	l.fail("unterminated string")
	return nil, false
}

// escape checks the escape whose letter is at pos, leaving pos on its
// last byte.
func (l *lexer) escape() bool {
	if l.pos < len(l.data) {
		switch l.data[l.pos] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			return true
		case 'u':
			for i := 0; i < 4; i++ {
				l.pos++
				if l.pos >= len(l.data) || !isHex(l.data[l.pos]) {
					l.fail("invalid \\u escape")
					return false
				}
			}
			return true
		}
	}
	l.fail("invalid escape")
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns a string token's value. Tokens with escapes or
// non-ASCII bytes go through encoding/json, so escapes, surrogate pairs
// and invalid UTF-8 (which becomes U+FFFD) decode exactly as before.
func (l *lexer) unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		l.fail("%v", err)
	}
	return s
}

// number consumes a number token in JSON's grammar: no leading zeros,
// no '+' sign, digits on both sides of a '.'.
func (l *lexer) number() []byte {
	d, start := l.data, l.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return l.badNumber(i)
	}
	if i < len(d) && d[i] == '.' {
		if j := digits(d, i+1); j > i+1 {
			i = j
		} else {
			return l.badNumber(j)
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			return l.badNumber(j)
		}
	}
	l.pos = i
	return d[start:i]
}

// badNumber fails at the byte a number cannot continue with.
func (l *lexer) badNumber(at int) []byte {
	l.pos = at
	l.fail("invalid number")
	return nil
}

// digits returns the index past the run of decimal digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// value consumes one value of any shape, checking only its syntax;
// depth is the number of containers around it.
func (l *lexer) value(depth int) {
	switch c := l.peek(); c {
	case '{', '[':
		if depth >= maxDepth {
			l.fail("nested deeper than %d", maxDepth)
			return
		}
		for ok := l.open(c); ok; ok = l.more(c + 2) {
			if c == '{' {
				l.str()
				l.colon()
			}
			l.value(depth + 1)
		}
	case '"':
		l.str()
	case 't':
		l.literal("true")
	case 'f':
		l.literal("false")
	case 'n':
		l.literal("null")
	default:
		l.number()
	}
}

func (l *lexer) colon() {
	if l.peek() != ':' {
		l.fail("expected ':'")
		return
	}
	l.pos++
}

// key consumes an object key and its colon and returns the key's index
// in fields. Keys match as encoding/json matches struct fields, exactly
// or under Unicode case folding; an unknown key fails, as
// DisallowUnknownFields made it.
func (l *lexer) key(fields []string) int {
	tok, plain := l.str()
	if l.err != nil {
		return -1
	}
	for i, f := range fields {
		if string(tok[1:len(tok)-1]) == f {
			l.colon()
			return i
		}
	}
	k := l.unquote(tok, plain)
	for i, f := range fields {
		if strings.EqualFold(k, f) {
			l.colon()
			return i
		}
	}
	l.fail("unknown field %s", tok)
	return -1
}

// The field readers below store a value the way encoding/json stores
// one into a struct field: null leaves the field as it is, and any
// other JSON type than the field's fails.

func (l *lexer) text(s *string) {
	if l.null() {
		return
	}
	if tok, plain := l.str(); l.err == nil {
		*s = l.unquote(tok, plain)
	}
}

func (l *lexer) float(f *float64) {
	if l.null() {
		return
	}
	tok := l.number()
	if l.err != nil {
		return
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		l.fail("number %s out of range", tok)
		return
	}
	*f = v
}

// integer rejects a fraction, an exponent and anything outside int.
func (l *lexer) integer(n *int) {
	if l.null() {
		return
	}
	tok := l.number()
	if l.err != nil {
		return
	}
	v, ok := atoi(tok)
	if !ok {
		l.fail("number %s is not an int", tok)
		return
	}
	*n = v
}

// atoi converts a number token to an int as strconv.ParseInt would,
// without its string copy on the common short token.
func atoi(tok []byte) (int, bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 18 { // may not fit in an int64: let strconv decide
		v, err := strconv.ParseInt(string(tok), 10, 64)
		return int(v), err == nil && int64(int(v)) == v
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' { // a fraction or an exponent
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		v = -v
	}
	return int(v), int64(int(v)) == v
}

func (l *lexer) boolean(b *bool) {
	switch l.peek() {
	case 'n':
		l.literal("null")
	case 't':
		l.literal("true")
		*b = true
	case 'f':
		l.literal("false")
		*b = false
	default:
		l.fail("expected a bool")
	}
}

// array decodes an array, or null, into *s with encoding/json's slice
// semantics: element i decodes over whatever the backing array holds
// at i (a repeated key merges element by element into the previous
// value), the slice is then cut to the array's length, and an empty
// array or null drops the backing array.
func array[T any](l *lexer, s *[]T, elem func(*T, *lexer)) {
	if l.null() {
		*s = nil
		return
	}
	v, n := *s, 0
	for ok := l.open('['); ok; ok = l.more(']') {
		if n == cap(v) {
			// Double: append's 1.25x growth would copy a long array
			// about four times over.
			v = append(make([]T, 0, 2*n+8), v[:n]...)
		}
		v = v[:n+1]
		elem(&v[n], l)
		n++
	}
	if n == 0 {
		v = nil
	}
	*s = v[:n]
}

// parseInt is integer in the element shape array takes.
func parseInt(n *int, l *lexer) { l.integer(n) }

var (
	graphFields    = []string{"tasks", "edges"}
	taskFields     = []string{"name", "cost"}
	edgeFields     = []string{"from", "to", "cost"}
	topologyFields = []string{"nodes", "links"}
	nodeFields     = []string{"name", "kind", "speed"}
	linkFields     = []string{"from", "to", "duplex", "members", "speed"}
)

// object decodes an object, or null, calling field with the index in
// fields of each key, positioned at its value. A key overwrites what
// an earlier one stored, so the last of repeated keys wins.
func (l *lexer) object(fields []string, field func(int)) {
	if l.null() {
		return
	}
	for ok := l.open('{'); ok; ok = l.more('}') {
		if i := l.key(fields); i >= 0 {
			field(i)
		}
	}
}

func (d *graphDoc) parse(l *lexer) {
	l.object(graphFields, func(i int) {
		switch i {
		case 0:
			array(l, &d.Tasks, (*taskDoc).parse)
		case 1:
			array(l, &d.Edges, (*edgeDoc).parse)
		}
	})
}

func (d *taskDoc) parse(l *lexer) {
	l.object(taskFields, func(i int) {
		switch i {
		case 0:
			l.text(&d.Name)
		case 1:
			l.float(&d.Cost)
		}
	})
}

func (d *edgeDoc) parse(l *lexer) {
	l.object(edgeFields, func(i int) {
		switch i {
		case 0:
			l.integer(&d.From)
		case 1:
			l.integer(&d.To)
		case 2:
			l.float(&d.Cost)
		}
	})
}

func (d *topologyDoc) parse(l *lexer) {
	l.object(topologyFields, func(i int) {
		switch i {
		case 0:
			array(l, &d.Nodes, (*nodeDoc).parse)
		case 1:
			array(l, &d.Links, (*linkDoc).parse)
		}
	})
}

func (d *nodeDoc) parse(l *lexer) {
	l.object(nodeFields, func(i int) {
		switch i {
		case 0:
			l.text(&d.Name)
		case 1:
			l.text(&d.Kind)
		case 2:
			l.float(&d.Speed)
		}
	})
}

func (d *linkDoc) parse(l *lexer) {
	l.object(linkFields, func(i int) {
		switch i {
		case 0:
			l.integer(&d.From)
		case 1:
			l.integer(&d.To)
		case 2:
			l.boolean(&d.Duplex)
		case 3:
			array(l, &d.Members, parseInt)
		case 4:
			l.float(&d.Speed)
		}
	})
}
