package exp

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is one parsed component expression: a name with optional
// key=value arguments, where each value is itself an expression (a bare
// token like 12 or lru is an argument-less Expr). The grammar:
//
//	expr  = name [ "(" [ arg { "," arg } ] ")" ]
//	arg   = key "=" expr
//	name  = one or more of [A-Za-z0-9_.+-]
//	key   = name
//
// Whitespace is tolerated between tokens; String renders the spelling
// with none. Keys must be unique within one argument list. The
// registry's canonical expression of a component is what its factory
// returns (see argSet), not the source spelling.
type Expr struct {
	// Name is the component or literal token.
	Name string
	// Args are the key=value arguments, in source order.
	Args []Arg
}

// Arg is one key=value argument of an expression.
type Arg struct {
	Key   string
	Value Expr
}

// String renders the expression: no whitespace, arguments in their
// order, argument-less expressions as the bare name.
// ParseExpr(e.String()) reproduces e exactly.
func (e Expr) String() string {
	if len(e.Args) == 0 {
		return e.Name
	}
	var sb strings.Builder
	sb.WriteString(e.Name)
	sb.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		sb.WriteString(a.Value.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// ParseExpr parses one complete component expression. Trailing input
// after the expression is an error.
func ParseExpr(s string) (Expr, error) {
	p := &parser{s: s}
	e, err := p.expr()
	if err != nil {
		return Expr{}, err
	}
	p.space()
	if p.i != len(p.s) {
		return Expr{}, fmt.Errorf("exp: trailing input %q in expression %q", p.s[p.i:], s)
	}
	return e, nil
}

// parser is a recursive-descent scanner over one expression string.
type parser struct {
	s string
	i int
}

func (p *parser) space() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

// isToken reports whether c may appear in a name or literal token.
// '+', '-' and '.' admit signed numbers, floats and benchmark-style
// names ("456.hmmer") as bare values.
func isToken(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.' || c == '+' || c == '-'
}

func (p *parser) token() (string, error) {
	p.space()
	start := p.i
	for p.i < len(p.s) && isToken(p.s[p.i]) {
		p.i++
	}
	if p.i == start {
		if p.i >= len(p.s) {
			return "", fmt.Errorf("exp: unexpected end of expression %q", p.s)
		}
		return "", fmt.Errorf("exp: unexpected %q at offset %d in expression %q", p.s[p.i], p.i, p.s)
	}
	return p.s[start:p.i], nil
}

// peek returns the next non-space byte without consuming it (0 at end).
func (p *parser) peek() byte {
	p.space()
	if p.i >= len(p.s) {
		return 0
	}
	return p.s[p.i]
}

func (p *parser) expr() (Expr, error) {
	name, err := p.token()
	if err != nil {
		return Expr{}, err
	}
	e := Expr{Name: name}
	if p.peek() != '(' {
		return e, nil
	}
	p.i++ // consume '('
	if p.peek() == ')' {
		p.i++
		return e, nil
	}
	seen := map[string]bool{}
	for {
		key, err := p.token()
		if err != nil {
			return Expr{}, err
		}
		if p.peek() != '=' {
			return Expr{}, fmt.Errorf("exp: expected '=' after %q in expression %q", key, p.s)
		}
		p.i++
		val, err := p.expr()
		if err != nil {
			return Expr{}, err
		}
		if seen[key] {
			return Expr{}, fmt.Errorf("exp: duplicate parameter %q in %s(...)", key, name)
		}
		seen[key] = true
		e.Args = append(e.Args, Arg{Key: key, Value: val})
		switch p.peek() {
		case ',':
			p.i++
		case ')':
			p.i++
			return e, nil
		default:
			return Expr{}, fmt.Errorf("exp: expected ',' or ')' in %s(...) of expression %q", name, p.s)
		}
	}
}

// argSet consumes an expression's arguments by key for one factory.
// It tracks which keys the factory read, so unknown parameters become
// errors, keeps the first malformed value as its error, and records
// the canonical expression as the factory reads it: arguments in read
// order, a sub-component always (itself canonical), a scalar or enum
// only when its parsed value differs from the factory's default,
// spelled from that value. Two spellings therefore share a canonical
// expression only if they build the same configuration.
type argSet struct {
	expr  Expr
	used  map[string]bool
	canon Expr
	err   error
}

func newArgs(e Expr) *argSet {
	return &argSet{expr: e, used: map[string]bool{}, canon: Expr{Name: e.Name}}
}

// value returns the raw value expression of key, marking it used.
func (a *argSet) value(key string) (Expr, bool) {
	a.used[key] = true
	for _, arg := range a.expr.Args {
		if arg.Key == key {
			return arg.Value, true
		}
	}
	return Expr{}, false
}

// fail keeps err unless an earlier one is kept.
func (a *argSet) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// keep appends key=val to the canonical expression.
func (a *argSet) keep(key string, val Expr) {
	a.canon.Args = append(a.canon.Args, Arg{Key: key, Value: val})
}

// leaf returns key's value as a bare token, rejecting nested calls.
func (a *argSet) leaf(key string) (string, bool) {
	v, ok := a.value(key)
	if ok && len(v.Args) != 0 {
		a.fail(fmt.Errorf("exp: %s: parameter %s must be a literal, not %s", a.expr.Name, key, v))
		return "", false
	}
	return v.Name, ok
}

// scalar parses key's token with parse and keeps its canonical
// spelling when it differs from def; absent or malformed, it is def.
func scalar[T comparable](a *argSet, key string, def T, kind string, parse func(string) (T, error), format func(T) string) T {
	tok, ok := a.leaf(key)
	if !ok {
		return def
	}
	v, err := parse(tok)
	if err != nil {
		a.fail(fmt.Errorf("exp: %s: parameter %s=%q is not %s", a.expr.Name, key, tok, kind))
		return def
	}
	if v != def {
		a.keep(key, Expr{Name: format(v)})
	}
	return v
}

// Int returns key's integer value, or def when absent.
func (a *argSet) Int(key string, def int) int {
	return scalar(a, key, def, "an integer", strconv.Atoi, strconv.Itoa)
}

// Uint64 returns key's unsigned value, or def when absent.
func (a *argSet) Uint64(key string, def uint64) uint64 {
	return scalar(a, key, def, "an unsigned integer",
		func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) },
		func(n uint64) string { return strconv.FormatUint(n, 10) })
}

// Bool returns key's boolean value, or def when absent.
func (a *argSet) Bool(key string, def bool) bool {
	return scalar(a, key, def, "a boolean", strconv.ParseBool, strconv.FormatBool)
}

// Enum returns the index in tokens of key's token; tokens[0] is the
// default, returned when key is absent.
func (a *argSet) Enum(key string, tokens ...string) int {
	tok, ok := a.leaf(key)
	if !ok {
		return 0
	}
	for i, t := range tokens {
		if t == tok {
			if i != 0 {
				a.keep(key, Expr{Name: tok})
			}
			return i
		}
	}
	a.fail(fmt.Errorf("exp: %s: %s=%q is not one of %s", a.expr.Name, key, tok, strings.Join(tokens, ", ")))
	return 0
}

// component builds key's sub-component with build, from def when key
// is absent, and keeps its canonical expression. Defaults are package
// literals, so a malformed one panics.
func component[F any](a *argSet, key, def string, build func(Expr) (F, Expr, error)) F {
	e, ok := a.value(key)
	if !ok {
		var err error
		if e, err = ParseExpr(def); err != nil {
			panic("exp: bad built-in default expression " + def + ": " + err.Error())
		}
	}
	mk, canon, err := build(e)
	if err != nil {
		a.fail(err)
	}
	a.keep(key, canon)
	return mk
}

// finish returns the canonical expression, or the first malformed
// value, or the first argument no accessor read.
func (a *argSet) finish() (Expr, error) {
	if a.err != nil {
		return Expr{}, a.err
	}
	for _, arg := range a.expr.Args {
		if !a.used[arg.Key] {
			return Expr{}, fmt.Errorf("exp: %s: unknown parameter %q", a.expr.Name, arg.Key)
		}
	}
	return a.canon, nil
}

// plain accepts an argument-less component: its canonical expression
// is its bare name.
func plain[F any](e Expr, mk F) (F, Expr, error) {
	if len(e.Args) != 0 {
		var none F
		return none, Expr{}, fmt.Errorf("exp: %s takes no parameters", e.Name)
	}
	return mk, Expr{Name: e.Name}, nil
}
