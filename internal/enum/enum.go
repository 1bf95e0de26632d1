// Package enum is the text format of the spec enums: the small int
// types (planner.Mode, planner.Objective, timeline.Policy,
// timeline.Shape, grid.Placement) that scenarios, CLI flags and
// dnnserve requests name by string. Each type keeps one Codec, its
// table, and its String, Parse…, MarshalText and UnmarshalText are
// one-line calls into it.
//
// The spelling rule, for every enum: parsing is case-insensitive and
// ignores leading and trailing white space, and the empty string parses
// as the zero value. A value prints and marshals as its canonical name.
// An unknown spelling is an error listing the canonical names; an
// out-of-range value prints as Type(n) and refuses to marshal.
package enum

import (
	"fmt"
	"strings"
)

// Codec is the table of one enum type T.
type Codec[T ~int] struct {
	names []string // canonical names, indexed by value
	// spellings lists every accepted spelling, canonical names first; a
	// scan of these few short strings is cheaper than hashing.
	spellings []spelling[T]
	// typ is T's type name; unknown and invalid are the package-prefixed
	// heads of the parse and marshal errors; want lists the names.
	typ, unknown, invalid, want string
}

// New builds T's codec. names are the canonical names of T(0), T(1), …
// in order; aliases maps further accepted spellings (lower case, no
// surrounding space) to their values. Errors are prefixed by T's package
// name: parse errors say "unknown <noun>", marshal errors "cannot
// marshal invalid <marshalNoun>". New panics on a malformed table, which
// only a bug can produce.
func New[T ~int](noun, marshalNoun string, names []string, aliases map[string]T) *Codec[T] {
	pkg, typ, _ := strings.Cut(fmt.Sprintf("%T", T(0)), ".")
	c := &Codec[T]{
		names:   names,
		typ:     typ,
		unknown: pkg + ": unknown " + noun,
		invalid: pkg + ": cannot marshal invalid " + marshalNoun,
		want:    strings.Join(names, "|"),
	}
	add := func(s string, v T) {
		if _, dup := c.lookup(s); dup || s != strings.ToLower(strings.TrimSpace(s)) {
			panic(fmt.Sprintf("enum: %s spelling %q is duplicated or not canonical", typ, s))
		}
		c.spellings = append(c.spellings, spelling[T]{s, v})
	}
	for i, name := range names {
		add(name, T(i))
	}
	add("", 0)
	for s, v := range aliases {
		add(s, v)
	}
	return c
}

type spelling[T ~int] struct {
	text  string
	value T
}

// String returns v's canonical name, or Type(n) when v is out of range.
func (c *Codec[T]) String(v T) string {
	if !c.named(v) {
		return fmt.Sprintf("%s(%d)", c.typ, int(v))
	}
	return c.names[v]
}

// Parse returns the value s spells, or the zero value and an error.
func (c *Codec[T]) Parse(s string) (T, error) {
	if v, ok := c.lookup(s); ok {
		return v, nil
	}
	return 0, c.unknownSpelling(s)
}

// lookup does not retain s, so Unmarshal's conversion of its text to a
// string need not be copied to the heap.
func (c *Codec[T]) lookup(s string) (T, bool) {
	key := strings.ToLower(strings.TrimSpace(s))
	for _, sp := range c.spellings {
		if sp.text == key {
			return sp.value, true
		}
	}
	return 0, false
}

func (c *Codec[T]) unknownSpelling(s string) error {
	return fmt.Errorf("%s %q (want %s)", c.unknown, s, c.want)
}

// Validate reports whether v has a name: nil, without allocating, when
// it does, and Marshal's error when it does not.
func (c *Codec[T]) Validate(v T) error {
	if !c.named(v) {
		return fmt.Errorf("%s %d", c.invalid, int(v))
	}
	return nil
}

func (c *Codec[T]) named(v T) bool { return v >= 0 && int(v) < len(c.names) }

// Marshal returns a fresh copy of v's canonical name.
func (c *Codec[T]) Marshal(v T) ([]byte, error) {
	if err := c.Validate(v); err != nil {
		return nil, err
	}
	return []byte(c.names[v]), nil
}

// Unmarshal parses text into *v, leaving *v untouched on error.
func (c *Codec[T]) Unmarshal(v *T, text []byte) error {
	x, ok := c.lookup(string(text))
	if !ok {
		return c.unknownSpelling(string(text))
	}
	*v = x
	return nil
}
