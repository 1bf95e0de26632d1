package scenario

import (
	"encoding"
	"encoding/json"
	"fmt"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/timeline"
)

// textEnum is a spec enum: an int kind that prints and marshals by name
// and unmarshals (through its pointer) from any accepted spelling.
type textEnum interface {
	~int
	fmt.Stringer
	encoding.TextMarshaler
}

// enumPin is the whole text format of one spec enum: its JSON field,
// parser, canonical names in value order, every accepted spelling, and
// the error texts of an unknown spelling and an out-of-range value.
type enumPin[T textEnum] struct {
	field     string
	parse     func(string) (T, error)
	canonical []string
	spellings map[string]T
	// unknown is the parser's error for the spelling " Bogus ".
	unknown string
	// outOfRange is String of the value 9; marshal is MarshalText's error
	// for it.
	outOfRange, marshal string
	// set puts one value into a valid scenario; validate is Validate's
	// error once the value is 9.
	set      func(*Scenario, T)
	validate string
}

// checkEnumPin asserts the format one table describes, directly and
// through scenario JSON.
func checkEnumPin[T textEnum, PT interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, p enumPin[T]) {
	t.Run(p.field, func(t *testing.T) {
		for i, name := range p.canonical {
			v := T(i)
			if got := v.String(); got != name {
				t.Errorf("%d.String() = %q, want %q", i, got, name)
			}
			text, err := v.MarshalText()
			if err != nil || string(text) != name {
				t.Errorf("%d.MarshalText() = %q, %v; want %q", i, text, err, name)
			}
			if got, err := p.parse(name); err != nil || got != v {
				t.Errorf("parse(%q) = %v, %v; want %v", name, got, err, v)
			}
		}
		for spelling, want := range p.spellings {
			if got, err := p.parse(spelling); err != nil || got != want {
				t.Errorf("parse(%q) = %v, %v; want %v", spelling, got, err, want)
			}
			var got T
			if err := PT(&got).UnmarshalText([]byte(spelling)); err != nil || got != want {
				t.Errorf("UnmarshalText(%q) = %v, %v; want %v", spelling, got, err, want)
			}
			s, err := Decode(enumJSON(t, p.field, spelling))
			if err != nil {
				t.Errorf("Decode %s=%q: %v", p.field, spelling, err)
				continue
			}
			var ref Scenario
			p.set(&ref, want)
			if got, want := string(mustJSON(t, s)), string(mustJSON(t, ref)); got != want {
				t.Errorf("Decode %s=%q decoded %s, want %s", p.field, spelling, got, want)
			}
		}
		got, err := p.parse(" Bogus ")
		if err == nil || err.Error() != p.unknown || got != 0 {
			t.Errorf("parse(\" Bogus \") = %v, %v; want 0, %s", got, err, p.unknown)
		}
		var into T = 1
		if err := PT(&into).UnmarshalText([]byte(" Bogus ")); err == nil || err.Error() != p.unknown || into != 1 {
			t.Errorf("UnmarshalText(\" Bogus \") = %v, %v; want the value untouched, %s", into, err, p.unknown)
		}
		if _, err := Decode(enumJSON(t, p.field, " Bogus ")); err == nil || err.Error() != "scenario: invalid json: "+p.unknown {
			t.Errorf("Decode %s=\" Bogus \": %v, want scenario: invalid json: %s", p.field, err, p.unknown)
		}
		bad := T(9)
		if got := bad.String(); got != p.outOfRange {
			t.Errorf("9.String() = %q, want %q", got, p.outOfRange)
		}
		if text, err := bad.MarshalText(); err == nil || err.Error() != p.marshal || text != nil {
			t.Errorf("9.MarshalText() = %q, %v; want nil, %s", text, err, p.marshal)
		}
		s := Default()
		p.set(&s, bad)
		if err := s.Validate(); err == nil || err.Error() != p.validate {
			t.Errorf("Validate with %s 9: %v, want %s", p.field, err, p.validate)
		}
	})
}

// enumJSON is a scenario body setting field to spelling (placements as
// a one-entry list).
func enumJSON(t *testing.T, field, spelling string) []byte {
	t.Helper()
	var v any = spelling
	if field == "placements" {
		v = []string{spelling}
	}
	return mustJSON(t, map[string]any{field: v})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnumTextFormat pins the text format of the five spec enums: the
// names a scenario, a CLI flag or a dnnserve request may use, what each
// value prints and marshals as, and the error texts HTTP clients see
// verbatim.
func TestEnumTextFormat(t *testing.T) {
	checkEnumPin(t, enumPin[planner.Mode]{
		field:     "mode",
		parse:     planner.ParseMode,
		canonical: []string{"uniform", "conv-batch", "conv-domain", "auto"},
		spellings: map[string]planner.Mode{
			"": planner.Uniform, "  ": planner.Uniform, "UNIFORM": planner.Uniform,
			"convbatch": planner.ConvBatch, " Conv-Batch ": planner.ConvBatch,
			"convdomain": planner.ConvDomain, "ConvDomain\t": planner.ConvDomain,
			"\nAuto": planner.Auto,
		},
		unknown:    `planner: unknown mode " Bogus " (want uniform|conv-batch|conv-domain|auto)`,
		outOfRange: "Mode(9)",
		marshal:    "planner: cannot marshal invalid mode 9",
		set:        func(s *Scenario, v planner.Mode) { s.Mode = v },
		validate:   "scenario: invalid mode: planner: cannot marshal invalid mode 9",
	})
	checkEnumPin(t, enumPin[planner.Objective]{
		field:     "objective",
		parse:     planner.ParseObjective,
		canonical: []string{"iteration", "time-to-accuracy"},
		spellings: map[string]planner.Objective{
			"": planner.Iteration, " Iteration ": planner.Iteration,
			"tta": planner.TimeToAccuracy, "TTA": planner.TimeToAccuracy,
			"\tTime-To-Accuracy ": planner.TimeToAccuracy,
		},
		unknown:    `planner: unknown objective " Bogus " (want iteration|time-to-accuracy)`,
		outOfRange: "Objective(9)",
		marshal:    "planner: cannot marshal invalid objective 9",
		set:        func(s *Scenario, v planner.Objective) { s.Objective = v },
		validate:   "scenario: invalid objective: planner: cannot marshal invalid objective 9",
	})
	checkEnumPin(t, enumPin[timeline.Policy]{
		field:     "policy",
		parse:     timeline.ParsePolicy,
		canonical: []string{"none", "backprop", "full"},
		spellings: map[string]timeline.Policy{
			"": timeline.PolicyNone, "serial": timeline.PolicyNone, " None": timeline.PolicyNone,
			"overlap": timeline.PolicyBackprop, "BACKPROP ": timeline.PolicyBackprop,
			"async": timeline.PolicyFull, " Full\n": timeline.PolicyFull,
		},
		unknown:    `timeline: unknown overlap policy " Bogus " (want none|backprop|full)`,
		outOfRange: "Policy(9)",
		marshal:    "timeline: cannot marshal invalid policy 9",
		set:        func(s *Scenario, v timeline.Policy) { s.Policy = v },
		validate:   "scenario: invalid policy: timeline: cannot marshal invalid policy 9",
	})
	checkEnumPin(t, enumPin[timeline.Shape]{
		field:     "schedule",
		parse:     timeline.ParseSchedule,
		canonical: []string{"gpipe", "1f1b"},
		spellings: map[string]timeline.Shape{
			"": timeline.GPipe, "fill-drain": timeline.GPipe, " GPipe ": timeline.GPipe,
			"one-forward-one-backward": timeline.OneFOneB, "interleaved": timeline.OneFOneB,
			"\t1F1B": timeline.OneFOneB,
		},
		unknown:    `timeline: unknown schedule shape " Bogus " (want gpipe|1f1b)`,
		outOfRange: "Shape(9)",
		marshal:    "timeline: cannot marshal invalid schedule shape 9",
		set:        func(s *Scenario, v timeline.Shape) { s.Schedule = v },
		validate:   "scenario: invalid schedule: timeline: cannot marshal invalid schedule shape 9",
	})
	checkEnumPin(t, enumPin[grid.Placement]{
		field:     "placements",
		parse:     grid.ParsePlacement,
		canonical: []string{"row-major", "col-major"},
		spellings: map[string]grid.Placement{
			"": grid.RowMajor, "row": grid.RowMajor, " Row-Major ": grid.RowMajor,
			"col": grid.ColMajor, "column-major": grid.ColMajor, "COL-MAJOR\n": grid.ColMajor,
		},
		unknown:    `grid: unknown placement " Bogus " (want row-major|col-major)`,
		outOfRange: "Placement(9)",
		marshal:    "grid: cannot marshal invalid placement 9",
		set:        func(s *Scenario, v grid.Placement) { s.Placements = []grid.Placement{v} },
		validate:   "scenario: invalid placements: grid: cannot marshal invalid placement 9",
	})
	// Negative values print in the same out-of-range form.
	for _, c := range []struct{ got, want string }{
		{planner.Mode(-1).String(), "Mode(-1)"},
		{planner.Objective(-1).String(), "Objective(-1)"},
		{timeline.Policy(-1).String(), "Policy(-1)"},
		{timeline.Shape(-1).String(), "Shape(-1)"},
		{grid.Placement(-1).String(), "Placement(-1)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	// The dnnserve body the HTTP smoke test sends.
	if _, err := Decode([]byte(`{"schedule":"bogus"}`)); err == nil ||
		err.Error() != `scenario: invalid json: timeline: unknown schedule shape "bogus" (want gpipe|1f1b)` {
		t.Errorf(`Decode {"schedule":"bogus"}: %v`, err)
	}
}
