package planner

import "dnnparallel/internal/enum"

// Objective selects the quantity Optimize minimizes.
type Objective int

const (
	// Iteration minimizes predicted time per training iteration at the
	// fixed global batch size B — the paper's objective, and the zero
	// value, so existing callers are unchanged.
	Iteration Objective = iota
	// TimeToAccuracy minimizes predicted wall-clock time to a target
	// accuracy, S(B) × IterSeconds(B, grid, …), where S is the
	// Options.Curve steps-to-target model. With Options.BatchSizes it
	// searches the global batch size itself as an outer dimension: the
	// best (B, grid) pair under this objective is generally not the best
	// per-iteration pair, because larger batches buy cheaper iterations
	// at a worsening statistical exchange rate (the Shallue
	// diminishing-returns regime modeled by internal/convergence).
	TimeToAccuracy
)

var objectives = enum.New("objective", "objective",
	[]string{"iteration", "time-to-accuracy"},
	map[string]Objective{"tta": TimeToAccuracy})

func (o Objective) String() string { return objectives.String(o) }

// ParseObjective converts a flag or spec value into an Objective; "tta"
// is shorthand for "time-to-accuracy".
func ParseObjective(s string) (Objective, error) { return objectives.Parse(s) }

// Validate returns MarshalText's error, or nil without allocating.
func (o Objective) Validate() error { return objectives.Validate(o) }

// MarshalText implements encoding.TextMarshaler so an Objective embeds
// in JSON specs as its canonical string.
func (o Objective) MarshalText() ([]byte, error) { return objectives.Marshal(o) }

// UnmarshalText implements encoding.TextUnmarshaler via ParseObjective.
func (o *Objective) UnmarshalText(text []byte) error { return objectives.Unmarshal(o, text) }
