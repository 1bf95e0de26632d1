package planner

import (
	"fmt"
	"strings"
)

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

func (o Objective) String() string {
	switch o {
	case Iteration:
		return "iteration"
	case TimeToAccuracy:
		return "time-to-accuracy"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective converts a flag or spec value into an Objective. The
// empty string parses as Iteration (the zero value), and "tta" is
// accepted as a shorthand for "time-to-accuracy", mirroring ParseMode.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "iteration", "":
		return Iteration, nil
	case "time-to-accuracy", "tta":
		return TimeToAccuracy, nil
	}
	return Iteration, fmt.Errorf("planner: unknown objective %q (want iteration|time-to-accuracy)", s)
}

// MarshalText implements encoding.TextMarshaler so an Objective embeds
// in JSON specs as its canonical string. Out-of-range values error
// rather than emitting an unparseable "Objective(n)".
func (o Objective) MarshalText() ([]byte, error) {
	switch o {
	case Iteration, TimeToAccuracy:
		return []byte(o.String()), nil
	}
	return nil, fmt.Errorf("planner: cannot marshal invalid objective %d", int(o))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseObjective,
// so String → Parse round-trips through JSON exactly.
func (o *Objective) UnmarshalText(text []byte) error {
	v, err := ParseObjective(string(text))
	if err != nil {
		return err
	}
	*o = v
	return nil
}
