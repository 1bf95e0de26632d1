// Package convergence models the statistical cost of data parallelism:
// how many optimization steps a network needs to reach a target accuracy
// as a function of the global batch size B. The paper this repository
// reproduces minimizes time *per iteration*; what a user actually
// minimizes is wall-clock time *to a target accuracy*, and Shallue et
// al. ("Measuring the Effects of Data Parallelism on Neural Network
// Training") show the two objectives diverge because steps-to-target
// S(B) follows three regimes:
//
//   - perfect scaling: for B well below a critical batch size, doubling
//     B halves the steps (S(B) ≈ S(1)/B — the total number of training
//     examples consumed is constant);
//   - diminishing returns: around the critical batch size the curve
//     bends — extra data parallelism still reduces steps, but at a
//     worsening exchange rate of examples for steps;
//   - maximal data parallelism: far above the critical batch size the
//     curve flattens onto a floor (S(B) → S(1)/CriticalB) and further
//     batch growth buys nothing statistically.
//
// Curve captures that shape in closed form with three parameters, so
// the planner can price a candidate batch size as
// S(B) × IterSeconds(B, grid, …) and search B itself.
package convergence

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Curve is the steps-to-target model S(B), parametrized by the three
// regime constants:
//
//	S(B) = StepsAtB1 · (1 + (B^Exponent − 1) / CriticalB^Exponent)^(1/Exponent) / B
//
// The form interpolates the Shallue regimes exactly: S(1) = StepsAtB1;
// for B ≪ CriticalB it tracks the perfect-scaling branch StepsAtB1/B;
// for B ≫ CriticalB it flattens onto the maximal-data-parallelism floor
// StepsAtB1/CriticalB; and Exponent sets how sharply the
// diminishing-returns knee at B ≈ CriticalB bends between the two
// asymptotes (larger = sharper). Two properties hold for every valid
// parametrization (property-tested):
//
//   - S(B) is monotone non-increasing in B — more data parallelism never
//     costs steps;
//   - S(B)·B, the total number of examples consumed, is monotone
//     non-decreasing in B — more data parallelism never saves examples.
//
// Steps returns a continuous value (a model, not a schedule); callers
// that need an integer step budget should take the ceiling themselves.
type Curve struct {
	// StepsAtB1 is S(1): the steps to the target at batch size 1, the
	// numerator of the perfect-scaling branch. Must be > 0.
	StepsAtB1 float64 `json:"steps_at_b1"`
	// CriticalB is the critical batch size: the knee where perfect
	// scaling gives way to diminishing returns, and the effective
	// maximal useful data parallelism (the step floor is
	// StepsAtB1/CriticalB). Must be ≥ 1.
	CriticalB float64 `json:"critical_b"`
	// Exponent sets the sharpness of the diminishing-returns knee
	// (1 = the gentle hyperbolic bend of the gradient-noise-scale
	// model; larger values approach a hard two-piece curve). Must
	// be > 0.
	Exponent float64 `json:"exponent"`
}

// Validate reports the first problem with the parametrization. A valid
// curve satisfies both monotonicity properties for every B ≥ 1.
func (c Curve) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("convergence: %s must be finite, got %g", name, v)
		}
		return nil
	}
	if err := check("steps_at_b1", c.StepsAtB1); err != nil {
		return err
	}
	if err := check("critical_b", c.CriticalB); err != nil {
		return err
	}
	if err := check("exponent", c.Exponent); err != nil {
		return err
	}
	if c.StepsAtB1 <= 0 {
		return fmt.Errorf("convergence: steps_at_b1 must be > 0, got %g", c.StepsAtB1)
	}
	if c.CriticalB < 1 {
		return fmt.Errorf("convergence: critical_b must be ≥ 1, got %g", c.CriticalB)
	}
	if c.Exponent <= 0 {
		return fmt.Errorf("convergence: exponent must be > 0, got %g", c.Exponent)
	}
	return nil
}

// IsZero reports whether the curve is entirely unset (the planner's
// signal that no convergence model was configured).
func (c Curve) IsZero() bool {
	return c == Curve{}
}

// Steps returns S(B), the modeled number of optimization steps to reach
// the target accuracy at global batch size B. Panics on B < 1 (a batch
// must hold at least one sample) — public boundaries validate first.
func (c Curve) Steps(B int) float64 {
	if B < 1 {
		panic(fmt.Sprintf("convergence: Steps needs B ≥ 1, got %d", B))
	}
	b := float64(B)
	e := c.Exponent
	// (1 + (b^e − 1)/Bc^e)^(1/e) / b, computed in log space so curves
	// with large StepsAtB1 and sharp knees stay finite.
	inner := 1 + (math.Pow(b, e)-1)/math.Pow(c.CriticalB, e)
	return c.StepsAtB1 * math.Pow(inner, 1/e) / b
}

// StepFloor returns the maximal-data-parallelism floor lim_{B→∞} S(B) =
// StepsAtB1/CriticalB: no batch size can reach the target in fewer
// steps.
func (c Curve) StepFloor() float64 {
	return c.StepsAtB1 / c.CriticalB
}

// String renders the three regime constants.
func (c Curve) String() string {
	return fmt.Sprintf("S(1)=%.4g steps, critical B=%.4g, knee exponent %.3g", c.StepsAtB1, c.CriticalB, c.Exponent)
}

// MarshalJSON emits the three parameters; invalid curves are rejected
// rather than serialized (a spec file must not round-trip a curve the
// planner would refuse).
func (c Curve) MarshalJSON() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	type wire Curve // shed the method set to avoid recursion
	return json.Marshal(wire(c))
}

// UnmarshalJSON decodes and validates, so Marshal → Unmarshal round-trips
// exactly and no invalid curve survives decoding.
func (c *Curve) UnmarshalJSON(data []byte) error {
	type wire Curve
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := Curve(w)
	if err := out.Validate(); err != nil {
		return err
	}
	*c = out
	return nil
}

// presets maps nn.Preset names to their modeled steps-to-target curves.
// The constants follow the regime shapes Shallue et al. measure rather
// than any single published run: StepsAtB1 is sized so the
// perfect-scaling branch matches the network's conventional training
// budget (epochs × dataset / B examples), and CriticalB tracks their
// observation that the knee moves right with network scale and
// optimizer quality — small classic networks bend near 10³, modern
// residual networks near 10⁴.
var presets = map[string]Curve{
	// AlexNet: ~90 epochs × 1.2 M ImageNet examples on the
	// perfect-scaling branch; an AlexNet-era knee at 2 K.
	"alexnet": {StepsAtB1: 1.08e8, CriticalB: 2048, Exponent: 2},
	// VGG16 needs a similar example budget but bends earlier: deeper
	// plain (non-residual) stacks tolerate less data parallelism.
	"vgg16": {StepsAtB1: 1.0e8, CriticalB: 1024, Exponent: 2},
	// OneByOneNet: a small modern 1×1-dominated stack; cheap per
	// example and knee pushed right of the classic nets.
	"onebyone": {StepsAtB1: 3.0e7, CriticalB: 4096, Exponent: 2},
	// ResNet-50: the large-batch workhorse — knee near 8 K (the regime
	// the 1-hour/large-batch ImageNet results exploit).
	"resnet50": {StepsAtB1: 1.2e8, CriticalB: 8192, Exponent: 2},
}

// Preset returns the modeled steps-to-target curve for a preset network
// name (the same keys nn.Preset accepts, case-insensitive).
func Preset(name string) (Curve, error) {
	if c, ok := presets[strings.ToLower(strings.TrimSpace(name))]; ok {
		return c, nil
	}
	return Curve{}, fmt.Errorf("convergence: no steps-to-target preset for network %q (want alexnet|vgg16|onebyone|resnet50)", name)
}
