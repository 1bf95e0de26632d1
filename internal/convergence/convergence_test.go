package convergence

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dnnparallel/internal/nn"
)

// curves under test: every preset plus a grid of hand-picked and random
// valid parametrizations (seeded — the property sweep is deterministic).
func testCurves() []Curve {
	cs := []Curve{
		{StepsAtB1: 1e6, CriticalB: 1, Exponent: 1},     // knee at B=1: pure floor
		{StepsAtB1: 1e6, CriticalB: 1024, Exponent: 1},  // gentle hyperbolic knee
		{StepsAtB1: 1e8, CriticalB: 2048, Exponent: 2},  // the alexnet preset shape
		{StepsAtB1: 5e4, CriticalB: 7, Exponent: 0.5},   // sub-linear knee, tiny Bc
		{StepsAtB1: 3e9, CriticalB: 65536, Exponent: 8}, // near-two-piece knee
		{StepsAtB1: 42, CriticalB: 3.5, Exponent: 1.25}, // non-integer Bc
	}
	for _, name := range nn.PresetNames() {
		c, err := Preset(name)
		if err != nil {
			panic(err)
		}
		cs = append(cs, c)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		cs = append(cs, Curve{
			StepsAtB1: math.Exp(rng.Float64()*20 - 2),
			CriticalB: 1 + math.Exp(rng.Float64()*14-2),
			Exponent:  math.Exp(rng.Float64()*4 - 2),
		})
	}
	return cs
}

// TestStepsMonotone pins the two regime properties on every test curve
// over a dense batch sweep: S(B) never increases with B (more data
// parallelism never costs steps) and S(B)·B never decreases (it never
// saves examples).
func TestStepsMonotone(t *testing.T) {
	for _, c := range testCurves() {
		if err := c.Validate(); err != nil {
			t.Fatalf("test curve invalid: %v", err)
		}
		prevS, prevE := math.Inf(1), 0.0
		for B := 1; B <= 1<<20; B = B*5/4 + 1 {
			s := c.Steps(B)
			e := s * float64(B) // examples consumed
			if math.IsNaN(s) || s <= 0 {
				t.Fatalf("%v: S(%d) = %g", c, B, s)
			}
			// 1e-12 relative slack: the log-space evaluation reassociates.
			if s > prevS*(1+1e-12) {
				t.Errorf("%v: S(B) increased at B=%d: %g > %g", c, B, s, prevS)
			}
			if e < prevE*(1-1e-12) {
				t.Errorf("%v: S(B)·B decreased at B=%d: %g < %g", c, B, e, prevE)
			}
			prevS, prevE = s, e
		}
	}
}

// TestRegimeShape pins the three Shallue regimes on the preset-shaped
// curve: S(1) = StepsAtB1 exactly, the perfect-scaling branch below the
// knee, and the maximal-data-parallelism floor far above it.
func TestRegimeShape(t *testing.T) {
	c := Curve{StepsAtB1: 1e8, CriticalB: 2048, Exponent: 2}
	if got := c.Steps(1); math.Abs(got-c.StepsAtB1) > 1e-6*c.StepsAtB1 {
		t.Errorf("S(1) = %g, want StepsAtB1 = %g", got, c.StepsAtB1)
	}
	// Perfect scaling: at B = Bc/32 the curve sits within 0.1% of S(1)/B.
	B := int(c.CriticalB) / 32
	if got, want := c.Steps(B), c.StepsAtB1/float64(B); math.Abs(got-want) > 1e-3*want {
		t.Errorf("perfect-scaling regime: S(%d) = %g, want ≈ %g", B, got, want)
	}
	// Knee: at B = Bc the curve is 2^(1/e) ≈ 41%% above the floor.
	knee := c.Steps(int(c.CriticalB))
	if ratio := knee / c.StepFloor(); math.Abs(ratio-math.Sqrt2) > 1e-3 {
		t.Errorf("knee: S(Bc)/floor = %g, want ≈ √2", ratio)
	}
	// Maximal data parallelism: at B = 1024·Bc the curve is on the floor.
	far := c.Steps(1024 * int(c.CriticalB))
	if ratio := far / c.StepFloor(); ratio < 1 || ratio > 1.001 {
		t.Errorf("floor: S(1024·Bc)/floor = %g, want ≈ 1 from above", ratio)
	}
}

// TestPresetsCoverNetworks requires one valid curve per nn preset, so a
// new network preset cannot ship without a convergence model.
func TestPresetsCoverNetworks(t *testing.T) {
	for _, name := range nn.PresetNames() {
		c, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Preset(%q) invalid: %v", name, err)
		}
	}
	if _, err := Preset(" AlexNet "); err != nil {
		t.Errorf("preset lookup must be case-insensitive: %v", err)
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset must error")
	}
}

// TestJSONRoundTrip pins Marshal → Unmarshal → Marshal byte-exactness
// and the rejection of invalid curves on both sides.
func TestJSONRoundTrip(t *testing.T) {
	c, _ := Preset("alexnet")
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip drifted: %+v vs %+v", c, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("second marshal drifted: %s vs %s", data, again)
	}
	if _, err := json.Marshal(Curve{StepsAtB1: -1, CriticalB: 2, Exponent: 1}); err == nil {
		t.Error("marshaling an invalid curve must error")
	}
	if err := json.Unmarshal([]byte(`{"steps_at_b1":1,"critical_b":0.5,"exponent":1}`), &back); err == nil {
		t.Error("unmarshaling an invalid curve must error")
	}
	if err := json.Unmarshal([]byte(`{"steps_at_b1":1e6,"critical_b":512,"exponent":1}`), &back); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
}

// TestValidate covers every rejection branch.
func TestValidate(t *testing.T) {
	cases := []struct {
		c    Curve
		want string
	}{
		{Curve{0, 10, 1}, "steps_at_b1"},
		{Curve{-5, 10, 1}, "steps_at_b1"},
		{Curve{math.NaN(), 10, 1}, "steps_at_b1"},
		{Curve{1e6, 0.25, 1}, "critical_b"},
		{Curve{1e6, math.Inf(1), 1}, "critical_b"},
		{Curve{1e6, 10, 0}, "exponent"},
		{Curve{1e6, 10, -2}, "exponent"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want mention of %s", tc.c, err, tc.want)
		}
	}
	if err := (Curve{1e6, 1024, 2}).Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	if !(Curve{}).IsZero() {
		t.Error("zero curve must report IsZero")
	}
	if (Curve{1e6, 1024, 2}).IsZero() {
		t.Error("set curve must not report IsZero")
	}
}

// TestStepsPanicsBelowOne pins the boundary contract: public layers
// validate B before calling Steps.
func TestStepsPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Steps(0) must panic")
		}
	}()
	c, _ := Preset("alexnet")
	c.Steps(0)
}
