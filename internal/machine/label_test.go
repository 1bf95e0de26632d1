package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtMachine and fmtTopology are the fmt.Sprintf formatting String
// replaced, kept as the byte-identity oracle.
func fmtMachine(m Machine) string {
	return fmt.Sprintf("%s: alpha=%.3gs, 1/beta=%.3g GB/s, peak=%.3g TFLOP/s",
		m.Name, m.Alpha, m.BandwidthBytes()/1e9, m.PeakFlops/1e12)
}

func fmtTopology(t Topology) string {
	if len(t.Levels) == 0 {
		return t.Name
	}
	if t.Depth() == 1 {
		return fmtMachine(t.Machine())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", t.Name)
	for i, lv := range t.Levels {
		if i > 0 {
			b.WriteByte(',')
		}
		name := lv.Name
		if name == "" {
			name = fmt.Sprintf("l%d", i)
		}
		fmt.Fprintf(&b, " %s", name)
		if lv.GroupSize > 0 {
			fmt.Fprintf(&b, "[%d ranks]", lv.GroupSize)
		}
		fmt.Fprintf(&b, " alpha=%.3gs 1/beta=%.3g GB/s", lv.Link.Alpha, lv.Link.BandwidthBytes()/1e9)
	}
	fmt.Fprintf(&b, ", peak=%.3g TFLOP/s", t.PeakFlops/1e12)
	return b.String()
}

// Machine and Topology labels, built with strconv, are byte-identical to
// their fmt formatting: negative, zero, tiny, huge and non-finite
// numbers, unnamed and named levels, one to MaxLevels levels.
func TestLabelsMatchFmt(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), -1.5e-6, 5e-7, 1, 0.1, 999.5, 1234567, -3e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i, a := range values {
		beta := values[(i+3)%len(values)]
		peak := values[(i+7)%len(values)]
		m := Machine{Name: "m" + strings.Repeat("x", i), Alpha: a, Beta: beta, PeakFlops: peak}
		if got, want := m.String(), fmtMachine(m); got != want {
			t.Fatalf("Machine.String = %q, want %q", got, want)
		}
		for depth := 1; depth <= MaxLevels; depth++ {
			topo := Topology{Name: "topo-" + strings.Repeat("y", depth), PeakFlops: peak}
			for l := 0; l < depth; l++ {
				lv := Level{Link: Link{Alpha: values[(i+l)%len(values)], Beta: values[(i+2*l+1)%len(values)]}}
				if l%2 == 1 {
					lv.Name = "level-" + strings.Repeat("z", l)
				}
				if l < depth-1 {
					lv.GroupSize = []int{-4, 0, 1, 16, 1 << 40}[(i+l)%5]
				}
				topo.Levels = append(topo.Levels, lv)
			}
			if got, want := topo.String(), fmtTopology(topo); got != want {
				t.Fatalf("Topology.String = %q, want %q", got, want)
			}
		}
	}
	for _, topo := range []Topology{{Name: "empty"}, CoriKNLNodes(16), Flat(CoriKNL())} {
		if got, want := topo.String(), fmtTopology(topo); got != want {
			t.Fatalf("Topology.String = %q, want %q", got, want)
		}
	}
}
