package experiments

import (
	"strings"
	"testing"
)

func TestSensitivitySweep(t *testing.T) {
	s := Default()
	rows, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("sensitivity rows = %d", len(rows))
	}
	byName := map[string]SensitivityRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.TotalSpeedup <= 0 || r.BestGrid == "" {
			t.Fatalf("row %+v incomplete", r)
		}
	}
	// A slower network makes communication matter more: the comm speedup
	// available to the integrated approach should not shrink on 10GigE
	// versus the reference fabric.
	if byName["commodity 10GigE"].TotalSpeedup < byName["fat NVLink-class"].TotalSpeedup {
		t.Fatalf("slow networks should benefit at least as much: 10GigE %.2f vs NVLink %.2f",
			byName["commodity 10GigE"].TotalSpeedup, byName["fat NVLink-class"].TotalSpeedup)
	}
	if out := RenderSensitivity(rows); !strings.Contains(out, "Cori-KNL") {
		t.Fatal("sensitivity rendering incomplete")
	}
}

func TestMemoryStudy(t *testing.T) {
	s := Default()
	rows := s.MemoryStudy(2048, 512)
	if len(rows) != 10 { // divisors of 512
		t.Fatalf("memory rows = %d", len(rows))
	}
	// Weight memory must fall monotonically with Pr; activations rise.
	for i := 1; i < len(rows); i++ {
		if rows[i].WeightGB >= rows[i-1].WeightGB {
			t.Fatalf("weight GB should fall with Pr: %v → %v", rows[i-1], rows[i])
		}
		if rows[i].ActivationGB <= rows[i-1].ActivationGB {
			t.Fatalf("activation GB should rise with Pr: %v → %v", rows[i-1], rows[i])
		}
		if rows[i].TotalGB < rows[i].TwoDLowerBoundGB {
			t.Fatalf("grid %s beats the 2D lower bound", rows[i].Grid)
		}
	}
	if out := RenderMemory(rows, 2048, 512); !strings.Contains(out, "2D lower bound") {
		t.Fatal("memory rendering incomplete")
	}
}

func TestOneByOneStudy(t *testing.T) {
	s := Default()
	// Beyond-batch: P = 4·B forces Pr ≥ 4.
	row, err := s.OneByOneStudy(128, 512)
	if err != nil {
		t.Fatal(err)
	}
	if row.DomainLayers == 0 {
		t.Fatal("a 1×1-dominated network beyond P=B should use domain parallelism")
	}
	if row.ZeroHalo1x1 == 0 {
		t.Fatal("some domain layers should be zero-halo 1×1 convs")
	}
	if row.ModelLayers == 0 {
		t.Fatal("the FC classifier should be model-parallel")
	}
	if out := RenderOneByOne(row); !strings.Contains(out, "ZERO halo") {
		t.Fatal("one-by-one rendering incomplete")
	}
}

// TestConvergenceDegradesWithBatchSize: the Section 4 accuracy concern —
// at a fixed epoch budget, larger batches end with a worse training loss.
func TestConvergenceDegradesWithBatchSize(t *testing.T) {
	rows, err := Convergence(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FinalLoss <= rows[i-1].FinalLoss {
			t.Fatalf("final loss should degrade with B: B=%d %.4f vs B=%d %.4f",
				rows[i-1].B, rows[i-1].FinalLoss, rows[i].B, rows[i].FinalLoss)
		}
		if rows[i].Updates >= rows[i-1].Updates {
			t.Fatal("update counts should fall with B")
		}
	}
	if out := RenderConvergence(rows, 4); !strings.Contains(out, "MaxPc") {
		t.Fatal("convergence rendering incomplete")
	}
}
