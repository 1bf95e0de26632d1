package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// TestPipelineNormalize covers the canonicalization rules of the
// pipeline block: the legacy pipeline_stages sugar folds onto it, cuts
// imply the stage count, "auto" and degenerate blocks normalize away,
// and any real stage partition forces timeline scoring.
func TestPipelineNormalize(t *testing.T) {
	// Legacy sugar respells onto the block.
	s := Default()
	s.PipelineStages = 2
	n := s.Normalize()
	if n.PipelineStages != 0 {
		t.Errorf("pipeline_stages should clear after canonicalization, got %d", n.PipelineStages)
	}
	if n.Pipeline == nil || n.Pipeline.Stages != 2 {
		t.Fatalf("sugar did not canonicalize onto the pipeline block: %+v", n.Pipeline)
	}
	if !n.Timeline {
		t.Error("a stage partition must imply timeline scoring")
	}
	if !reflect.DeepEqual(n.Normalize(), n) {
		t.Error("Normalize is not idempotent on the pipeline block")
	}

	// S = 1 sugar is the default and vanishes.
	s1 := Default()
	s1.PipelineStages = 1
	if n1 := s1.Normalize(); n1.PipelineStages != 0 || n1.Pipeline != nil || n1.Timeline {
		t.Errorf("pipeline_stages=1 should normalize away entirely: %+v", n1)
	}

	// "auto" partition is the default and drops; a degenerate block
	// drops entirely.
	s2 := Default()
	s2.Pipeline = &PipelineSpec{Stages: 2, Partition: &PartitionSpec{Auto: true}}
	if n2 := s2.Normalize(); n2.Pipeline == nil || n2.Pipeline.Partition != nil {
		t.Errorf(`"auto" partition should drop as the default: %+v`, n2.Pipeline)
	}
	s3 := Default()
	s3.Pipeline = &PipelineSpec{Stages: 1}
	if n3 := s3.Normalize(); n3.Pipeline != nil || n3.Timeline {
		t.Errorf("degenerate pipeline block should normalize away: %+v", n3.Pipeline)
	}

	// Cuts imply the stage count.
	s4 := Default()
	s4.Pipeline = &PipelineSpec{Partition: &PartitionSpec{Cuts: []int{2, 5}}}
	n4 := s4.Normalize()
	if n4.Pipeline == nil || n4.Pipeline.Stages != 3 {
		t.Fatalf("2 cuts should derive 3 stages: %+v", n4.Pipeline)
	}
	if !n4.Timeline {
		t.Error("a pinned partition must imply timeline scoring")
	}
}

// TestPipelineCanonicalKey: the two spellings of one staged question —
// legacy pipeline_stages and the pipeline block — must share canonical
// bytes, so a respelled request hits the same dnnserve cache entry.
func TestPipelineCanonicalKey(t *testing.T) {
	legacy := Default()
	legacy.PipelineStages = 2
	block := Default()
	block.Timeline = true
	block.Pipeline = &PipelineSpec{Stages: 2, Partition: &PartitionSpec{Auto: true}}
	kl, err := legacy.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := block.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kl, kb) {
		t.Fatalf("pipeline respelling changed the canonical key:\n%s\n%s", kl, kb)
	}
	// A pinned partition is a different question.
	pinned := Default()
	pinned.Pipeline = &PipelineSpec{Partition: &PartitionSpec{Cuts: []int{6}}}
	kp, err := pinned.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(kl, kp) {
		t.Fatal("pinned partition shares a canonical key with the auto search")
	}
}

// TestExplicitSingleStageBesidePipelineBlock: "pipeline_stages": 1 next
// to a pipeline block is the default stage count spelled out, the same
// question as the block alone, so both bodies canonicalize to the same
// bytes (one dnnserve cache entry) and resolve to the same search.
func TestExplicitSingleStageBesidePipelineBlock(t *testing.T) {
	const base = `"network":"alexnet","batch":2048,"procs":512`
	for _, block := range []string{`{"stages":2}`, `{"stages":4,"max_partitions":8}`, `{"partition":[6]}`} {
		var keys [2][]byte
		var opts [2]any
		for i, body := range []string{
			"{" + base + `,"pipeline_stages":1,"pipeline":` + block + "}",
			"{" + base + `,"pipeline":` + block + "}",
		} {
			s, err := Decode([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			if keys[i], err = s.Canonical(); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			r, err := s.Resolve()
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			opts[i] = r.Options
		}
		if !bytes.Equal(keys[0], keys[1]) {
			t.Errorf("pipeline %s: an explicit single stage changes the canonical key:\n%s\n%s", block, keys[0], keys[1])
		}
		if !reflect.DeepEqual(opts[0], opts[1]) {
			t.Errorf("pipeline %s: an explicit single stage changes the resolved options", block)
		}
	}
}

// TestPartitionSpecJSON pins the wire form: "auto" renders as the
// literal string, cuts as a bare array, and anything else is rejected.
func TestPartitionSpecJSON(t *testing.T) {
	auto, err := json.Marshal(PartitionSpec{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if string(auto) != `"auto"` {
		t.Errorf(`auto renders as %s, want "auto"`, auto)
	}
	cuts, err := json.Marshal(PartitionSpec{Cuts: []int{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if string(cuts) != `[2,5]` {
		t.Errorf("cuts render as %s, want [2,5]", cuts)
	}
	for _, raw := range []string{`"auto"`, `[2,5]`} {
		var p PartitionSpec
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		back, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != raw {
			t.Errorf("round trip %s → %s", raw, back)
		}
	}
	var p PartitionSpec
	if err := json.Unmarshal([]byte(`"balanced"`), &p); err == nil {
		t.Error(`only "auto" is a valid partition string`)
	}
	if err := json.Unmarshal([]byte(`42`), &p); err == nil {
		t.Error("a bare number is not a partition")
	}
}

// TestPipelineValidateErrors drives the staged-planning validation
// paths and the fields a client would key on.
func TestPipelineValidateErrors(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Scenario)
		field  string
	}{
		"both spellings": {func(s *Scenario) {
			s.PipelineStages = 2
			s.Pipeline = &PipelineSpec{Stages: 2}
		}, "pipeline_stages"},
		"negative block stages": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: -2}
		}, "pipeline.stages"},
		"negative partition cap": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{MaxPartitions: -1}
		}, "pipeline.max_partitions"},
		"auto with cuts": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Partition: &PartitionSpec{Auto: true, Cuts: []int{2}}}
		}, "pipeline.partition"},
		"cuts stage mismatch": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 2, Partition: &PartitionSpec{Cuts: []int{1, 3}}}
		}, "pipeline.partition"},
		"non-increasing cuts": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Partition: &PartitionSpec{Cuts: []int{3, 3}}}
		}, "pipeline.partition"},
		"cut out of range": {func(s *Scenario) {
			// AlexNet has 8 weighted layers: cut positions stop at 7.
			s.Pipeline = &PipelineSpec{Partition: &PartitionSpec{Cuts: []int{8}}}
		}, "pipeline.partition"},
		"stages exceed layers": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 16}
		}, "pipeline.stages"},
		"stages do not divide procs": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 3} // 512 % 3 ≠ 0
		}, "pipeline.stages"},
		"stages sans timeline": {func(s *Scenario) {
			s.Pipeline = &PipelineSpec{Stages: 2} // hand-built, not normalized
		}, "pipeline.stages"},
		"per-stage grid clash": {func(s *Scenario) {
			s.Timeline = true
			s.Pipeline = &PipelineSpec{Stages: 2}
			s.Grid = "8x64" // 512 ranks per stage × 2 stages ≠ procs=512
		}, "grid"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s := Default()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Errorf("field = %q, want %q (%v)", ve.Field, tc.field, err)
			}
		})
	}

	// The per-stage pinned grid validates when it tiles the machine.
	ok := Default()
	ok.Timeline = true
	ok.Pipeline = &PipelineSpec{Stages: 2}
	ok.Grid = "8x32" // 256 ranks per stage × 2 stages = 512
	if err := ok.Validate(); err != nil {
		t.Fatalf("per-stage pinned grid should validate: %v", err)
	}
}

// TestPipelineResolve checks the lowering of the pipeline block onto
// planner.Options.
func TestPipelineResolve(t *testing.T) {
	s := Default()
	s.Pipeline = &PipelineSpec{
		Stages:        2,
		Partition:     &PartitionSpec{Cuts: []int{6}},
		MaxPartitions: 128,
	}
	r, err := s.Normalize().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	o := r.Options
	if !reflect.DeepEqual(o.StageCounts, []int{2}) || o.MaxPartitions != 128 {
		t.Errorf("stages/cap not lowered: S=%v cap=%d", o.StageCounts, o.MaxPartitions)
	}
	if !reflect.DeepEqual(o.Partition, []int{6}) {
		t.Errorf("partition not lowered: %v", o.Partition)
	}
	if !o.UseTimeline {
		t.Error("staged resolve must use the timeline scorer")
	}

	// The legacy sugar lowers identically.
	leg := Default()
	leg.PipelineStages = 2
	rl, err := leg.Normalize().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rl.Options.StageCounts, []int{2}) || rl.Options.Partition != nil {
		t.Errorf("legacy sugar lowered differently: %+v", rl.Options)
	}
}
