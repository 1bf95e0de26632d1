package dnnparallel

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dnnparallel/internal/nn"
)

// TestSharedPresetsStayReadOnly runs every façade entry point over every
// preset — Plan, Simulate and a staged Validate, on flat, hierarchical,
// timeline and two-stage scenarios — and then checks that each shared
// preset network still equals a freshly built one: no caller may write
// into the network nn.Preset shares.
func TestSharedPresetsStayReadOnly(t *testing.T) {
	fresh := map[string]func() *nn.Network{
		"alexnet": nn.AlexNet, "vgg16": nn.VGG16, "onebyone": nn.OneByOneNet, "resnet50": nn.ResNet50Proxy,
	}
	levels := WithLevels(
		LevelSpec{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 4},
		LevelSpec{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 16},
		LevelSpec{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	)
	for _, name := range nn.PresetNames() {
		build, ok := fresh[name]
		if !ok {
			t.Fatalf("no constructor listed for preset %q", name)
		}
		flat := New(name, 512, 32)
		flat.Network = " " + strings.ToUpper(name) + "\t" // a respelling shares the preset
		cases := []struct {
			sc   Scenario
			grid Option // the pinned grid Simulate needs
		}{
			{flat, WithGrid(4, 8)},
			{New(name, 512, 32, levels), WithGrid(8, 4)},
			{New(name, 512, 32, levels, WithTimeline(PolicyBackprop), WithMicroBatches(ScheduleOneFOneB, 1, 2)), WithGrid(4, 8)},
			{New(name, 512, 32, levels, WithStages(2), WithMicroBatches(ScheduleOneFOneB, 1, 2)), WithGrid(4, 4)},
		}
		for i, c := range cases {
			if err := c.sc.Normalize().Validate(); err != nil {
				t.Fatalf("%s case %d: Validate: %v", name, i, err)
			}
			if _, err := Plan(c.sc); err != nil {
				t.Fatalf("%s case %d: Plan: %v", name, i, err)
			}
			pinned := c.sc
			c.grid(&pinned)
			if _, err := Simulate(pinned); err != nil {
				t.Fatalf("%s case %d: Simulate: %v", name, i, err)
			}
		}
		shared, err := nn.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, build()) {
			t.Fatalf("preset %q no longer equals a freshly built network", name)
		}
	}
}

// TestConcurrentPlansSharePreset has eight goroutines plan the same
// preset at once; under -race this checks that the shared network is
// built once and only read, and every answer equals the serial one.
func TestConcurrentPlansSharePreset(t *testing.T) {
	sc := New("resnet50", 1024, 64, WithTopology(8, 8))
	want, err := Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*PlanResult, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Plan(sc)
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(res.Raw.Best, want.Raw.Best) || !reflect.DeepEqual(res.Raw.All, want.Raw.All) {
			t.Fatalf("goroutine %d planned a different answer", i)
		}
	}
}
