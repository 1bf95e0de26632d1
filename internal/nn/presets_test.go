package nn

import (
	"reflect"
	"strings"
	"testing"
)

// PresetKey answers exactly what Preset would, without building: the
// canonical key of every preset under any case and padding, and
// Preset's own error for an unknown name.
func TestPresetKeyMatchesPreset(t *testing.T) {
	for _, name := range PresetNames() {
		for _, spelling := range []string{name, strings.ToUpper(name), "  " + name + "\t"} {
			key, err := PresetKey(spelling)
			if err != nil || key != name {
				t.Fatalf("PresetKey(%q) = %q, %v; want %q", spelling, key, err, name)
			}
			net, err := Preset(spelling)
			if err != nil || net == nil {
				t.Fatalf("Preset(%q): %v", spelling, err)
			}
		}
	}
	_, keyErr := PresetKey("lenet")
	_, netErr := Preset("lenet")
	if keyErr == nil || netErr == nil || keyErr.Error() != netErr.Error() {
		t.Fatalf("unknown preset errors differ: %v vs %v", keyErr, netErr)
	}
	if want := `nn: unknown network preset "lenet" (want alexnet|vgg16|onebyone|resnet50)`; keyErr.Error() != want {
		t.Fatalf("error %q, want %q", keyErr, want)
	}
}

// Every spelling of a preset returns the one shared network, built by
// its constructor.
func TestPresetIsShared(t *testing.T) {
	for _, name := range PresetNames() {
		first, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spelling := range []string{name, strings.ToUpper(name), " " + name + " ", "\t" + strings.ToUpper(name[:1]) + name[1:]} {
			if net, err := Preset(spelling); err != nil || net != first {
				t.Fatalf("Preset(%q) = %p, %v; want the shared %p", spelling, net, err, first)
			}
		}
	}
	if a, _ := Preset("AlexNet "); !reflect.DeepEqual(a, AlexNet()) || a == AlexNet() {
		t.Fatal(`Preset("AlexNet ") must equal, but not be, a fresh AlexNet()`)
	}
}
