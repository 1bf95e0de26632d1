package nn

import (
	"reflect"
	"testing"
)

// The presets' distinct weighted layers: ResNet50Proxy's 50 weighted
// layers fall into 18 classes, VGG16's 16 into 12, AlexNet's 8 into 8.
func TestLayerClassCounts(t *testing.T) {
	for _, c := range []struct {
		net                *Network
		weighted, distinct int
	}{{ResNet50Proxy(), 50, 18}, {VGG16(), 16, 12}, {AlexNet(), 8, 8}} {
		classes := c.net.LayerClasses()
		distinct := 0
		for k, r := range classes {
			if r == k {
				distinct++
			}
			if r > k || classes[r] != r {
				t.Fatalf("%s: position %d names class %d, which is not an earlier class head", c.net.Name, k, r)
			}
			a, b := c.net.Layers[c.net.WeightedLayers()[k]], c.net.Layers[c.net.WeightedLayers()[r]]
			a.Name, b.Name = "", ""
			if a != b {
				t.Fatalf("%s: position %d shares class %d with a different layer", c.net.Name, k, r)
			}
		}
		if len(classes) != c.weighted || distinct != c.distinct {
			t.Fatalf("%s: %d weighted layers in %d classes, want %d in %d",
				c.net.Name, len(classes), distinct, c.weighted, c.distinct)
		}
	}
}

// Position 0 is alone in its class even when a later layer equals it:
// it alone skips the ∆X all-reduce.
func TestLayerClassFirstPositionAlone(t *testing.T) {
	n := MLP("square", 64, 64, 64, 64)
	if got, want := n.LayerClasses(), []int{0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
}

// Changing any field of a class member but Name moves it out of the
// class; renaming it does not.
func TestLayerClassSplitsOnEveryFieldButName(t *testing.T) {
	layers := append([]Layer(nil), ResNet50Proxy().Layers...)
	weighted, classes := classify(layers)
	k := len(classes) - 2 // res5_2_c, sharing res5_1_c's class
	if classes[k] == k {
		t.Fatalf("test setup broken: position %d (%s) heads its class", k, layers[weighted[k]].Name)
	}
	l := &layers[weighted[k]]
	orig := *l
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Name == "Name" {
			continue
		}
		switch fv := v.Field(i); {
		case f.Name == "Kind":
			l.Kind = FC // still weighted, so positions keep their meaning
		case fv.Kind() == reflect.Struct:
			fv.Field(0).SetInt(fv.Field(0).Int() + 1)
		case fv.CanInt():
			fv.SetInt(fv.Int() + 1)
		case fv.CanFloat():
			fv.SetFloat(fv.Float() + 0.5)
		default:
			t.Fatalf("field %s: no perturbation for kind %v", f.Name, fv.Kind())
		}
		if _, got := classify(layers); got[k] == classes[k] {
			t.Errorf("changing %s keeps position %d in class %d", f.Name, k, classes[k])
		}
		*l = orig
	}
	l.Name = "renamed"
	if _, got := classify(layers); !reflect.DeepEqual(got, classes) {
		t.Fatalf("renaming a layer changed the classes: %v, want %v", got, classes)
	}
}

// WeightedLayers and LayerClasses return the slices recorded by Infer:
// no allocation per call, and cap == len so an append cannot write into
// the shared backing array.
func TestWeightedLayersRecordedAtInfer(t *testing.T) {
	n := VGG16()
	w := n.WeightedLayers()
	if cap(w) != len(w) || cap(n.LayerClasses()) != len(w) {
		t.Fatalf("cap %d / %d, len %d", cap(w), cap(n.LayerClasses()), len(w))
	}
	if allocs := testing.AllocsPerRun(100, func() { n.WeightedLayers(); n.LayerClasses() }); allocs != 0 {
		t.Fatalf("%v allocations per call", allocs)
	}
	// A re-Infer after editing Layers records fresh slices.
	n.Layers = n.Layers[:len(n.Layers)-1]
	if err := n.Infer(); err != nil {
		t.Fatal(err)
	}
	if got := n.WeightedLayers(); len(got) != len(w)-1 {
		t.Fatalf("after dropping a layer: %d weighted layers, before %d", len(got), len(w))
	}
}
