package nn

import (
	"fmt"
	"strings"
)

// AlexNet returns the single-tower AlexNet used throughout the paper's
// evaluation: 5 convolutional and 3 fully-connected layers on 227×227×3
// ImageNet crops. The ungrouped single-tower variant has 62.4 M weights
// (the grouped two-GPU original is 61 M; the difference is confined to
// conv2/4/5 and does not change any qualitative result — see
// EXPERIMENTS.md).
func AlexNet() *Network {
	n := &Network{
		Name:  "AlexNet",
		Input: Shape{H: 227, W: 227, C: 3},
		Layers: []Layer{
			{Kind: Conv, Name: "conv1", KH: 11, KW: 11, Stride: 4, Pad: 0, OutC: 96},
			{Kind: LRN, Name: "lrn1"},
			{Kind: Pool, Name: "pool1", KH: 3, KW: 3, Stride: 2},
			{Kind: Conv, Name: "conv2", KH: 5, KW: 5, Stride: 1, Pad: 2, OutC: 256},
			{Kind: LRN, Name: "lrn2"},
			{Kind: Pool, Name: "pool2", KH: 3, KW: 3, Stride: 2},
			{Kind: Conv, Name: "conv3", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 384},
			{Kind: Conv, Name: "conv4", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 384},
			{Kind: Conv, Name: "conv5", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 256},
			{Kind: Pool, Name: "pool5", KH: 3, KW: 3, Stride: 2},
			{Kind: FC, Name: "fc6", OutN: 4096},
			{Kind: Dropout, Name: "drop6", Rate: 0.5},
			{Kind: FC, Name: "fc7", OutN: 4096},
			{Kind: Dropout, Name: "drop7", Rate: 0.5},
			{Kind: FC, Name: "fc8", OutN: 1000},
		},
	}
	mustInfer(n)
	return n
}

// VGG16 returns the VGG-16 configuration-D network (all 3×3 convolutions),
// useful for exercising the planner on a conv-heavy network with large
// FC layers.
func VGG16() *Network {
	conv := func(name string, c int) Layer {
		return Layer{Kind: Conv, Name: name, KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: c}
	}
	pool := func(name string) Layer {
		return Layer{Kind: Pool, Name: name, KH: 2, KW: 2, Stride: 2}
	}
	n := &Network{
		Name:  "VGG16",
		Input: Shape{H: 224, W: 224, C: 3},
		Layers: []Layer{
			conv("conv1_1", 64), conv("conv1_2", 64), pool("pool1"),
			conv("conv2_1", 128), conv("conv2_2", 128), pool("pool2"),
			conv("conv3_1", 256), conv("conv3_2", 256), conv("conv3_3", 256), pool("pool3"),
			conv("conv4_1", 512), conv("conv4_2", 512), conv("conv4_3", 512), pool("pool4"),
			conv("conv5_1", 512), conv("conv5_2", 512), conv("conv5_3", 512), pool("pool5"),
			{Kind: FC, Name: "fc6", OutN: 4096},
			{Kind: FC, Name: "fc7", OutN: 4096},
			{Kind: FC, Name: "fc8", OutN: 1000},
		},
	}
	mustInfer(n)
	return n
}

// OneByOneNet returns a ResNet-flavoured stack dominated by 1×1
// convolutions. The paper (Section 2.4) notes that domain parallelism
// needs *no* communication for 1×1 convolutions, which are "becoming a
// dominant portion of the network in recent architectures" — this preset
// exists to demonstrate that regime.
func OneByOneNet() *Network {
	n := &Network{
		Name:  "OneByOneNet",
		Input: Shape{H: 56, W: 56, C: 64},
		Layers: []Layer{
			{Kind: Conv, Name: "reduce1", KH: 1, KW: 1, Stride: 1, OutC: 64},
			{Kind: Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 64},
			{Kind: Conv, Name: "expand1", KH: 1, KW: 1, Stride: 1, OutC: 256},
			{Kind: Conv, Name: "reduce2", KH: 1, KW: 1, Stride: 1, OutC: 128},
			{Kind: Conv, Name: "conv2", KH: 3, KW: 3, Stride: 2, Pad: 1, OutC: 128},
			{Kind: Conv, Name: "expand2", KH: 1, KW: 1, Stride: 1, OutC: 512},
			{Kind: Pool, Name: "gap", KH: 28, KW: 28, Stride: 28},
			{Kind: FC, Name: "fc", OutN: 1000},
		},
	}
	mustInfer(n)
	return n
}

// ResNet50Proxy returns a sequential proxy for ResNet-50: the same
// bottleneck-style 1×1 → 3×3 → 1×1 convolution stages, channel widths,
// and downsampling schedule, without the residual skip connections. Skips
// are weightless element-wise additions, so they change neither the
// per-layer |W_i|, d_i, nor the halo geometry the cost formulas consume —
// the proxy prices identically to the real network under Eqs. 3–9. It
// exists to study the regime the paper highlights in Section 2.4: modern
// networks are dominated by 1×1 convolutions, for which domain
// parallelism is communication-free.
func ResNet50Proxy() *Network {
	var layers []Layer
	conv := func(name string, k, stride, pad, outC int) {
		layers = append(layers, Layer{Kind: Conv, Name: name, KH: k, KW: k, Stride: stride, Pad: pad, OutC: outC})
	}
	bottleneck := func(stage string, n, mid, out, firstStride int) {
		for i := 0; i < n; i++ {
			s := 1
			if i == 0 {
				s = firstStride
			}
			conv(fmt.Sprintf("%s_%d_a", stage, i), 1, s, 0, mid)
			conv(fmt.Sprintf("%s_%d_b", stage, i), 3, 1, 1, mid)
			conv(fmt.Sprintf("%s_%d_c", stage, i), 1, 1, 0, out)
		}
	}
	conv("conv1", 7, 2, 3, 64)
	layers = append(layers, Layer{Kind: Pool, Name: "pool1", KH: 3, KW: 3, Stride: 2, Pad: 1})
	bottleneck("res2", 3, 64, 256, 1)
	bottleneck("res3", 4, 128, 512, 2)
	bottleneck("res4", 6, 256, 1024, 2)
	bottleneck("res5", 3, 512, 2048, 2)
	layers = append(layers,
		Layer{Kind: Pool, Name: "gap", KH: 7, KW: 7, Stride: 7},
		Layer{Kind: FC, Name: "fc", OutN: 1000},
	)
	n := &Network{Name: "ResNet50Proxy", Input: Shape{H: 224, W: 224, C: 3}, Layers: layers}
	mustInfer(n)
	return n
}

// MLP returns a fully-connected network with the given input width and
// hidden/output widths — the pure-FC case where the 1.5D analysis is
// exact. RNNs "mainly consist of fully connected layers" (paper §1), so
// this is also the RNN-like regime.
func MLP(name string, input int, widths ...int) *Network {
	n := &Network{Name: name, Input: Shape{H: 1, W: 1, C: input}}
	for i, w := range widths {
		n.Layers = append(n.Layers, Layer{Kind: FC, Name: fmt.Sprintf("fc%d", i+1), OutN: w})
	}
	mustInfer(n)
	return n
}

// TinyConvNet returns a small conv+fc network with AlexNet's structure at
// toy scale, used by the executable-engine tests (fast to train, exercises
// conv, pool, and FC paths plus the conv→fc transition).
func TinyConvNet() *Network {
	n := &Network{
		Name:  "TinyConvNet",
		Input: Shape{H: 12, W: 12, C: 3},
		Layers: []Layer{
			{Kind: Conv, Name: "conv1", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: Conv, Name: "conv2", KH: 3, KW: 3, Stride: 1, Pad: 1, OutC: 8},
			{Kind: Pool, Name: "pool1", KH: 2, KW: 2, Stride: 2},
			{Kind: FC, Name: "fc1", OutN: 32},
			{Kind: FC, Name: "fc2", OutN: 10},
		},
	}
	mustInfer(n)
	return n
}

func mustInfer(n *Network) {
	if err := n.Infer(); err != nil {
		panic(err)
	}
}

// presets is the single preset table behind every CLI flag and
// scenario spec, in display order, so the name table cannot fork.
var presets = []struct {
	name  string
	build func() *Network
}{
	{"alexnet", AlexNet},
	{"vgg16", VGG16},
	{"onebyone", OneByOneNet},
	{"resnet50", ResNet50Proxy},
}

// PresetNames lists the networks Preset accepts, in display order.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// PresetKey returns the canonical (lowercase, trimmed) key of the named
// preset without building the network, or Preset's unknown-preset error.
func PresetKey(name string) (string, error) {
	_, key, err := lookupPreset(name)
	return key, err
}

// Preset returns the named preset network.
func Preset(name string) (*Network, error) {
	i, _, err := lookupPreset(name)
	if err != nil {
		return nil, err
	}
	return presets[i].build(), nil
}

func lookupPreset(name string) (int, string, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for i, p := range presets {
		if p.name == key {
			return i, key, nil
		}
	}
	return 0, "", fmt.Errorf("nn: unknown network preset %q (want %s)", name, strings.Join(PresetNames(), "|"))
}
