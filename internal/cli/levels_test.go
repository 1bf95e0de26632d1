package cli

import (
	"reflect"
	"testing"

	"dnnparallel"
)

// TestParseLevelsTable: the -levels flag syntax, table-driven — every
// accepted spelling produces the expected level list, and every rejected
// one names the bad field.
func TestParseLevelsTable(t *testing.T) {
	cases := []struct {
		name, in string
		want     []dnnparallel.LevelSpec
		wantErr  bool
	}{
		{
			name: "two-level cori",
			in:   "node:5e-7:60:16,cluster:2e-6:6",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "cluster", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{
			name: "three-level rack taper",
			in:   "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
				{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{
			name: "single flat level",
			in:   "net:2e-6:6",
			want: []dnnparallel.LevelSpec{{Name: "net", AlphaSeconds: 2e-6, BandwidthGBs: 6}},
		},
		{
			name: "anonymous level and spaces",
			in:   " :0:6:4 , top:1e-6:12 ",
			want: []dnnparallel.LevelSpec{
				{BandwidthGBs: 6, GroupRanks: 4},
				{Name: "top", AlphaSeconds: 1e-6, BandwidthGBs: 12},
			},
		},
		{
			name: "explicit zero group means unbounded",
			in:   "node:5e-7:60:16,top:2e-6:6:0",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "top", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{name: "empty", in: "", wantErr: true},
		{name: "too few fields", in: "node:5e-7", wantErr: true},
		{name: "too many fields", in: "node:5e-7:60:16:9", wantErr: true},
		{name: "bad alpha", in: "node:fast:60:16", wantErr: true},
		{name: "negative alpha", in: "node:-1e-7:60:16", wantErr: true},
		{name: "zero bandwidth", in: "node:5e-7:0:16", wantErr: true},
		{name: "bad group", in: "node:5e-7:60:many", wantErr: true},
		{name: "negative group", in: "node:5e-7:60:-4", wantErr: true},
		{name: "one bad level among good", in: "node:5e-7:60:16,rack::12", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseLevels(c.in)
			if c.wantErr {
				if err == nil {
					t.Fatalf("ParseLevels(%q) = %v, want error", c.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseLevels(%q): %v", c.in, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("ParseLevels(%q) = %+v, want %+v", c.in, got, c.want)
			}
		})
	}
}

// TestFormatLevelsCanonical: the canonical flag syntax (shortest 'g'
// floats, the group field omitted when unbounded) parses back to the
// level list it spells.
func TestFormatLevelsCanonical(t *testing.T) {
	want := []dnnparallel.LevelSpec{
		{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
		{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}
	const in = "node:5e-07:60:16,rack:1e-06:12:128,spine:2e-06:6"
	if got, err := ParseLevels(in); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseLevels(%q) = %+v, %v; want %+v", in, got, err, want)
	}
}
