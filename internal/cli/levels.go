package cli

import (
	"fmt"
	"strconv"
	"strings"

	"dnnparallel"
)

// ParseLevels parses the -levels flag syntax — comma-separated
// "name:alpha:bw[:group]" entries, innermost level first — into a
// hierarchical topology's level list: α in seconds, bandwidth in GB/s,
// group the ranks one instance of the level spans (omitted or 0 =
// unbounded, allowed only on the outermost level). For example
// "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6" is a three-level
// machine with a 10× bandwidth taper from node link to spine.
func ParseLevels(s string) ([]dnnparallel.LevelSpec, error) {
	var out []dnnparallel.LevelSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("bad level %q (want name:alpha:bw[:group])", part)
		}
		lv := dnnparallel.LevelSpec{Name: strings.TrimSpace(fields[0])}
		var err error
		lv.AlphaSeconds, err = strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || lv.AlphaSeconds < 0 {
			return nil, fmt.Errorf("bad level α %q in %q (want seconds ≥ 0)", fields[1], part)
		}
		lv.BandwidthGBs, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil || lv.BandwidthGBs <= 0 {
			return nil, fmt.Errorf("bad level bandwidth %q in %q (want GB/s > 0)", fields[2], part)
		}
		if len(fields) == 4 {
			lv.GroupRanks, err = strconv.Atoi(strings.TrimSpace(fields[3]))
			if err != nil || lv.GroupRanks < 0 {
				return nil, fmt.Errorf("bad level group %q in %q (want ranks ≥ 0)", fields[3], part)
			}
		}
		out = append(out, lv)
	}
	return out, nil
}
