package report

import (
	"fmt"
	"strings"
)

// GanttSpan is one scheduled interval of a timeline chart. Lane selects
// the glyph (lane 0 = compute '█', lane 1 = the flat network '▒',
// lanes 2.. = the per-level link lanes '▓', '░', '▞', '▚', '▛', '▜' —
// innermost level first; further lanes cycle); Label names the row. The
// cycling is deliberate: pipeline schedules encode stage s's copy of
// base lane k as lane k + 8s (timeline.Resource.PipelineStage), so every stage's
// compute pipe renders '█', every stage's flat network lane '▒', and
// the micro-batch labels in Label (e.g. "fwd conv1 µ3") distinguish the
// rows.
type GanttSpan struct {
	Label      string
	Lane       int
	Start, End float64
}

// laneGlyphs has exactly one glyph per base lane of the timeline
// resource encoding: compute, flat network, then the six per-level link
// lanes (timeline.MaxNetworkLevels).
var laneGlyphs = []rune{'█', '▒', '▓', '░', '▞', '▚', '▛', '▜'}

// LaneGlyph returns the glyph Gantt draws for a lane index, for legends
// that name the lanes a chart actually uses.
func LaneGlyph(lane int) rune {
	return laneGlyphs[((lane%len(laneGlyphs))+len(laneGlyphs))%len(laneGlyphs)]
}

// Gantt renders spans as a fixed-width text timeline, one row per span in
// the given order:
//
//	fwd conv1     |██····································| 0s – 0.0013s
//	allgather c1  |··▒▒▒·································| 0.0013s – 0.0041s
//
// The time axis runs from 0 to the latest End. Spans too short for one
// cell still draw a single glyph so α-dominated messages stay visible.
func Gantt(title string, spans []GanttSpan, width int) string {
	if width < 10 {
		width = 60
	}
	var makespan float64
	labelW := 0
	for _, s := range spans {
		if s.End > makespan {
			makespan = s.End
		}
		if len([]rune(s.Label)) > labelW {
			labelW = len([]rune(s.Label))
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
	}
	if makespan <= 0 || len(spans) == 0 {
		b.WriteString("(empty timeline)\n")
		return b.String()
	}
	cell := makespan / float64(width)
	for _, s := range spans {
		lo := int(s.Start / cell)
		hi := int(s.End / cell)
		if hi >= width {
			hi = width - 1
		}
		if lo > hi {
			lo = hi
		}
		glyph := laneGlyphs[((s.Lane%len(laneGlyphs))+len(laneGlyphs))%len(laneGlyphs)]
		row := make([]rune, width)
		for i := range row {
			row[i] = '·'
		}
		for i := lo; i <= hi; i++ {
			row[i] = glyph
		}
		fmt.Fprintf(&b, "%-*s |%s| %ss – %ss\n",
			labelW, s.Label, string(row), F(s.Start), F(s.End))
	}
	return b.String()
}
