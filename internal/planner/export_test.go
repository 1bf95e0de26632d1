package planner

import (
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// SearchSized runs the search Optimize (pinned nil) or Evaluate (every
// stage on the pinned grid) runs for batch B on P processes, skipping the
// option checks, and returns its stats. exact reports whether enumerate
// allocated the leaf and winner lists once, at their final length.
func SearchSized(net *nn.Network, B, P int, opts Options, pinned *grid.Grid) (st SearchStats, exact bool) {
	s := newSearch(net, B, P, opts, true)
	s.grid = pinned
	s.enumerate(&st)
	exact = cap(s.leaves) == len(s.leaves) && cap(s.winners) == len(s.winners)
	s.run(&st)
	return st, exact
}
