package parallel_test

import (
	"testing"

	"dnnparallel/internal/experiments"
	"dnnparallel/internal/parallel"
)

// TestAssignmentOraclesReferenceConvNet runs the assignment oracles on the
// network dnntrain, the verify experiment and examples/correctness train.
func TestAssignmentOraclesReferenceConvNet(t *testing.T) {
	parallel.CheckAssignmentOracles(t, experiments.ReferenceConvNet())
}
