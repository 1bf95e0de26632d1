// Package checkpoint provides weight snapshotting for the training
// engines — the operational piece a downstream user of a distributed
// trainer needs: persist the (fully assembled) weights at a step (dnntrain
// -save) as a gob-encoded Snapshot.
//
// Snapshots store the assembled weight list, so any engine can resume a
// run started under any other engine: the paper's point that every
// parallelization computes the same iteration makes checkpoints fully
// interchangeable across strategies (the package tests decode snapshots
// and resume from them, landing on the identical trajectory).
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"dnnparallel/internal/tensor"
)

// Snapshot is a point-in-time view of a training run.
type Snapshot struct {
	// Network is the spec name (sanity-checked on resume).
	Network string
	// Step is the number of completed SGD steps.
	Step int
	// Seed is the run's initialization seed (for provenance).
	Seed int64
	// Weights is the assembled weight list in nn.Model order.
	Weights []*tensor.Matrix
}

// Save writes the snapshot to w.
func Save(w io.Writer, s *Snapshot) error {
	if s == nil || len(s.Weights) == 0 {
		return fmt.Errorf("checkpoint: empty snapshot")
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// SaveFile writes the snapshot to path atomically (write-then-rename).
func SaveFile(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := Save(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return os.Rename(tmp, path)
}
