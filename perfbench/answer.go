package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"dnnparallel"
)

// answer is what an op's result is checked on: the winning
// configuration and its iteration time, bit for bit.
type answer struct {
	status    int
	grid      string
	placement dnnparallel.Placement
	micro     int
	stages    int
	batch     int
	iterBits  uint64
}

func (a answer) String() string {
	if a.status != 200 {
		return fmt.Sprintf("status %d", a.status)
	}
	return fmt.Sprintf("%s %v M=%d S=%d B=%d iter=%v", a.grid, a.placement, a.micro, a.stages, a.batch,
		math.Float64frombits(a.iterBits))
}

func summaryAnswer(s *dnnparallel.PlanSummary, iter float64) answer {
	return answer{status: 200, grid: s.Grid, placement: s.Placement, micro: s.MicroBatch,
		stages: s.Stages, batch: s.Batch, iterBits: math.Float64bits(iter)}
}

// planAnswer checks a Plan result's own accounting and extracts its
// answer.
func planAnswer(res *dnnparallel.PlanResult) (answer, error) {
	if res.Stats == nil || !res.Stats.Reconciles() {
		return answer{}, errors.New("search stats missing or not reconciling")
	}
	return summaryAnswer(&res.Best, res.Best.IterSeconds), nil
}

// wireResult is the part of a /v1/plan or /v1/simulate response body
// the check reads.
type wireResult struct {
	Best     *dnnparallel.PlanSummary `json:"best"`
	Stats    *dnnparallel.SearchStats `json:"search_stats"`
	Config   *dnnparallel.PlanSummary `json:"config"`
	Makespan float64                  `json:"makespan_seconds"`
}

// wireAnswer parses a 200 response body.
func wireAnswer(path string, body []byte) (answer, error) {
	var wr wireResult
	if err := json.Unmarshal(body, &wr); err != nil {
		return answer{}, fmt.Errorf("decoding %s response: %w", path, err)
	}
	if path == "/v1/simulate" {
		if wr.Config == nil {
			return answer{}, errors.New("simulate response without config")
		}
		return summaryAnswer(wr.Config, wr.Makespan), nil
	}
	if wr.Best == nil || wr.Stats == nil || !wr.Stats.Reconciles() {
		return answer{}, errors.New("plan response without best plan or reconciling search stats")
	}
	return summaryAnswer(wr.Best, wr.Best.IterSeconds), nil
}
