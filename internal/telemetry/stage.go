package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Pipeline stage names shared by the stage tables, the stage.* records
// of BENCH_pipeline.json and BENCH_telemetry.json, and metric labels.
// Keeping them here gives every exported stage row a stable name.
const (
	StageParse         = "parse"
	StageSyntaxCGM     = "syntax_cgm"
	StageHierarchy     = "hierarchy"
	StageCorrect       = "correct_rebuild"
	StageEmpirical     = "empirical"
	StageLiveTest      = "live_test"
	StageMapToUDM      = "map_to_udm"
	StageMapRecommend  = "mapper_recommend"
	StageMapFineTune   = "mapper_finetune"
	StageControllerInt = "controller_intent"
)

// StageTime is one row of a per-stage timing table: how many times a
// stage executed and the wall time those executions summed to.
type StageTime struct {
	Name  string
	Calls int
	Total time.Duration
}

// StageTable renders stage rows as the terminal timing table printed by
// `nassim run` and `evalbench -stages`.
func StageTable(rows []StageTime) string {
	var total time.Duration
	for _, r := range rows {
		total += r.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %7s %14s %14s %7s\n", "stage", "calls", "total", "avg", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Total) / float64(total)
		}
		var avg time.Duration
		if r.Calls > 0 {
			avg = r.Total / time.Duration(r.Calls)
		}
		fmt.Fprintf(&b, "%-20s %7d %14s %14s %6.1f%%\n",
			r.Name, r.Calls, r.Total.Round(time.Microsecond), avg.Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "%-20s %7s %14s\n", "total", "", total.Round(time.Microsecond))
	return b.String()
}
