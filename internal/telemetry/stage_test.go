package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

// nilCtx keeps test call sites short.
func nilCtx() context.Context { return context.Background() }

func TestStageTable(t *testing.T) {
	table := StageTable([]StageTime{
		{Name: "parse", Calls: 2, Total: time.Second},
		{Name: "map", Calls: 1, Total: time.Second},
	})
	for _, want := range []string{"stage", "parse", "map", "50.0%", "500ms", "total", "2s"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
