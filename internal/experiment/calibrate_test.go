package experiment

import (
	"os"
	"testing"
)

// TestCalibrationReport runs the full 24-hour reproduction and prints the
// paper-vs-measured table. It is the single source of truth for the
// measured numbers; run with -v to see the table.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("24h calibration run skipped in -short mode")
	}
	runs, err := CachedDayRuns(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	maxMiss := len(rep.Rows) / 5 // ≥80 % of rows must hold
	if len(fails) > maxMiss {
		t.Errorf("%d/%d rows missed tolerance (allowed %d)", len(fails), len(rep.Rows), maxMiss)
	}
}
