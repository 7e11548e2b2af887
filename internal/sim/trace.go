package sim

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteRegionTrace emits the run's region-by-region ground-truth timing as
// CSV: one row per barrier-delimited region with its cycle attribution
// (busy, synchronization, imbalance) summed over processors, plus running
// totals. This is the debugging view a programmer uses to find *which*
// phase of the application carries a bottleneck once the whole-run
// breakdown has named it.
//
// Region names come straight from user programs, so they are written through
// encoding/csv — a name containing commas, quotes, or newlines is quoted
// rather than splitting the row.
func (r *Result) WriteRegionTrace(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "region", "busy_cycles", "sync_cycles", "imb_cycles", "region_total", "cumulative_total"}); err != nil {
		return err
	}
	var cum float64
	for i, reg := range r.Ground.Regions {
		total := reg.Busy + reg.Sync + reg.Imb
		cum += total
		row := []string{
			fmt.Sprint(i),
			reg.Name,
			fmt.Sprintf("%.0f", reg.Busy),
			fmt.Sprintf("%.0f", reg.Sync),
			fmt.Sprintf("%.0f", reg.Imb),
			fmt.Sprintf("%.0f", total),
			fmt.Sprintf("%.0f", cum),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
