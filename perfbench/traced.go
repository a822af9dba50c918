package main

import (
	"fmt"
	"runtime/debug"
)

// runTraced is the traced pass. It runs every workload's traced
// variant — fixed amounts of work with the layer probes on — and
// merges their per-layer metrics, so every traced run reports the same
// set. It also returns the traced variants' end-to-end metrics: set
// against an untraced run they give the tracing overhead.
func runTraced(p params) (result, map[string]any, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	traced := map[string]any{}
	for _, w := range workloads {
		o, err := w.trace(p)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		r := o.result(o.layers)
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range o.layers {
			res.Metrics[k] = m
		}
		e2e := o.endToEnd()
		delete(e2e, "peak_rss_mb") // a process-wide peak, not the workload's
		traced[w.name] = e2e
		debug.FreeOSMemory()
	}
	return res, traced, nil
}
