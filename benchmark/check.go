package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// checkResult verifies one run: it did not fail, it conserves packets
// (every injected packet was lost, extracted or is still queued) and the
// engine rejected no router output.
func checkResult(r sweep.Result) error {
	if r.Failed {
		return fmt.Errorf("run %d failed: %s", r.Index, r.Error)
	}
	if got := r.Injected - r.Lost - r.Extracted; got != r.FinalQueued {
		return fmt.Errorf("run %d does not conserve packets: injected %d - lost %d - extracted %d = %d, final_queued %d",
			r.Index, r.Injected, r.Lost, r.Extracted, got, r.FinalQueued)
	}
	if r.Violations != 0 {
		return fmt.Errorf("run %d has %d violations", r.Index, r.Violations)
	}
	return nil
}

// checkStream verifies a served job's results stream: exactly want
// complete lines whose indices run 0..want-1 in order, each passing
// checkResult.
func checkStream(raw []byte, want int) error {
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		return fmt.Errorf("stream ends in a torn line")
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != want {
		return fmt.Errorf("stream has %d lines, want %d", len(lines), want)
	}
	for i, line := range lines {
		var r sweep.Result
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("line %d: %v", i, err)
		}
		if r.Index != i {
			return fmt.Errorf("line %d has index %d", i, r.Index)
		}
		if err := checkResult(r); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
	}
	return nil
}
