package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// stream encodes n conserving results with indices 0..n-1.
func stream(t *testing.T, n int, edit func(i int, r *sweep.Result)) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		r := sweep.Result{Desc: sweep.Desc{Index: i}, Injected: 100, Lost: 5, Extracted: 90, FinalQueued: 5}
		if edit != nil {
			edit(i, &r)
		}
		if err := json.NewEncoder(&buf).Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestCheckStreamAcceptsGoodStream(t *testing.T) {
	if err := checkStream(stream(t, 4, nil), 4); err != nil {
		t.Fatal(err)
	}
}

func TestCheckStreamRejects(t *testing.T) {
	good := stream(t, 4, nil)
	lines := bytes.SplitAfter(good, []byte("\n"))
	for name, c := range map[string]struct {
		raw  []byte
		want string
	}{
		"torn tail":      {good[:len(good)-10], "torn"},
		"torn line":      {append(append([]byte{}, lines[0][:20]...), append([]byte("\n"), bytes.Join(lines[1:], nil)...)...), "line 0"},
		"reordered":      {bytes.Join([][]byte{lines[1], lines[0], lines[2], lines[3]}, nil), "index"},
		"short":          {bytes.Join(lines[:3], nil), "3 lines"},
		"long":           {append(append([]byte{}, good...), lines[0]...), "5 lines"},
		"empty":          {nil, "0 lines"},
		"non-conserving": {stream(t, 4, func(i int, r *sweep.Result) { r.FinalQueued += int64(i / 3) }), "conserve"},
		"violations":     {stream(t, 4, func(i int, r *sweep.Result) { r.Violations = int64(i / 2) }), "violations"},
		"failed run":     {stream(t, 4, func(i int, r *sweep.Result) { r.Failed = i == 2 }), "failed"},
	} {
		err := checkStream(c.raw, 4)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
}
