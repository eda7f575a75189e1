package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenJournalResume feeds arbitrary bytes to the journal's crash
// recovery as the file on disk. OpenJournalResume must either refuse the
// file or leave one header line plus one whole line per recovered
// result: a prefix of the input, or a fresh header when the input had
// no complete first line. Appending one more result and closing must
// then read back as the recovered prefix plus that result.
func FuzzOpenJournalResume(f *testing.F) {
	jobs := testJobs(1, 30)
	rs, err := (&Runner{Workers: 1}).Run(jobs)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(jobs int, rs []Result) []byte {
		var buf bytes.Buffer
		j, err := NewJournal(&buf, jobs)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range rs {
			if err := j.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	whole := encode(len(jobs), rs)
	f.Add(whole)
	f.Add(whole[:len(whole)-len(whole)/7]) // torn tail
	failed := append([]Result(nil), rs...)
	failed[3].Failed, failed[3].Error = true, "boom"
	f.Add(encode(len(jobs), failed))
	f.Add(encode(len(jobs)+1, rs)) // another sweep's header
	f.Add(append([]byte(`{"journal":"v0","jobs":8}`+"\n"), whole[bytes.IndexByte(whole, '\n')+1:]...))
	f.Add([]byte{})

	fresh := filepath.Join(f.TempDir(), "fresh.jsonl")
	fj, err := CreateJournal(fresh, len(jobs))
	if err != nil {
		f.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		f.Fatal(err)
	}
	freshHeader, err := os.ReadFile(fresh)
	if err != nil {
		f.Fatal(err)
	}
	extra := rs[0]
	extra.Index = 1 << 20

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, prefix, err := OpenJournalResume(path, len(jobs))
		if err != nil {
			return
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(data, '\n') < 0 {
			if !bytes.Equal(got, freshHeader) {
				t.Fatalf("no complete first line, yet the file is %q, not a fresh header", got)
			}
		} else if !bytes.HasPrefix(data, got) {
			t.Fatalf("recovered file %q is not a prefix of the input", got)
		}
		if len(got) == 0 || got[len(got)-1] != '\n' {
			t.Fatalf("recovered file %q does not end in a whole line", got)
		}
		if lines := bytes.Count(got, []byte("\n")); lines != 1+len(prefix) {
			t.Fatalf("recovered file has %d lines for %d results", lines, len(prefix))
		}

		if err := j.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJournalResults(path, len(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if want := append(prefix, extra); !reflect.DeepEqual(back, want) {
			t.Fatalf("read back %d results, want the %d recovered plus the appended one", len(back), len(prefix))
		}
	})
}
