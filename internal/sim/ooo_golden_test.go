package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/workload"
)

// oooGoldenPath pins the out-of-order kinds' exported bytes: one line
// per (option set, kind, workload) holding the SHA-256 of the report
// `sstsim -json -scale test` prints for that run. Every other
// differential in this package compares two paths through the same
// scheduler, so none of them can see a scheduler change that moves a
// single instruction by one cycle; this file can. A mismatch means the
// OOO model's timing changed — a deliberate model change regenerates
// the file from the lines the failure prints and says why in the
// change log.
const oooGoldenPath = "testdata/ooo_golden.txt"

// oooGoldenDigest runs one cell the way `sstsim -json` does (a fresh
// metrics registry per run) and hashes the report bytes.
func oooGoldenDigest(t *testing.T, k Kind, w *workload.Spec, opts Options) string {
	t.Helper()
	opts.Metrics = obs.NewRegistry()
	out, err := Run(k, w.Program, opts)
	if err != nil {
		t.Fatalf("%v/%s: %v", k, w.Name, err)
	}
	var buf bytes.Buffer
	if err := NewReport(out).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestOOOGoldenReports recomputes the pinned digests under the default
// options, conservative disambiguation on both configs (loads wait for
// older store addresses), and a generated benign fault plan.
func TestOOOGoldenReports(t *testing.T) {
	raw, err := os.ReadFile(oooGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", oooGoldenPath, line)
		}
		want[f[0]] = f[1]
	}
	specs, err := workload.BuildAll(workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	noSpec := DefaultOptions()
	noSpec.OOO.SpecLoads, noSpec.OOOLg.SpecLoads = false, false
	faulted := DefaultOptions()
	if faulted.Faults, err = faults.ParseSpec("random:7"); err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"nospec", noSpec},
		{"faults-random-7", faulted},
	}
	if n := len(sets) * 2 * len(specs); len(want) != n {
		t.Errorf("%s holds %d digests, want %d", oooGoldenPath, len(want), n)
	}
	for _, set := range sets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			var got []string
			for _, k := range []Kind{KindOOOSmall, KindOOOLarge} {
				for _, w := range specs {
					key := set.name + "/" + k.String() + "/" + w.Name
					d := oooGoldenDigest(t, k, w, set.opts)
					got = append(got, key+" "+d)
					if want[key] != d {
						t.Errorf("%s: report digest %s, want %q", key, d, want[key])
					}
				}
			}
			if t.Failed() {
				t.Logf("computed digests:\n%s", strings.Join(got, "\n"))
			}
		})
	}
}
