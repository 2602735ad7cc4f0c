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

// A golden file pins a family of core models' exported bytes: one line
// per (option set, kind, workload) holding the SHA-256 of the report
// `sstsim -json -scale test` prints for that run. Every other
// differential in this package compares two paths through the same
// model, so none of them can see a timing change that moves a single
// instruction by one cycle; these files can. A mismatch means the
// model's timing changed — a deliberate model change regenerates the
// file from the lines the failure prints and says why in the change
// log.
type goldenFile struct {
	path  string
	kinds []Kind
	sets  func(t *testing.T) []goldenSet
}

// goldenSet is one named option set a golden file is pinned under.
type goldenSet struct {
	name string
	opts Options
}

// faultedOptions is the default options under the generated benign
// fault plan random:7.
func faultedOptions(t *testing.T) Options {
	t.Helper()
	o := DefaultOptions()
	var err error
	if o.Faults, err = faults.ParseSpec("random:7"); err != nil {
		t.Fatal(err)
	}
	return o
}

// goldenFiles lists the pinned files. The out-of-order file runs the
// default options, conservative disambiguation on both configs (loads
// wait for older store addresses) and the fault plan; the SST file runs
// the default options, all three secure-speculation switches and the
// fault plan.
var goldenFiles = map[string]goldenFile{
	"ooo": {
		path:  "testdata/ooo_golden.txt",
		kinds: []Kind{KindOOOSmall, KindOOOLarge},
		sets: func(t *testing.T) []goldenSet {
			noSpec := DefaultOptions()
			noSpec.OOO.SpecLoads, noSpec.OOOLg.SpecLoads = false, false
			return []goldenSet{
				{"default", DefaultOptions()},
				{"nospec", noSpec},
				{"faults-random-7", faultedOptions(t)},
			}
		},
	},
	"sst": {
		path:  "testdata/sst_golden.txt",
		kinds: []Kind{KindScout, KindSSTEA, KindSST, KindSSTBig},
		sets: func(t *testing.T) []goldenSet {
			secure := DefaultOptions()
			secure.SST.SecureDelayOnMiss = true
			secure.SST.SecureNoNAForward = true
			secure.SST.SecureEagerSSBFlush = true
			return []goldenSet{
				{"default", DefaultOptions()},
				{"secure", secure},
				{"faults-random-7", faultedOptions(t)},
			}
		},
	},
}

// goldenDigest runs one cell the way `sstsim -json` does (a fresh
// metrics registry per run) and hashes the report bytes.
func goldenDigest(t *testing.T, k Kind, w *workload.Spec, opts Options) string {
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

// checkGolden recomputes every digest of one golden file, one parallel
// subtest per option set.
func checkGolden(t *testing.T, g goldenFile) {
	raw, err := os.ReadFile(g.path)
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
			t.Fatalf("%s: malformed line %q", g.path, line)
		}
		want[f[0]] = f[1]
	}
	specs, err := workload.BuildAll(workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	sets := g.sets(t)
	if n := len(sets) * len(g.kinds) * len(specs); len(want) != n {
		t.Errorf("%s holds %d digests, want %d", g.path, len(want), n)
	}
	for _, set := range sets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			var got []string
			for _, k := range g.kinds {
				for _, w := range specs {
					key := set.name + "/" + k.String() + "/" + w.Name
					d := goldenDigest(t, k, w, set.opts)
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

// TestOOOGoldenReports pins the out-of-order kinds (ooo-small,
// ooo-large).
func TestOOOGoldenReports(t *testing.T) { checkGolden(t, goldenFiles["ooo"]) }

// TestSSTGoldenReports pins the checkpoint-based kinds (scout, sst-ea,
// sst, sst-big).
func TestSSTGoldenReports(t *testing.T) { checkGolden(t, goldenFiles["sst"]) }
