package stats

import (
	"encoding/json"
	"testing"
)

// TestHistJSONRoundTrip: a histogram restored from its JSON encoding is
// observation-identical to the source — same Count, Mean, Max and every
// quantile. The fleet tier ships per-cell histograms through this
// encoding, so any loss here would show up as cross-shard table drift.
func TestHistJSONRoundTrip(t *testing.T) {
	h := NewHist(16)
	for i := 0; i < 100; i++ {
		h.Add(i % 7)
	}
	h.Add(40)       // clamps into the overflow bucket, max stays 40
	h.AddN(3, 1000) // bulk path
	enc, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Mean() != h.Mean() || back.Max() != h.Max() {
		t.Fatalf("aggregates differ: got (n=%d mean=%v max=%d) want (n=%d mean=%v max=%d)",
			back.Count(), back.Mean(), back.Max(), h.Count(), h.Mean(), h.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Errorf("quantile %v differs: %d vs %d", q, back.Quantile(q), h.Quantile(q))
		}
	}
	// Re-encoding is stable.
	enc2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc2) != string(enc) {
		t.Errorf("re-encoding changed:\nfirst  %s\nsecond %s", enc, enc2)
	}
}

// TestHistJSONEmpty: an empty histogram survives the trip and stays
// usable (Add after unmarshal must not panic on a nil bucket slice).
func TestHistJSONEmpty(t *testing.T) {
	enc, err := json.Marshal(NewHist(4))
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 || back.Mean() != 0 {
		t.Fatalf("empty histogram came back with n=%d mean=%v", back.Count(), back.Mean())
	}
	back.Add(2)
	if back.Count() != 1 {
		t.Fatalf("restored histogram unusable: count %d after Add", back.Count())
	}

	// A zero-value JSON object must also restore to something usable.
	var fromNull Hist
	if err := json.Unmarshal([]byte(`{"buckets":null,"n":0,"sum":0,"max":0}`), &fromNull); err != nil {
		t.Fatal(err)
	}
	fromNull.Add(5)
	if fromNull.Count() != 1 {
		t.Fatalf("null-bucket histogram unusable: count %d", fromNull.Count())
	}
}
