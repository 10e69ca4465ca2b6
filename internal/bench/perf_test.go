package bench

import (
	"fmt"
	"testing"
)

// perfDigests pins each perf case's outcome at seed 17. A change that
// moves any simulated outcome fails here; one that means to must say why
// and update the value. tbscale-dense and tbscale-adaptive share a digest
// because the two stepping loops must agree bit for bit.
var perfDigests = map[string]string{
	"gups":              "70a6e8756f4fb535",
	"kvs":               "44d49d6c2a71e4e5",
	"gap-bc":            "dd589f19bfaf2635",
	"tbscale-dense":     "339abc7a5ddc3c34",
	"tbscale-adaptive":  "339abc7a5ddc3c34",
	"fleet":             "dd090cf83363ceab",
	"trackers-idlepage": "80639f563669e48e",
	"kvs-memmode":       "71dc70af69e7a976",
}

func TestPerfCaseDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated runs")
	}
	if len(perfCases) != len(perfDigests) {
		t.Fatalf("%d perf cases but %d pinned digests", len(perfCases), len(perfDigests))
	}
	for _, c := range perfCases {
		t.Run(c.id, func(t *testing.T) {
			want, ok := perfDigests[c.id]
			if !ok {
				t.Fatalf("no pinned digest for perf case %q", c.id)
			}
			if got := fmt.Sprintf("%016x", c.run(17)); got != want {
				t.Fatalf("%s: digest %s, pinned %s", c.id, got, want)
			}
		})
	}
}
