package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

var updateChromeGolden = flag.Bool("update-chrome-golden", false,
	"rewrite internal/engine/testdata/chrome_trace_*.json from current output")

// TestChromeTraceParallelPartitionedGolden pins the Chrome trace-event
// export of a parallel partitioned drain: a Sort over an Exchange at
// DOP 4 scanning lineitem range-partitioned into 2 shards. The trace
// uses a frozen clock, so every timestamp and duration exports as zero
// and the full document is deterministic except for the per-worker
// morsel/row attrs (workers race on the claim counter); those two attrs
// are normalized to "?" before the golden comparison. What the golden
// pins: one event per span, worker-N events on their own lanes
// (tid N+2) under the coordinator's tid 1, and the query ID stamped on
// every event.
func TestChromeTraceParallelPartitionedGolden(t *testing.T) {
	ctx := fixture{orders: 6000, lines: 3, parts: 10, shards: 2}.build(t)

	tr := obs.NewTrace("q7")
	tr.QueryID = "q7"
	epoch := time.Unix(0, 0).UTC()
	tr.Now = func() time.Time { return epoch }

	pred := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(10), Hi: expr.IntLit(90)}
	plan := &Sort{
		Input: &Exchange{
			Source: &SeqScan{Table: "lineitem", Filter: pred},
			DOP:    4,
			Trace:  tr,
		},
		By: []SortKey{{Col: expr.ColumnRef{Table: "lineitem", Column: "l_id"}}},
	}
	inst := InstrumentOpts(plan, InstrumentOptions{Trace: tr, QueryID: "q7"})
	if _, _, _, err := Run(ctx, inst); err != nil {
		t.Fatal(err)
	}

	// Structural nesting, checked on the span records directly: the four
	// worker spans are all children of the Exchange operator span.
	recs := tr.Records()
	exchangeID := 0
	for _, r := range recs {
		if r.Name == "op:Exchange" {
			exchangeID = r.ID
		}
	}
	if exchangeID == 0 {
		t.Fatalf("no op:Exchange span in %v", recs)
	}
	workers := 0
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "worker-") {
			continue
		}
		workers++
		if r.Parent != exchangeID {
			t.Errorf("%s parented to span %d, want op:Exchange (%d)", r.Name, r.Parent, exchangeID)
		}
	}
	if workers != 4 {
		t.Fatalf("got %d worker spans, want 4 (DOP 4 over %d shards)", workers, 2)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got := normalizeChromeTrace(t, buf.Bytes())

	golden := filepath.Join("testdata", "chrome_trace_dop4_shards2.json")
	if *updateChromeGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-chrome-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// chromeTraceDoc mirrors the export shape of Trace.WriteChrome for the
// golden-test round trip.
type chromeTraceDoc struct {
	TraceEvents []chromeTraceEvent `json:"traceEvents"`
	DisplayUnit string             `json:"displayTimeUnit"`
}

type chromeTraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// normalizeChromeTrace verifies the invariants every event must carry
// (complete events, pid 1, the trace's query ID) and masks the
// scheduling-dependent per-worker morsel/row totals so the rest of the
// document can be compared byte-for-byte against the golden file.
func normalizeChromeTrace(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, raw)
	}
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		if ev.Ph != "X" || ev.Pid != 1 {
			t.Errorf("event %q: ph=%q pid=%d, want complete event on pid 1", ev.Name, ev.Ph, ev.Pid)
		}
		if ev.Args["qid"] != "q7" {
			t.Errorf("event %q missing qid=q7: args=%v", ev.Name, ev.Args)
		}
		if strings.HasPrefix(ev.Name, "worker-") {
			for _, volatile := range []string{"morsels", "rows"} {
				if _, ok := ev.Args[volatile]; !ok {
					t.Errorf("event %q missing %s attr", ev.Name, volatile)
				}
				ev.Args[volatile] = "?"
			}
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
