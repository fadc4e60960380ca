package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"palaemon/internal/policy"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0.0, 1}, {1.0, 10},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 4}); got != 3 {
		t.Errorf("median(3,4) = %v, want the lower middle 3", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {600000, 0.9999}, {1000000, 0.99999},
	} {
		got := tailQuantile(tc.n)
		if got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 && float64(tc.n)*(1-got) < 10-1e-6 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

func TestSamplesChunking(t *testing.T) {
	var s samples
	for i := 0; i < sampleChunk+5; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if s.len() != sampleChunk+5 || len(s.chunks) != 2 {
		t.Fatalf("len %d in %d chunks, want %d in 2", s.len(), len(s.chunks), sampleChunk+5)
	}
	if want := int64(2 * sampleChunk * 8); s.bytes() != want {
		t.Errorf("bytes = %d, want %d", s.bytes(), want)
	}
	ms := sortedMs(&s)
	if ms[0] != 0 || ms[len(ms)-1] != float64(sampleChunk+4)/1000 {
		t.Errorf("sortedMs range [%v, %v]", ms[0], ms[len(ms)-1])
	}
}

func opSequence(seed uint64, sp spec, n int) []op {
	g := newOpGen(seed, sp.name, 0, 32, sp.mix)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestOpSequenceIsTheSeeds(t *testing.T) {
	sp, _ := specByName("governed_mix")
	a, b, c := opSequence(7, sp, 500), opSequence(7, sp, 500), opSequence(8, sp, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds generated the same op sequence")
	}
	// The mix is exact over every deck of ten, and a pass visits every
	// policy exactly once.
	for i := 0; i < len(a); i += 10 {
		var kinds [3]int
		for _, o := range a[i : i+10] {
			kinds[o.kind]++
		}
		if kinds != sp.mix {
			t.Fatalf("visits %d..%d have mix %v, want %v", i, i+9, kinds, sp.mix)
		}
	}
	seen := map[int]bool{}
	for _, o := range a[:32] {
		seen[o.policy] = true
	}
	if len(seen) != 32 {
		t.Fatalf("the first pass touched %d of 32 policies", len(seen))
	}
}

func TestPopulationIsTheSeeds(t *testing.T) {
	sp, _ := specByName("fetch")
	a := genPolicies(sp, 3, 1, 2, policy.Board{})
	b := genPolicies(sp, 3, 1, 2, policy.Board{})
	c := genPolicies(sp, 4, 1, 2, policy.Board{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different populations")
	}
	if a[0].Name == c[0].Name || a[0].Secrets[0].Value == c[0].Secrets[0].Value {
		t.Fatal("two seeds generated the same names or secret values")
	}
	counts := map[int]int{}
	for _, p := range a {
		counts[len(p.Secrets)]++
	}
	if want := map[int]int{4: 700, 32: 200, 128: 100}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("secret counts %v, want %v", counts, want)
	}
}

// fakeClock is a clock whose Sleep returns at once and advances time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A 35 ms stall in visit 2 of a 10 ms schedule must be charged to the
// visits it delayed: timed from their due time, visits 3, 4 and 5 waited,
// although each took a millisecond once sent.
func TestPacedChargesAStallToTheVisitsItDelayed(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	var lat, late []time.Duration
	paced(clk, start, 10*time.Millisecond, 80*time.Millisecond,
		func(i int) error {
			clk.now = clk.now.Add(time.Millisecond)
			if i == 2 {
				clk.now = clk.now.Add(35 * time.Millisecond)
			}
			return nil
		},
		func(d time.Duration, err error) { lat = append(lat, d) },
		func(d time.Duration) { late = append(late, d) })

	ms := time.Millisecond
	want := []time.Duration{1 * ms, 1 * ms, 36 * ms, 27 * ms, 18 * ms, 9 * ms, 1 * ms, 1 * ms}
	if !reflect.DeepEqual(lat, want) {
		t.Fatalf("latencies from due time = %v, want %v", lat, want)
	}
	// The generator slept before visits 1, 2, 6 and 7 only (visit 0 was
	// due at once), and the fake clock wakes exactly on time.
	if len(late) != 4 {
		t.Fatalf("%d idle wake-ups, want 4: %v", len(late), late)
	}
	for _, d := range late {
		if d != 0 {
			t.Fatalf("idle wake-up %v late on an exact clock", d)
		}
	}
}

func TestPacedStopsOnErrStop(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	n := 0
	paced(clk, clk.now, time.Millisecond, time.Second,
		func(i int) error {
			if i == 3 {
				return errStop
			}
			return nil
		},
		func(time.Duration, error) { n++ }, func(time.Duration) {})
	if n != 3 {
		t.Fatalf("recorded %d visits, want the 3 before errStop", n)
	}
}

func TestTimerClockWakesOnTime(t *testing.T) {
	clk, err := newTimerClock()
	if err != nil {
		t.Fatal(err)
	}
	defer clk.Close()
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		clk.Sleep(3 * time.Millisecond)
		if d := time.Since(t0); d < 3*time.Millisecond || d > 13*time.Millisecond {
			t.Errorf("Sleep(3ms) took %v", d)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// visit [0,100] > op [10,90] > roundtrip [20,70]; a second child of the
	// visit [92,98].
	spans := []span{
		{name: "visit", id: 1, parent: 0, start: 0, end: 100},
		{name: "op", id: 2, parent: 1, start: 10, end: 90},
		{name: "roundtrip", id: 3, parent: 2, start: 20, end: 70},
		{name: "check", id: 4, parent: 1, start: 92, end: 98},
	}
	got := selfTimes(spans)
	want := map[string][]int64{"visit": {100 - 80 - 6}, "op": {80 - 50}, "roundtrip": {50}, "check": {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderNestsAndTabulates(t *testing.T) {
	r := &recorder{client: 0, on: true, t0: time.Now()}
	r.visit = 1
	v := r.begin("visit/leaf")
	l := r.begin("leaf/update")
	p := r.begin("kvdb.put")
	r.end(p)
	r.end(l)
	o := r.begin(clientSpan[opFetch])
	rt := r.begin("roundtrip")
	r.end(rt)
	r.end(o)
	r.end(v)
	var off *recorder
	off.end(off.begin("ignored")) // a nil recorder records nothing

	var got []span
	r.each(func(s span) { got = append(got, s) })
	parents := []int32{0, 1, 2, 1, 4}
	for i, s := range got {
		if s.id != int32(i+1) || s.parent != parents[i] || s.end < s.start {
			t.Fatalf("span %d = %+v, want id %d parent %d", i, s, i+1, parents[i])
		}
	}
	tab := tabulate([]*recorder{r})
	for _, name := range []string{"kvdb.put", "kvdb.put@update", "roundtrip/" + clientSpan[opFetch], "visit/leaf"} {
		if len(tab.dur[name]) != 1 {
			t.Errorf("tabulate filed %d spans under %q, want 1", len(tab.dur[name]), name)
		}
	}
}

func TestVerdicts(t *testing.T) {
	ops := endToEndMetrics[0]
	lat := endToEndMetrics[1]
	for _, tc := range []struct {
		d    endToEndDef
		a, b float64
		want string
	}{
		{ops, 1000, 950, "same"}, {ops, 1000, 880, "worse"}, {ops, 1000, 1120, "better"},
		{lat, 1.0, 1.05, "same"}, {lat, 1.0, 1.2, "worse"}, {lat, 1.0, 0.8, "better"},
	} {
		if got := verdictOf(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, ops float64) string {
		rep := report{Fingerprint: fingerprint{Seed: seed, NProc: 2, Clients: 2, Filesystem: "ext", Seconds: 30},
			Workloads: []*result{{Workload: "fetch", EndToEnd: map[string]metric{}}}}
		for _, d := range endToEndMetrics {
			rep.Workloads[0].EndToEnd[d.name] = metric{1, d.unit}
		}
		rep.Workloads[0].EndToEnd["ops_per_s"] = metric{ops, "1/s"}
		raw, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse, other := write("a.json", 1, 1000), write("b.json", 1, 990), write("c.json", 1, 800), write("d.json", 2, 1000)
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	if code := compareFiles(a, same, devnull, devnull); code != 0 {
		t.Errorf("A/A within bounds exits %d, want 0", code)
	}
	if code := compareFiles(a, worse, devnull, devnull); code != 1 {
		t.Errorf("a 20%% throughput loss exits %d, want 1", code)
	}
	if code := compareFiles(a, other, devnull, devnull); code != 2 {
		t.Errorf("results of different seeds exit %d, want the refusal 2", code)
	}
}

// BENCHMARK.json is what the driver reads; the program must print exactly
// the metrics and workloads it names.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (why: %d chars), implemented %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(decl.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range decl.EndToEnd {
		d := endToEndMetrics[i]
		better := "lower"
		if d.higherGood {
			better = "higher"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(decl.PerLayer), len(perLayerMetrics))
	}
	for i, m := range decl.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: declared %s (%s), implemented %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// Each workload, end to end through the code path of main: one timed
// set-up, a short warm-up, a one-second window, the checks, the failover
// drill where there is one, and the traced run with its two ladders.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real deployments")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			out := filepath.Join("out", "test")
			cfg := runConfig{seed: 1, clients: 2, window: time.Second, warmup: 200 * time.Millisecond, setups: 1, dataDir: filepath.Join(out, "data")}
			t.Cleanup(func() { os.RemoveAll(out) })
			if err := os.MkdirAll(cfg.dataDir, 0o700); err != nil {
				t.Fatal(err)
			}
			r := runWorkload(context.Background(), sp, cfg, true, filepath.Join(out, "trace-"+sp.name+".jsonl"))
			for _, e := range r.Errors {
				t.Error(e)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			for _, d := range endToEndMetrics {
				if m, ok := r.EndToEnd[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %+v", d.name, m)
				}
			}
			for _, d := range perLayerMetrics {
				if m, ok := r.PerLayer[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s = %+v", d.name, m)
				}
			}
			if len(r.Decomposition) == 0 {
				t.Error("the traced run printed no ladder")
			}
			if fi, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
			// The exact counters.
			commits := map[string]float64{"fetch": 0, "attest": 4, "fleet_write": 1}
			if want, ok := commits[sp.name]; ok && r.PerLayer["core.db_commits_per_op"].Value != want {
				t.Errorf("core.db_commits_per_op = %v, want exactly %v", r.PerLayer["core.db_commits_per_op"].Value, want)
			}
			if sp.name == "fetch" && r.PerLayer["kvdb.wal_kb_per_op"].Value != 0 {
				t.Errorf("kvdb.wal_kb_per_op = %v on fetch, want 0", r.PerLayer["kvdb.wal_kb_per_op"].Value)
			}
			if sp.fleet {
				if got := r.PerLayer["fleet.repl_entries_per_write"].Value; got != 1 {
					t.Errorf("fleet.repl_entries_per_write = %v, want exactly 1", got)
				}
				if got := r.PerLayer["fleet.failover_ms"].Value; got <= 0 {
					t.Errorf("fleet.failover_ms = %v", got)
				}
			}
			if sp.governed {
				if got := r.PerLayer["board.asks_per_op"].Value; got < 1.7 || got > 1.9 {
					t.Errorf("board.asks_per_op = %v, want about 1.8", got)
				}
			}
		})
	}
}
