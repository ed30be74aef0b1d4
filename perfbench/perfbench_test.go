package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

func testParams(t *testing.T) Params {
	t.Helper()
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// BENCHMARK.json and the metric tables must list the same metrics, in the
// same order, with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		got   []struct{ Name, Unit string }
		table []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", c.what, len(c.got), len(c.table))
		}
		for i, d := range c.table {
			if c.got[i].Name != d.Name || c.got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), metrics.go %s (%s)",
					c.what, i, c.got[i].Name, c.got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	for _, w := range doc.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// Both listed seeds carry an expected digest.
func TestListedSeedsHaveDigests(t *testing.T) {
	p := testParams(t)
	if p.Seeds.Default != 42 {
		t.Errorf("default seed %d, want 42", p.Seeds.Default)
	}
	if p.Seeds.HeldOut == p.Seeds.Default {
		t.Error("held-out seed equals the default seed")
	}
	for _, s := range []int64{p.Seeds.Default, p.Seeds.HeldOut} {
		if len(p.PaperSweep.Digests[strconv.FormatInt(s, 10)]) != 64 {
			t.Errorf("seed %d has no SHA-256 digest", s)
		}
	}
}

func TestCheckDigest(t *testing.T) {
	want := strings.Repeat("ab", 32)
	perturbed := "ac" + want[2:]
	var first string
	if err := checkDigest(want, want, &first); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := checkDigest(perturbed, want, &first); err == nil {
		t.Error("perturbed digest accepted")
	}
	// Unlisted seed: the first pass becomes the reference.
	first = ""
	if err := checkDigest(want, "", &first); err != nil || first != want {
		t.Fatalf("first pass: err %v, reference %q", err, first)
	}
	if err := checkDigest(perturbed, "", &first); err == nil {
		t.Error("a pass differing from the first was accepted")
	}
}

// A real paper-sweep pass at seed 42 matches the listed digest, and the
// same pass against a perturbed digest counts as a failed operation.
func TestPaperSweepPassCatchesPerturbedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick figure sweep twice")
	}
	p := testParams(t)
	b := newBench(paperSweep, 42, time.Second, false, t.TempDir(), p)
	r := &paperSweepRun{b: b, spec: platform.Niagara().WithSeed(42), nproc: 2, want: p.PaperSweep.Digests["42"]}
	r.pass(nil, 0)
	if b.attempted != 1 || b.failed != 0 {
		t.Fatalf("seed 42 pass: %d attempted, %d failed (%v)", b.attempted, b.failed, b.failures)
	}
	r.want = "0" + r.want[1:]
	if r.want == p.PaperSweep.Digests["42"] {
		r.want = "1" + r.want[1:]
	}
	r.pass(nil, 0)
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("perturbed digest: %d attempted, %d failed", b.attempted, b.failed)
	}
}

func TestSameResultCatchesMismatch(t *testing.T) {
	ref := &patterns.Result{Elapsed: 5 * sim.Microsecond, PayloadBytes: 100, Messages: 7}
	got := *ref
	if err := sameResult("halo3d", &got, ref); err != nil {
		t.Errorf("identical results rejected: %v", err)
	}
	got.Elapsed++
	if err := sameResult("halo3d", &got, ref); err == nil {
		t.Error("a result differing from the shards = 1 reference was accepted")
	}
}

// A call's set-up is its wall time outside its shard windows' span; a
// call without windows, or with windows longer than the call, is an error.
func TestCallSetup(t *testing.T) {
	evs := []trace.Event{{TsUs: 30, DurUs: 20}, {TsUs: 10, DurUs: 15}, {TsUs: 40, DurUs: 30}}
	got, err := callSetup(100*time.Microsecond, evs)
	if err != nil || got != 40*time.Microsecond {
		t.Errorf("callSetup = %v, %v; want 40µs (100µs call, windows 10–70µs)", got, err)
	}
	if _, err := callSetup(time.Millisecond, nil); err == nil {
		t.Error("a call without shard windows was accepted")
	}
	if _, err := callSetup(50*time.Microsecond, evs); err == nil {
		t.Error("windows longer than their call were accepted")
	}
}

// Exactly one request in every ColdEvery is cold, whatever the seed.
func TestMixPicksOneColdPerBlock(t *testing.T) {
	p := testParams(t)
	for _, seed := range []int64{1, 42, 1009} {
		m := &mixRun{b: &bench{seed: seed}, p: p.SweepdMix, hot: make([]mixSpec, p.SweepdMix.HotPool)}
		every := int64(p.SweepdMix.ColdEvery)
		for block := int64(0); block < 50; block++ {
			cold := 0
			for j := block * every; j < (block+1)*every; j++ {
				hot, isCold := m.pick(j)
				if isCold {
					cold++
				} else if hot < 0 || hot >= len(m.hot) {
					t.Fatalf("hot index %d out of range", hot)
				}
			}
			if cold != 1 {
				t.Fatalf("seed %d block %d: %d cold requests, want 1", seed, block, cold)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	root := l.add(0, "a", "root", 1, 0, 100)
	// Two overlapping children cover [10, 60]; one more covers [80, 90].
	c1 := l.add(root, "b", "c1", 1, 10, 50)
	l.add(root, "b", "c2", 1, 30, 60)
	l.add(root, "b", "c3", 1, 80, 90)
	l.add(c1, "c", "g", 1, 20, 30)
	self := l.selfTimes()
	if self["a"] != 40 || self["b"] != 70 || self["c"] != 10 {
		t.Errorf("self times %v, want a=40 b=70 c=10", self)
	}
}

// The metric tables' workload lists name workloads that exist.
func TestMetricTablesNameWorkloads(t *testing.T) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		for _, w := range d.On {
			if workloads[w] == nil {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
	}
}

// The host-speed factor multiplies times, divides rates and leaves other
// units alone.
func TestScaleByUnit(t *testing.T) {
	for _, c := range []struct {
		unit string
		want float64
	}{{"s", 1}, {"ms", 1}, {"1/s", 4}, {"MiB", 2}} {
		if got := scaleByUnit(Metric{Value: 2, Unit: c.unit}, 0.5); got.Value != c.want || got.Unit != c.unit {
			t.Errorf("%s: 2 scaled by 0.5 = %v %s, want %v", c.unit, got.Value, got.Unit, c.want)
		}
	}
}
