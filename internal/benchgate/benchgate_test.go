package benchgate

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestParseGoldenFixtures runs the parser over captured `go test
// -bench` outputs — with and without -benchmem columns, with MB/s, and
// with parallel/sub-benchmark names — and compares the parse against
// committed .golden.json files.
func TestParseGoldenFixtures(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("testdata", "sample_*.txt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sample fixtures under testdata/: %v", err)
	}
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			results, err := ParseBench(f)
			if err != nil {
				t.Fatalf("ParseBench: %v", err)
			}
			got, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			goldenPath := strings.TrimSuffix(path, ".txt") + ".golden.json"
			if *update {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("parse mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestParseSpecifics pins the parser behaviors the golden files can't
// express as failures: suffix stripping, absent columns, bad input.
func TestParseSpecifics(t *testing.T) {
	results, err := ParseBench(strings.NewReader(
		"BenchmarkA/sub-case-8 \t 10 \t 5.0 ns/op\nBenchmarkB \t 20 \t 7.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Name != "BenchmarkA/sub-case" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", results[0].Name)
	}
	if results[1].Name != "BenchmarkB" {
		t.Errorf("suffix-less name mangled: %q", results[1].Name)
	}
	if results[0].AllocsPerOp != -1 || results[0].BytesPerOp != -1 || results[0].MBPerSec != -1 {
		t.Errorf("absent columns should be -1: %+v", results[0])
	}

	for _, bad := range []string{
		"BenchmarkX 10 notanumber ns/op\n",
		"BenchmarkX ten 5 ns/op\n",
		"BenchmarkX 10 5 B/op 1 allocs/op\n", // no ns/op column
	} {
		if _, err := ParseBench(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed line accepted: %q", bad)
		}
	}

	if got, err := ParseBench(strings.NewReader("PASS\nok  \tsperke\t1.0s\n")); err != nil || len(got) != 0 {
		t.Errorf("chatter-only input: %v results, err %v", got, err)
	}
}

func baseOf(entries map[string]Entry) *Baseline {
	return &Baseline{Benchmarks: entries}
}

func TestCompareGates(t *testing.T) {
	base := baseOf(map[string]Entry{
		"BenchmarkWarm": {NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
		"BenchmarkCold": {NsPerOp: 200000, BytesPerOp: 110000, AllocsPerOp: 4},
	})
	ok := []Result{
		{Name: "BenchmarkWarm", NsPerOp: 120, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkCold", NsPerOp: 180000, BytesPerOp: 110000, AllocsPerOp: 4},
	}
	if regs, _ := Compare(base, ok, CompareConfig{}); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %+v", regs)
	}

	// >25% ns/op regression gates.
	slow := []Result{
		{Name: "BenchmarkWarm", NsPerOp: 126, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkCold", NsPerOp: 200000, BytesPerOp: 110000, AllocsPerOp: 4},
	}
	regs, _ := Compare(base, slow, CompareConfig{})
	if len(regs) != 1 || regs[0].Kind != "ns/op" || regs[0].Name != "BenchmarkWarm" {
		t.Fatalf("ns/op regression not caught: %+v", regs)
	}
	// ...but a wider tolerance admits it.
	if regs, _ := Compare(base, slow, CompareConfig{NsTolerance: 0.5}); len(regs) != 0 {
		t.Fatalf("tolerance override ignored: %+v", regs)
	}

	// Any allocs/op growth gates, even inside the ns tolerance.
	leaky := []Result{
		{Name: "BenchmarkWarm", NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1},
		{Name: "BenchmarkCold", NsPerOp: 200000, BytesPerOp: 110000, AllocsPerOp: 4},
	}
	regs, _ = Compare(base, leaky, CompareConfig{})
	if len(regs) != 1 || regs[0].Kind != "allocs/op" {
		t.Fatalf("allocs/op regression not caught: %+v", regs)
	}

	// A baselined benchmark missing from the run gates, unless allowed.
	partial := []Result{{Name: "BenchmarkWarm", NsPerOp: 100, AllocsPerOp: 0}}
	regs, _ = Compare(base, partial, CompareConfig{})
	if len(regs) != 1 || regs[0].Kind != "missing" {
		t.Fatalf("missing benchmark not caught: %+v", regs)
	}
	if regs, _ := Compare(base, partial, CompareConfig{AllowMissing: true}); len(regs) != 0 {
		t.Fatalf("AllowMissing ignored: %+v", regs)
	}

	// A run without -benchmem cannot vouch for a pinned alloc budget.
	noMem := []Result{
		{Name: "BenchmarkWarm", NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkCold", NsPerOp: 200000, BytesPerOp: -1, AllocsPerOp: -1},
	}
	regs, _ = Compare(base, noMem, CompareConfig{})
	if len(regs) != 2 || regs[0].Kind != "no-benchmem" {
		t.Fatalf("missing -benchmem columns not caught: %+v", regs)
	}

	// Improvements and unbaselined benchmarks are notes, not failures.
	better := []Result{
		{Name: "BenchmarkWarm", NsPerOp: 50, AllocsPerOp: 0},
		{Name: "BenchmarkCold", NsPerOp: 200000, AllocsPerOp: 4},
		{Name: "BenchmarkNew", NsPerOp: 10, AllocsPerOp: 0},
	}
	regs, notes := Compare(base, better, CompareConfig{})
	if len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}
	kinds := map[string]bool{}
	for _, n := range notes {
		kinds[n.Kind] = true
	}
	if !kinds["improved"] || !kinds["new"] {
		t.Fatalf("expected improved+new notes, got %+v", notes)
	}
}

// TestCompareCollapsesRepeatedRuns: with -count>1 the gate judges the
// mean ns/op across runs (one noisy sample must not fail the build)
// but the worst allocs/op (allocation counts are deterministic, so a
// single bad run is a real regression). Duplicates also produce one
// "new" note, not one per run.
func TestCompareCollapsesRepeatedRuns(t *testing.T) {
	base := baseOf(map[string]Entry{"BenchmarkHot": {NsPerOp: 100, AllocsPerOp: 1}})
	// Runs: 90, 160, 110 → mean 120, within 25% of 100. Last-write-wins
	// would judge 110 too, so include one where only the mean passes:
	// 160 alone would fail.
	runs := []Result{
		{Name: "BenchmarkHot", NsPerOp: 90, AllocsPerOp: 1},
		{Name: "BenchmarkHot", NsPerOp: 160, AllocsPerOp: 1},
		{Name: "BenchmarkHot", NsPerOp: 110, AllocsPerOp: 1},
		{Name: "BenchmarkFresh", NsPerOp: 10, AllocsPerOp: 0},
		{Name: "BenchmarkFresh", NsPerOp: 12, AllocsPerOp: 0},
	}
	regs, notes := Compare(base, runs, CompareConfig{})
	if len(regs) != 0 {
		t.Fatalf("mean within tolerance still flagged: %+v", regs)
	}
	newNotes := 0
	for _, n := range notes {
		if n.Kind == "new" {
			newNotes++
		}
	}
	if newNotes != 1 {
		t.Fatalf("repeated unbaselined benchmark noted %d times, want 1", newNotes)
	}

	// One run allocating more than baseline gates even when others don't.
	leakyOnce := []Result{
		{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 1},
	}
	regs, _ = Compare(base, leakyOnce, CompareConfig{})
	if len(regs) != 1 || regs[0].Kind != "allocs/op" {
		t.Fatalf("worst-run alloc growth not caught: %+v", regs)
	}
}

func TestBaselineRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_BASELINE.json")
	b := baseOf(map[string]Entry{"BenchmarkKeep": {NsPerOp: 9, AllocsPerOp: 1}})
	b.Note = "recorded on the dev box"
	b.Merge([]Result{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 32, AllocsPerOp: 2},
		{Name: "BenchmarkA", NsPerOp: 200, BytesPerOp: 48, AllocsPerOp: 3}, // -count=2: avg ns, worst allocs
		{Name: "BenchmarkKeep", NsPerOp: 10, BytesPerOp: 0, AllocsPerOp: 1},
	})
	if e := b.Benchmarks["BenchmarkA"]; e.NsPerOp != 150 || e.AllocsPerOp != 3 || e.BytesPerOp != 48 {
		t.Fatalf("duplicate merge wrong: %+v", e)
	}
	if e := b.Benchmarks["BenchmarkKeep"]; e.NsPerOp != 10 {
		t.Fatalf("re-run entry not replaced: %+v", e)
	}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != b.Note || len(got.Benchmarks) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Benchmarks["BenchmarkA"] != b.Benchmarks["BenchmarkA"] {
		t.Fatalf("entry changed across round trip")
	}
	if _, err := LoadBaseline(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing baseline loaded")
	}
}

// TestMachineFromCPUHeader: each result carries the output's cpu
// header and its GOMAXPROCS, and a merge records both on the entry.
func TestMachineFromCPUHeader(t *testing.T) {
	results, err := ParseBench(strings.NewReader("goos: linux\ncpu: Xeon\n" +
		"BenchmarkA-2 \t 10 \t 5.0 ns/op\nBenchmarkB \t 20 \t 7.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Machine != "Xeon, GOMAXPROCS 2" || results[1].Machine != "Xeon, GOMAXPROCS 1" {
		t.Fatalf("machines %q, %q", results[0].Machine, results[1].Machine)
	}
	b := baseOf(nil)
	b.Merge(results)
	if m := b.Benchmarks["BenchmarkA"].Machine; m != "Xeon, GOMAXPROCS 2" {
		t.Fatalf("merged entry machine = %q", m)
	}
	noCPU, err := ParseBench(strings.NewReader("BenchmarkA-2 \t 10 \t 5.0 ns/op\n"))
	if err != nil || noCPU[0].Machine != "" {
		t.Fatalf("no cpu header: machine %q, err %v", noCPU[0].Machine, err)
	}
}
