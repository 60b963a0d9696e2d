// Package benchgate is Sperke's continuous benchmark gate: a
// pure-stdlib parser for `go test -bench [-benchmem]` output plus a
// committed-baseline comparison that turns silent performance
// regressions into CI failures.
//
// The ROADMAP's north star is a serving stack that runs "as fast as
// the hardware allows"; the gate pins the numbers that claim so. The
// workflow (EXPERIMENTS.md E20):
//
//	go test -run=NONE -bench=. -benchmem . | sperke-benchgate -update BENCH_BASELINE.json
//	go test -run=NONE -bench=. -benchmem . | sperke-benchgate -compare BENCH_BASELINE.json
//
// Comparison fails (exit 1 in the CLI) when a benchmark regresses more
// than the ns/op tolerance (default 25%), when allocs/op grows at all
// (allocation counts are deterministic, so any increase is a real
// change), or when a baselined benchmark disappears from the run.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Bytes/allocs columns come from
// -benchmem; fields for absent columns are -1 so "not reported" is
// distinguishable from zero.
type Result struct {
	// Name is the full sub-benchmark path with the trailing -GOMAXPROCS
	// suffix stripped, e.g. "BenchmarkChunkStore/warm".
	Name        string
	Iterations  int64
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
	MBPerSec    float64
	// Machine names the hardware the line was measured on: the CPU
	// from the output's "cpu:" header and the GOMAXPROCS from the name's
	// suffix (Go omits the suffix at 1). Empty when the output has no
	// cpu header.
	Machine string `json:",omitempty"`
}

// ParseBench reads `go test -bench` output and returns the benchmark
// lines in input order, skipping headers (goos/goarch/pkg/cpu), test
// chatter and the PASS/ok trailer. It is tolerant of interleaved
// non-benchmark lines but rejects a malformed Benchmark line outright —
// a gate that half-parses its input is worse than one that fails.
func ParseBench(r io.Reader) ([]Result, error) {
	var out []Result
	var cpu string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name iterations value unit [value unit]...";
		// a bare "BenchmarkFoo" progress line (from -v) has one field.
		if len(fields) < 4 || len(fields)%2 != 0 {
			if len(fields) == 1 {
				continue
			}
			return nil, fmt.Errorf("benchgate: malformed benchmark line %q", line)
		}
		name, procs := splitProcs(fields[0])
		res := Result{
			Name:        name,
			BytesPerOp:  -1,
			AllocsPerOp: -1,
			MBPerSec:    -1,
		}
		if cpu != "" {
			res.Machine = fmt.Sprintf("%s, GOMAXPROCS %s", cpu, procs)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad iteration count in %q: %w", line, err)
		}
		res.Iterations = iters
		sawNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q: %w", val, line, err)
			}
			switch unit {
			case "ns/op":
				res.NsPerOp = f
				sawNs = true
			case "B/op":
				res.BytesPerOp = int64(f)
			case "allocs/op":
				res.AllocsPerOp = int64(f)
			case "MB/s":
				res.MBPerSec = f
			default:
				// Custom b.ReportMetric units ride along unparsed.
			}
		}
		if !sawNs {
			return nil, fmt.Errorf("benchgate: benchmark line %q has no ns/op column", line)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading bench output: %w", err)
	}
	return out, nil
}

// splitProcs splits the trailing -GOMAXPROCS suffix ("-8" in
// "BenchmarkX/sub-8") off a name, so names are stable across machines,
// and returns it ("1" when absent, as Go omits it at 1). Only an
// all-digit final segment is a suffix.
func splitProcs(name string) (string, string) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name, "1"
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name, "1"
		}
	}
	return name[:i], name[i+1:]
}

// Entry is one benchmark's committed baseline numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Machine names the hardware the numbers were recorded on (see
	// Result.Machine), so ns/op from different machines are not read as
	// one series. Empty for entries recorded before the field existed.
	Machine string `json:"machine,omitempty"`
}

// Baseline is the committed BENCH_BASELINE.json shape.
type Baseline struct {
	// Note documents how the baseline was recorded (command, machine
	// class) for whoever regenerates it next.
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = make(map[string]Entry)
	}
	return &b, nil
}

// Merge folds parsed results into the baseline, replacing entries for
// benchmarks present in results and keeping the rest — so baselines
// for different bench patterns can be accumulated across runs.
// Duplicate names in results (e.g. -count>1) average their ns/op and
// keep the worst (highest) allocs/op and B/op, which is the
// conservative side for a gate.
func (b *Baseline) Merge(results []Result) {
	if b.Benchmarks == nil {
		b.Benchmarks = make(map[string]Entry)
	}
	seen := make(map[string]int)
	for _, r := range results {
		e, dup := b.Benchmarks[r.Name]
		n := seen[r.Name]
		if !dup || n == 0 {
			b.Benchmarks[r.Name] = Entry{NsPerOp: r.NsPerOp, BytesPerOp: r.BytesPerOp, AllocsPerOp: r.AllocsPerOp, Machine: r.Machine}
			seen[r.Name] = 1
			continue
		}
		e.NsPerOp = (e.NsPerOp*float64(n) + r.NsPerOp) / float64(n+1)
		if r.AllocsPerOp > e.AllocsPerOp {
			e.AllocsPerOp = r.AllocsPerOp
		}
		if r.BytesPerOp > e.BytesPerOp {
			e.BytesPerOp = r.BytesPerOp
		}
		b.Benchmarks[r.Name] = e
		seen[r.Name] = n + 1
	}
}

// Save writes the baseline as stable, human-diffable JSON.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareConfig tunes the gate. The zero value means: 25% ns/op
// tolerance, zero alloc slack, missing benchmarks fail.
type CompareConfig struct {
	// NsTolerance is the allowed fractional ns/op growth before a
	// benchmark counts as regressed; 0 defaults to 0.25 (>25% fails).
	NsTolerance float64
	// AllocSlack is the allowed absolute allocs/op growth; the default
	// 0 fails on any increase (allocation counts are deterministic).
	AllocSlack int64
	// AllowMissing skips baselined benchmarks absent from the run
	// instead of failing — for gating partial local runs.
	AllowMissing bool
}

// Finding is one comparison outcome. Regressions gate; notes inform.
type Finding struct {
	Name string
	Kind string // "ns/op", "allocs/op", "missing", "no-benchmem", "improved", "new"
	Base float64
	Cur  float64
	Msg  string
}

// Compare checks results against the baseline and returns gating
// regressions plus informational notes (improvements, new benchmarks),
// both sorted by benchmark name. Duplicate result names (-count>1)
// are collapsed the way Merge records them — ns/op averaged across
// runs, worst allocs/op and B/op kept — so the ns gate judges the
// mean, not whichever run happened to land last.
func Compare(base *Baseline, results []Result, cfg CompareConfig) (regressions, notes []Finding) {
	tol := cfg.NsTolerance
	if tol <= 0 {
		tol = 0.25
	}
	cur := make(map[string]Result, len(results))
	runs := make(map[string]int, len(results))
	for _, r := range results {
		prev, dup := cur[r.Name]
		n := runs[r.Name]
		if !dup || n == 0 {
			cur[r.Name] = r
			runs[r.Name] = 1
			continue
		}
		prev.NsPerOp = (prev.NsPerOp*float64(n) + r.NsPerOp) / float64(n+1)
		if r.AllocsPerOp > prev.AllocsPerOp {
			prev.AllocsPerOp = r.AllocsPerOp
		}
		if r.BytesPerOp > prev.BytesPerOp {
			prev.BytesPerOp = r.BytesPerOp
		}
		cur[r.Name] = prev
		runs[r.Name] = n + 1
	}
	for name, e := range base.Benchmarks {
		r, ok := cur[name]
		if !ok {
			if !cfg.AllowMissing {
				regressions = append(regressions, Finding{
					Name: name, Kind: "missing",
					Msg: fmt.Sprintf("%s: baselined benchmark missing from this run", name),
				})
			}
			continue
		}
		if limit := e.NsPerOp * (1 + tol); r.NsPerOp > limit {
			regressions = append(regressions, Finding{
				Name: name, Kind: "ns/op", Base: e.NsPerOp, Cur: r.NsPerOp,
				Msg: fmt.Sprintf("%s: %.1f ns/op exceeds baseline %.1f ns/op by more than %.0f%%",
					name, r.NsPerOp, e.NsPerOp, tol*100),
			})
		} else if r.NsPerOp < e.NsPerOp*(1-tol) {
			notes = append(notes, Finding{
				Name: name, Kind: "improved", Base: e.NsPerOp, Cur: r.NsPerOp,
				Msg: fmt.Sprintf("%s: %.1f ns/op improved on baseline %.1f ns/op — consider -update",
					name, r.NsPerOp, e.NsPerOp),
			})
		}
		if e.AllocsPerOp >= 0 {
			switch {
			case r.AllocsPerOp < 0:
				regressions = append(regressions, Finding{
					Name: name, Kind: "no-benchmem", Base: float64(e.AllocsPerOp),
					Msg: fmt.Sprintf("%s: baseline pins %d allocs/op but the run lacks -benchmem columns",
						name, e.AllocsPerOp),
				})
			case r.AllocsPerOp > e.AllocsPerOp+cfg.AllocSlack:
				regressions = append(regressions, Finding{
					Name: name, Kind: "allocs/op", Base: float64(e.AllocsPerOp), Cur: float64(r.AllocsPerOp),
					Msg: fmt.Sprintf("%s: %d allocs/op exceeds baseline %d allocs/op",
						name, r.AllocsPerOp, e.AllocsPerOp),
				})
			}
		}
	}
	for name := range cur {
		if _, ok := base.Benchmarks[name]; !ok {
			notes = append(notes, Finding{
				Name: name, Kind: "new",
				Msg: fmt.Sprintf("%s: not in baseline — run -update to pin it", name),
			})
		}
	}
	byName := func(fs []Finding) {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Name != fs[j].Name {
				return fs[i].Name < fs[j].Name
			}
			return fs[i].Kind < fs[j].Kind
		})
	}
	byName(regressions)
	byName(notes)
	return regressions, notes
}
