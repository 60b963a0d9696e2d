package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// specMetrics reads the metric names BENCHMARK.json promises for each
// mode: end_to_end for --trace 0, per_layer for --trace 1.
func specMetrics(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(perLayer)
	return e2e, perLayer
}

func tinyRun(t *testing.T, workload string, traced bool, wrap func(originSource) originSource) (result, string) {
	t.Helper()
	dir := t.TempDir()
	res, err := runBench(context.Background(), options{
		workload:   workload,
		seed:       7,
		seconds:    0.01,
		trace:      traced,
		spanDir:    dir,
		scale:      tinyScale,
		wrapOrigin: wrap,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res, dir
}

func TestWorkloadsEmitEveryNamedMetric(t *testing.T) {
	e2e, perLayer := specMetrics(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, dir := tinyRun(t, w, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := e2e
			if traced {
				want = perLayer
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w, traced, got, want)
			}
			if traced {
				checkSpanFile(t, filepath.Join(dir, w+"-seed7.jsonl"))
				if gap := res.Metrics["cluster.accounting_gap"].Value; gap != 0 {
					t.Errorf("%s: accounting gap %v", w, gap)
				}
			}
		}
	}
}

// checkSpanFile asserts the traced run wrote spans at all three seams,
// with server spans parented by client spans and origin spans by a
// server span or the warm root.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	byID := map[[2]uint64]string{}
	var lines []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		names[l.Name]++
		byID[[2]uint64{uint64(l.Round), l.ID}] = l.Name
		lines = append(lines, l)
	}
	for _, n := range []string{spanClient, spanDash, spanOrigin, spanWarm} {
		if names[n] == 0 {
			t.Errorf("%s: no %q spans (have %v)", filepath.Base(path), n, names)
		}
	}
	for _, l := range lines {
		parent := byID[[2]uint64{uint64(l.Round), l.Parent}]
		switch {
		case l.Name == spanDash && parent != spanClient:
			t.Errorf("dash span %d has parent %q", l.ID, parent)
		case l.Name == spanOrigin && parent != spanDash && parent != spanWarm:
			t.Errorf("origin span %d has parent %q", l.ID, parent)
		}
	}
}

// flipOrigin corrupts every body it hands out: one payload byte is
// flipped and the segment CRC recomputed, so the client's CRC check
// passes and only the byte-identity oracle can notice.
type flipOrigin struct{ inner originSource }

func flip(body []byte) []byte {
	out := append([]byte(nil), body...)
	payload := out[segFixedHeader+int(out[7]):]
	payload[len(payload)/2] ^= 0x5a
	binary.BigEndian.PutUint32(out[22:], crc32.ChecksumIEEE(payload))
	return out
}

func (f flipOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	body, err := f.inner.Chunk(ctx, videoID, quality, tile, index, layer)
	if err != nil {
		return nil, err
	}
	return flip(body), nil
}

func (f flipOrigin) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	return f.inner.ChunkLen(videoID, quality, tile, index, layer)
}

func (f flipOrigin) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	body, err := f.Chunk(ctx, videoID, quality, tile, index, layer)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	return int64(n), err
}

func TestFlippedByteFailsTheOracle(t *testing.T) {
	for _, w := range workloadNames {
		res, _ := tinyRun(t, w, false, func(o originSource) originSource { return flipOrigin{o} })
		if res.Correct {
			t.Fatalf("%s: a flipped body byte passed the oracle", w)
		}
		if res.Failed != 0 {
			t.Errorf("%s: the flip should pass the client's CRC check, yet %d requests failed", w, res.Failed)
		}
		found := false
		for _, p := range res.problems {
			found = found || strings.Contains(p, "SHA-256")
		}
		if !found {
			t.Errorf("%s: no digest mismatch reported: %v", w, res.problems)
		}
	}
}

func TestCoveredByCountsOverlapOnce(t *testing.T) {
	kid := func(s, e time.Duration) span { return span{Start: s, End: e} }
	kids := []span{kid(5, 15), kid(10, 20), kid(30, 40), kid(95, 120)}
	if got := coveredBy(0, 100, kids); got != 15+10+5 {
		t.Fatalf("covered = %v, want 30", got)
	}
	if got := coveredBy(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %v", got)
	}
}

func TestParseChunkPath(t *testing.T) {
	a, ok := parseChunkPath("/v/cold-3/c/2/17/41")
	if !ok || a != (chunkAddr{Video: "cold-3", Q: 2, Tile: 17, Idx: 41}) || a.path() != "/v/cold-3/c/2/17/41" {
		t.Fatalf("parse = %+v %v", a, ok)
	}
	for _, p := range []string{"/v/x/manifest.mpd", "/v/x/c/1/2", "/v/x/c/1/2/3/4", "/v/x/c/a/2/3", "v/x/c/1/2/3"} {
		if _, ok := parseChunkPath(p); ok {
			t.Errorf("%q parsed as a chunk", p)
		}
	}
}

func TestLadderPrintsEveryRung(t *testing.T) {
	var out strings.Builder
	if err := runLadder(context.Background(), 7, tinyScale, &out); err != nil {
		t.Fatal(err)
	}
	for _, rung := range []string{"sim-only", "direct-http", "wire-cluster"} {
		if !strings.Contains(out.String(), "\n"+rung+" ") {
			t.Errorf("ladder output lacks rung %s:\n%s", rung, out.String())
		}
	}
}
