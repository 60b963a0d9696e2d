package main

import (
	"io"
	"runtime"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/serve"
)

// layers accumulates the per-layer numbers of a run's traced rounds,
// from the spans at the three wrapped seams and the layers' own public
// counters.
type layers struct {
	sent, ok, failed int
	openMS, lateMS   []float64
	simShare         []float64
	sessionsPerS     []float64

	roundtrips, retries, conns int64
	ttfbMS, bodyMS             []float64

	handleMS, handleSelfMS []float64
	dashErrors             int64
	bytesOut               int64

	clusterCounters     map[string]int64
	edgeReqs, edgeMiss  int64
	inflightMax, gapSum int64

	storeCounters   map[string]int64
	getMS           []float64
	originKeys      int
	unrequestedKeys int
	calibrationKeys []serve.ChunkKey
	gcCycles        uint32
	gcPause         time.Duration
	allocBytes      uint64
	leaked          int
}

var clusterCounterNames = []string{
	"requests", "coalesced", "reroutes", "sheds", "origin_fallbacks", "warm_drops", "prewarm_fetches",
}

var storeCounterNames = map[string]string{
	"hits": "serve.store.hits", "misses": "serve.store.misses",
	"evictions": "serve.store.evictions", "shared": "serve.store.singleflight_shared",
}

func newLayers() *layers {
	return &layers{clusterCounters: map[string]int64{}, storeCounters: map[string]int64{}}
}

// addRound folds one traced round in. It reads the stack's counters,
// so it runs before the stack closes.
func (l *layers) addRound(s *stack, out roundOut, spans []span, ms0, ms1 *runtime.MemStats, inflightMax, gap int64) {
	l.sent += out.attempted
	l.ok += out.attempted - out.failed
	l.failed += out.failed
	l.openMS = append(l.openMS, out.openMS...)
	l.lateMS = append(l.lateMS, out.lateMS...)
	if out.sessionsPerS > 0 {
		l.simShare = append(l.simShare, out.simShare)
		l.sessionsPerS = append(l.sessionsPerS, out.sessionsPerS)
	}

	ex := &s.ct.ex
	ex.mu.Lock()
	l.roundtrips += ex.roundtrips
	l.ttfbMS = append(l.ttfbMS, ex.ttfbMS...)
	l.bodyMS = append(l.bodyMS, ex.bodyMS...)
	requested := ex.requested
	ex.mu.Unlock()
	l.retries += s.creg.Counter("dash.client.retries").Value()
	l.conns += s.ct.dials.Load()

	kids := map[uint64][]span{}
	originKeys := map[serve.ChunkKey]struct{}{}
	for _, sp := range spans {
		if sp.Name == spanOrigin {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
			originKeys[sp.Key] = struct{}{}
			l.getMS = append(l.getMS, ms(sp.End-sp.Start))
		}
	}
	for _, sp := range spans {
		if sp.Name != spanDash {
			continue
		}
		d := sp.End - sp.Start
		l.handleMS = append(l.handleMS, ms(d))
		l.handleSelfMS = append(l.handleSelfMS, ms(d-coveredBy(sp.Start, sp.End, kids[sp.ID])))
		if sp.Status >= 400 {
			l.dashErrors++
		}
		l.bytesOut += sp.Bytes
	}
	l.originKeys += len(originKeys)
	for k := range originKeys {
		if _, ok := requested[k]; !ok {
			l.unrequestedKeys++
		}
	}
	l.calibrationKeys = l.calibrationKeys[:0]
	for k := range requested {
		if len(l.calibrationKeys) == 256 {
			break
		}
		l.calibrationKeys = append(l.calibrationKeys, k)
	}

	if s.clu != nil {
		for _, n := range clusterCounterNames {
			l.clusterCounters[n] += s.reg.Counter("cluster." + n).Value()
		}
		for _, n := range s.clu.Nodes() {
			l.edgeReqs += n.Requests()
			l.edgeMiss += n.Misses()
		}
		l.inflightMax = max(l.inflightMax, inflightMax)
		l.gapSum += gap
	}
	for short, name := range storeCounterNames {
		l.storeCounters[short] += s.reg.Counter(name).Value()
	}

	l.gcCycles += ms1.NumGC - ms0.NumGC
	l.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	l.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// finish writes every per-layer metric into m. Metrics of a layer the
// workload does not run (the cluster on cold-origin, the session
// simulator off crowd-vod) read 0.
func (l *layers) finish(m map[string]metric, w workload) {
	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }
	put("loadgen.sent", float64(l.sent), "count")
	put("loadgen.ok", float64(l.ok), "count")
	put("loadgen.failed", float64(l.failed), "count")
	put("loadgen.open_p50_ms", quantile(l.openMS, 0.5), "ms")
	put("loadgen.open_p99_ms", quantile(l.openMS, 0.99), "ms")
	put("loadgen.late_p99_ms", quantile(l.lateMS, 0.99), "ms")

	put("engine.sim_share", median(l.simShare), "ratio")
	put("engine.sessions_per_s", median(l.sessionsPerS), "1/s")

	put("client.roundtrips", float64(l.roundtrips), "count")
	put("client.retries", float64(l.retries), "count")
	put("client.ttfb_p50_ms", quantile(l.ttfbMS, 0.5), "ms")
	put("client.ttfb_p99_ms", quantile(l.ttfbMS, 0.99), "ms")
	put("client.body_p99_ms", quantile(l.bodyMS, 0.99), "ms")
	put("client.conns_opened", float64(l.conns), "count")

	put("dash.handle_p50_ms", quantile(l.handleMS, 0.5), "ms")
	put("dash.handle_p99_ms", quantile(l.handleMS, 0.99), "ms")
	put("dash.handle_self_p99_ms", quantile(l.handleSelfMS, 0.99), "ms")
	put("dash.errors", float64(l.dashErrors), "count")
	put("dash.bytes_out", float64(l.bytesOut), "bytes")

	for _, n := range clusterCounterNames {
		put("cluster."+n, float64(l.clusterCounters[n]), "count")
	}
	put("cluster.edge_hit_ratio", ratio(l.edgeReqs-l.edgeMiss, l.edgeReqs), "ratio")
	put("cluster.edge_inflight_max", float64(l.inflightMax), "count")
	put("cluster.accounting_gap", float64(l.gapSum), "count")

	hits, misses := l.storeCounters["hits"], l.storeCounters["misses"]
	put("serve.store.hits", float64(hits), "count")
	put("serve.store.misses", float64(misses), "count")
	put("serve.store.evictions", float64(l.storeCounters["evictions"]), "count")
	put("serve.store.shared", float64(l.storeCounters["shared"]), "count")
	put("serve.store.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("serve.store.get_p50_ms", quantile(l.getMS, 0.5), "ms")
	put("serve.store.get_p99_ms", quantile(l.getMS, 0.99), "ms")
	put("serve.store.unrequested_ratio", ratio(int64(l.unrequestedKeys), int64(l.originKeys)), "ratio")

	put("media.synth_calls", float64(misses), "count")
	writeNS, appendNS := calibrateSynth(w.videos(), l.calibrationKeys)
	put("media.synth_ns_per_kb", writeNS, "ns/KB")
	put("media.append_ns_per_kb", appendNS, "ns/KB")

	reqs := float64(max(l.sent, 1))
	put("runtime.gc_cycles", float64(l.gcCycles), "count")
	put("runtime.gc_pause_ms", ms(l.gcPause), "ms")
	put("runtime.alloc_kb_per_req", float64(l.allocBytes)/1024/reqs, "KB")
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	put("runtime.heap_live_mb_end", float64(end.HeapAlloc)/(1<<20), "MB")
	put("runtime.goroutines_leaked", float64(l.leaked), "count")
}

// calibrateSynth times the synthesis the origin's miss path runs —
// dash.WriteChunkBody into io.Discard — and its appending form into a
// reused buffer, over the workload's own requested keys, for at least
// 100ms each. It returns ns per KB of body for each form.
func calibrateSynth(videos map[string]*media.Video, keys []serve.ChunkKey) (writeNS, appendNS float64) {
	if len(keys) == 0 {
		return 0, 0
	}
	const minSpan = 100 * time.Millisecond
	var buf []byte
	forms := []func(v *media.Video, k serve.ChunkKey) int{
		func(v *media.Video, k serve.ChunkKey) int {
			n, _ := dash.ChunkBodyLen(v, k.Quality, k.Tile, k.Index, k.Layer)
			_ = dash.WriteChunkBody(io.Discard, v, k.Quality, k.Tile, k.Index, k.Layer) // requested keys are valid
			return n
		},
		func(v *media.Video, k serve.ChunkKey) int {
			buf, _ = dash.AppendChunkBody(buf[:0], v, k.Quality, k.Tile, k.Index, k.Layer) // requested keys are valid
			return len(buf)
		},
	}
	var out [2]float64
	for i, form := range forms {
		var bytes int64
		start := time.Now()
		for time.Since(start) < minSpan {
			for _, k := range keys {
				bytes += int64(form(videos[k.Video], k))
			}
		}
		out[i] = float64(time.Since(start)) / (float64(bytes) / 1024)
	}
	return out[0], out[1]
}
