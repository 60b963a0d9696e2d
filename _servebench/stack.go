package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// stackConfig selects one of the two serving stacks the workloads run
// against.
type stackConfig struct {
	catalog *dash.Catalog
	videos  map[string]*media.Video
	// cluster puts cluster.FrontDoor (three real-listener edges, R=1,
	// coalescing on) in front of the origin; false serves the origin
	// straight from a dash.Server.
	cluster      bool
	prior        cluster.TilePrior
	fanout       int
	originBudget int64
	traced       bool
	// wrapOrigin, when set, wraps the origin store before any tracing;
	// tests use it to corrupt bodies.
	wrapOrigin func(originSource) originSource
}

// stack is one running serving stack and the viewer client aimed at
// it. reg holds the program's instruments (origin store, cluster,
// handlers); creg holds the viewer client's, so the two never mix.
type stack struct {
	reg       *obs.Registry
	creg      *obs.Registry
	origin    *serve.Store
	clu       *cluster.Cluster
	srv       *http.Server
	serveDone chan struct{}
	ct        *clientTransport
	client    *dash.Client
	tr        *tracer
	baseURL   string
}

func buildStack(cfg stackConfig) (*stack, error) {
	s := &stack{reg: obs.NewRegistry(), creg: obs.NewRegistry(), serveDone: make(chan struct{})}
	if cfg.traced {
		s.tr = newTracer()
	}
	s.origin = serve.NewCatalogStore(cfg.catalog, serve.StoreConfig{BudgetBytes: cfg.originBudget, Obs: s.reg})
	var src originSource = s.origin
	if cfg.wrapOrigin != nil {
		src = cfg.wrapOrigin(src)
	}
	if s.tr != nil {
		src = tracedOrigin{inner: src, tr: s.tr}
	}
	var handler http.Handler
	if cfg.cluster {
		opts := []cluster.Option{
			cluster.WithNodes(3),
			cluster.WithCatalog(cfg.catalog),
			cluster.WithReplication(1),
			cluster.WithWire(true),
			cluster.WithCoalescing(true),
			cluster.WithObs(s.reg),
		}
		if cfg.prior != nil {
			opts = append(opts, cluster.WithPrewarm(cfg.prior, cfg.fanout))
		}
		clu, err := cluster.New(src, opts...)
		if err != nil {
			return nil, fmt.Errorf("building cluster: %w", err)
		}
		s.clu = clu
		handler = clu.FrontDoor()
	} else {
		handler = dash.NewServer(cfg.catalog, dash.WithObs(s.reg), dash.WithStore(src))
	}
	if s.tr != nil {
		handler = tracedFront{next: handler, tr: s.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeCluster()
		return nil, fmt.Errorf("front door listen: %w", err)
	}
	s.srv = &http.Server{Handler: handler}
	go func() {
		defer close(s.serveDone)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	s.baseURL = "http://" + ln.Addr().String()
	s.ct = newClientTransport(cfg.videos, s.tr)
	s.client = dash.NewClient(s.baseURL, dash.WithTransport(s.ct), dash.WithClientObs(s.creg))
	return s, nil
}

// originFetches counts the origin syntheses a viewer waited for: the
// cluster's viewer-path origin fetches, or the bare origin's misses.
func (s *stack) originFetches() int64 {
	if s.clu != nil {
		_, f := s.clu.OffloadCounts()
		return f
	}
	return s.reg.Counter("serve.store.misses").Value()
}

// accountingGap is front-door requests minus the client's attempts;
// zero when every request the client sent was counted exactly once.
// Call after DrainWarms.
func (s *stack) accountingGap() int64 {
	if s.clu == nil {
		return 0
	}
	req, _ := s.clu.OffloadCounts()
	return req - s.creg.Counter("dash.client.attempts").Value()
}

func (s *stack) closeCluster() {
	if s.clu == nil {
		return
	}
	s.clu.Close()
	for _, n := range s.clu.Nodes() {
		_ = s.clu.RemoveNode(n.ID()) // only fails for an unknown name
	}
}

// close stops every listener and connection the stack opened: the
// front door, the edges (RemoveNode closes an edge's listener), the
// warm worker, and the idle client connections on both the viewer's
// transport and the default transport the router's edge clients use.
func (s *stack) close() {
	_ = s.srv.Close() // the stack is discarded; nothing to report
	<-s.serveDone
	s.closeCluster()
	s.ct.base.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// settleGoroutines waits up to wait for the goroutine count to come
// back to baseline and returns how many are still above it.
func settleGoroutines(baseline int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return 0
		}
		if time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(2 * time.Millisecond)
	}
}
