// Package pool provides a concurrency-safe pool of reusable
// GenASM workspaces — the software analogue of the accelerator's layout of
// one independent GenASM unit per memory vault (Section 7), where the
// number of units bounds concurrency and each unit's SRAMs are reused
// across alignments rather than reallocated.
//
// A Pool holds up to Config.MaxWorkspaces live core.Workspaces, grown
// lazily as demand appears. Idle workspaces are kept on one LIFO free
// list, so a single caller keeps reusing its warm workspace. When every
// workspace is in flight, Get blocks until one is returned (callers that
// need to give up early use GetContext).
package pool

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"genasm/internal/core"
	"genasm/internal/faults"
)

// Config parameterizes a Pool.
type Config struct {
	// Core is the workspace configuration shared by every pooled
	// workspace. The zero value is the paper's default setup.
	Core core.Config
	// MaxWorkspaces caps the number of live workspaces — the software
	// analogue of the accelerator's vault count. Get blocks once the cap
	// is reached and every workspace is in flight. Defaults to
	// 2×GOMAXPROCS.
	MaxWorkspaces int
}

func (c Config) withDefaults() Config {
	if c.MaxWorkspaces <= 0 {
		c.MaxWorkspaces = 2 * runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a point-in-time snapshot of pool activity. The JSON names
// match the server's /v1/stats snake_case convention.
type Stats struct {
	// Hits counts Gets served from the free list.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that had to create a workspace.
	Misses uint64 `json:"misses"`
	// InFlight is the number of workspaces currently checked out.
	InFlight int `json:"in_flight"`
	// Idle is the number of workspaces currently on the free list.
	Idle int `json:"idle"`
	// Capacity is the configured MaxWorkspaces.
	Capacity int `json:"capacity"`
	// WorkspaceBytes is one workspace's scratch footprint — the pool's
	// worst-case memory is Capacity x WorkspaceBytes. The Scrooge kernel's
	// single entry store keeps this ~3x below the paper's per-edge layout.
	WorkspaceBytes int `json:"workspace_bytes"`
	// Quarantined counts workspaces discarded after a recovered panic
	// (Do's isolation boundary). Each one was replaced by a fresh
	// workspace on a later Get, so a non-zero count does not reduce
	// capacity — it records how often panic isolation fired.
	Quarantined uint64 `json:"quarantined,omitempty"`
}

// Pool is a pool of workspaces. The zero value is not usable; construct
// with New.
type Pool struct {
	cfg     Config
	wsBytes int
	// tokens holds one token per workspace the pool may still hand out;
	// acquiring a token on Get and releasing it on Put is what bounds the
	// live-workspace count and blocks Get at the cap.
	tokens chan struct{}
	// mu guards free, the idle workspaces. It is a LIFO stack so that a
	// lone caller keeps getting back the workspace it just returned, with
	// its scratch memory still warm in cache.
	mu          sync.Mutex
	free        []*core.Workspace
	hits        atomic.Uint64
	misses      atomic.Uint64
	inUse       atomic.Int64
	quarantined atomic.Uint64
}

// New builds a Pool. The core configuration is validated eagerly (by
// building the first workspace) so that a bad configuration fails here,
// not on some later Get.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	ws, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:     cfg,
		wsBytes: ws.FootprintBytes(),
		tokens:  make(chan struct{}, cfg.MaxWorkspaces),
		free:    []*core.Workspace{ws},
	}
	for range cfg.MaxWorkspaces {
		p.tokens <- struct{}{}
	}
	return p, nil
}

// Config returns the (defaulted) pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Get checks out a workspace, blocking while all MaxWorkspaces are in
// flight. The caller must Put it back.
func (p *Pool) Get() *core.Workspace {
	ws, _ := p.GetContext(context.Background())
	return ws
}

// GetContext is Get with cancellation: it returns ctx.Err() if the context
// ends before a workspace frees up.
func (p *Pool) GetContext(ctx context.Context) (*core.Workspace, error) {
	select {
	case <-p.tokens:
	default:
		select {
		case <-p.tokens:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.inUse.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return ws, nil
	}
	p.mu.Unlock()
	// Lazy growth: holding a token guarantees the live count is below the
	// cap, and New validated the configuration, so this cannot fail.
	p.misses.Add(1)
	return core.MustNew(p.cfg.Core), nil
}

// Put returns a workspace to the pool. Passing a workspace that did not
// come from Get corrupts the pool's accounting; don't.
func (p *Pool) Put(ws *core.Workspace) {
	if ws == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, ws)
	p.mu.Unlock()
	p.inUse.Add(-1)
	p.tokens <- struct{}{}
}

// Discard releases a checked-out workspace's capacity token WITHOUT
// returning the workspace to the free list — the workspace is abandoned to
// the GC and a later Get's miss path builds a fresh one in its place.
// This is the quarantine half of panic isolation: a workspace that
// panicked mid-alignment may hold arbitrarily corrupted scratch state and
// must never serve another request.
func (p *Pool) Discard(ws *core.Workspace) {
	if ws == nil {
		return
	}
	p.quarantined.Add(1)
	p.inUse.Add(-1)
	p.tokens <- struct{}{}
}

// Do runs f with a checked-out workspace, handling Get/Put. Errors from
// ctx cancellation (while waiting for a workspace) or from f are returned.
//
// Do is also the resilience boundary for pooled work: the context is
// installed on the workspace (so the DC loop observes deadlines between
// windows), and a panic from f is recovered — the workspace is
// quarantined via Discard and the panic surfaces as a *core.PanicError
// instead of killing the process.
func (p *Pool) Do(ctx context.Context, f func(*core.Workspace) error) (err error) {
	ws, gerr := p.GetContext(ctx)
	if gerr != nil {
		return gerr
	}
	defer func() {
		if rec := recover(); rec != nil {
			p.Discard(ws)
			site := "align"
			if ip, ok := rec.(faults.InjectedPanic); ok {
				site = ip.Site
			}
			err = &core.PanicError{Site: site, Value: rec, Stack: debug.Stack()}
			return
		}
		ws.SetContext(nil)
		p.Put(ws)
	}()
	if ferr := faults.Fire(faults.SiteWorkspaceAcquire); ferr != nil {
		return ferr
	}
	ws.SetContext(ctx)
	return f(ws)
}

// Stats snapshots the pool counters. Idle takes the free-list lock, so
// this is for observability, not hot paths.
func (p *Pool) Stats() Stats {
	st := Stats{
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		InFlight:       int(p.inUse.Load()),
		Capacity:       p.cfg.MaxWorkspaces,
		WorkspaceBytes: p.wsBytes,
		Quarantined:    p.quarantined.Load(),
	}
	p.mu.Lock()
	st.Idle = len(p.free)
	p.mu.Unlock()
	return st
}
