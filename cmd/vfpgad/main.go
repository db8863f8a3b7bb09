// Command vfpgad serves a pool of simulated VFPGA boards over HTTP.
// Tenants submit workload specs as JSON; each board runs jobs from its
// own bounded queue on its own goroutine, per-tenant token buckets
// throttle admission, and /metrics exposes the service in Prometheus
// text format.
//
// With -nodes > 1 the process runs a whole fleet: each node wraps its
// own pool of boards (one simulated daemon), and a placement policy
// routes jobs across nodes. The HTTP API is unchanged, plus GET
// /v1/fleet for routing inspection; admission budgets span the fleet.
//
// Usage:
//
//	vfpgad -addr :8080
//	vfpgad -boards 4 -managers dynamic,partition -queue 32
//	vfpgad -addr 127.0.0.1:0 -addr-file /tmp/vfpgad.addr
//	vfpgad -boards 3 -faults seed=7,retries=2,config-error=0.1
//	vfpgad -nodes 3 -boards 2 -placement packing
//	vfpgad -nodes 3 -faults seed=1,config-error=0.9 -fault-node 1
//	vfpgad -pprof 127.0.0.1:6060
//
// SIGINT/SIGTERM stop intake, drain every accepted job, and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/version"
)

// The job API's connection deadlines. readHeaderTimeout bounds how long
// a connection may take to send its request headers, so a client that
// opens a socket and stalls cannot hold it forever; readTimeout bounds
// the whole request, body included, so one that sends its headers and
// then trickles its body cannot hold a connection and a handler either
// (a submit body is at most 1 MiB); idleTimeout bounds how long a
// keep-alive connection waits for its next request.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the job API's server over h, with its connection
// deadlines set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// options collects the flag values; one struct keeps the single-daemon
// and fleet paths on the same configuration.
type options struct {
	addr, addrFile string
	pprofAddr      string
	boards         int
	nodes          int
	placement      string
	managers       string
	cols, rows     int
	subBoards      int
	sched          string
	slice          time.Duration
	queue          int
	rate, burst    float64
	seed           uint64
	faults         string
	faultNode      int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = off)")
	flag.IntVar(&o.boards, "boards", 2, "number of boards in the pool (per node in fleet mode)")
	flag.IntVar(&o.nodes, "nodes", 1, "number of nodes; > 1 serves a fleet from this one process")
	flag.StringVar(&o.placement, "placement", "packing", "fleet placement policy: firstfit | packing | random")
	flag.StringVar(&o.managers, "managers", "dynamic", "comma-separated manager list, cycled across boards")
	flag.IntVar(&o.cols, "cols", 32, "device columns per board")
	flag.IntVar(&o.rows, "rows", 16, "device rows per board")
	flag.IntVar(&o.subBoards, "sub-boards", 2, "sub-board count for multi-manager boards")
	flag.StringVar(&o.sched, "sched", "rr", "host OS scheduler: fifo | rr | priority")
	flag.DurationVar(&o.slice, "slice", 10*time.Millisecond, "round-robin time slice")
	flag.IntVar(&o.queue, "queue", 16, "job queue depth per board")
	flag.Float64Var(&o.rate, "rate", 20, "per-tenant admitted jobs per second, fleet-wide (<= 0 disables)")
	flag.Float64Var(&o.burst, "burst", 40, "per-tenant admission burst")
	flag.Uint64Var(&o.seed, "seed", 1, "compilation seed")
	flag.StringVar(&o.faults, "faults", "", "fault-injection plan applied per board (board i derives its own stream)")
	flag.IntVar(&o.faultNode, "fault-node", -1, "restrict -faults to this node's boards (fleet mode; -1 arms every node)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vfpgad", version.String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "vfpgad: %v\n", err)
		os.Exit(1)
	}
}

// service is the part of serve.Server and fleet.Server the daemon loop
// needs.
type service interface {
	Handler() http.Handler
	Start()
	Drain()
}

func (o options) boardConfigs(n int) []serve.BoardConfig {
	mgrs := strings.Split(o.managers, ",")
	cfgs := make([]serve.BoardConfig, n)
	for i := range cfgs {
		bc := serve.DefaultBoardConfig()
		bc.Manager = strings.TrimSpace(mgrs[i%len(mgrs)])
		bc.Cols, bc.Rows = o.cols, o.rows
		bc.SubBoards = o.subBoards
		bc.Sched = o.sched
		bc.Slice = sim.Time(o.slice.Nanoseconds())
		bc.Seed = o.seed
		bc.QueueDepth = o.queue
		cfgs[i] = bc
	}
	return cfgs
}

func run(o options) error {
	if o.boards < 1 || o.nodes < 1 {
		return fmt.Errorf("need at least one board and one node")
	}
	if o.faultNode >= 0 && o.nodes == 1 {
		return fmt.Errorf("-fault-node %d needs a fleet (-nodes > 1); without it -faults arms every board", o.faultNode)
	}
	var plan *fault.Plan
	if o.faults != "" {
		p, err := fault.ParseSpec(o.faults)
		if err != nil {
			return err
		}
		plan = &p
	}
	limits := serve.TenantLimits{Rate: o.rate, Burst: o.burst}
	ver := "vfpgad " + version.String()

	var srv service
	var banner string
	if o.nodes > 1 {
		nodeCfgs := make([][]serve.BoardConfig, o.nodes)
		for i := range nodeCfgs {
			nodeCfgs[i] = o.boardConfigs(o.boards)
		}
		fs, err := fleet.NewServer(fleet.ServerConfig{
			Nodes:     nodeCfgs,
			Policy:    o.placement,
			Seed:      o.seed,
			Tenant:    limits,
			Version:   ver,
			Faults:    plan,
			FaultNode: o.faultNode,
		})
		if err != nil {
			return err
		}
		srv = fs
		banner = fmt.Sprintf("%d node(s) x %d board(s), placement=%s,", o.nodes, o.boards, o.placement)
	} else {
		ss, err := serve.New(serve.Config{
			Boards:  o.boardConfigs(o.boards),
			Tenant:  limits,
			Version: ver,
			Faults:  plan,
		})
		if err != nil {
			return err
		}
		srv = ss
		banner = fmt.Sprintf("%d board(s)", o.boards)
	}
	if plan != nil {
		scope := ""
		if o.faultNode >= 0 {
			scope = fmt.Sprintf(" (node %d only)", o.faultNode)
		}
		fmt.Printf("vfpgad: fault injection armed%s: %s\n", scope, plan)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		// Written after Listen succeeds, so a reader that sees the file can
		// connect immediately — the smoke test polls for it.
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("vfpgad: %s listening on %s\n", banner, ln.Addr())

	if o.pprofAddr != "" {
		stopPprof, err := servePprof(o.pprofAddr)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	srv.Start()
	hs := newHTTPServer(srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("vfpgad: draining")

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Drain()
	fmt.Println("vfpgad: drained, bye")
	return nil
}

// servePprof serves the runtime profiles on a listener of their own, so
// a profile of the daemon comes from the daemon and the job API never
// exposes /debug/pprof. The returned stop closes it and waits.
func servePprof(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ps := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ps.Serve(ln) // returns ErrServerClosed on stop; a profile listener's other failures are not the daemon's
	}()
	fmt.Printf("vfpgad: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() {
		_ = ps.Close()
		<-done
	}, nil
}
