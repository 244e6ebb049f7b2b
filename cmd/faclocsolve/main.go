// Command faclocsolve solves JSON instances (see faclocgen) with any solver
// registered in the facloc solver registry.
//
// Single instance (pretty-printed report):
//
//	faclocsolve -solver pd-par [-eps 0.3] [-seed 0] [-timeout 5s] inst.json
//	faclocsolve -solver kcenter kinst.json
//
// -trace FILE additionally writes the solve's round-level trace — one event
// per greedy round, primal-dual τ-barrier, or coreset build phase, with
// work/span deltas — as JSON (single-solve mode only; tracing never changes
// the solution):
//
//	faclocsolve -solver greedy-par -trace rounds.json inst.json
//
// Batch mode (newline-delimited JSON instances in, NDJSON results out,
// solved concurrently by a worker pool; output is identical for any -jobs):
//
//	faclocgen -count 200 | faclocsolve -solver greedy-par -jobs 8 -seed 42
//
// Point-form instances (faclocgen -huge) decode to lazy point-backed
// instances and route through the sketch path: pick a *-coreset solver and
// no distance matrix is ever materialized. Dense-path solvers densify small
// point instances on demand and refuse ones past the safety limit:
//
//	faclocgen -huge -kind kmed -n 1000000 -k 50 | faclocsolve -solver kmedian-coreset
//
// Beyond-RAM instances: -mpc streams the point-form input through the
// internal/mpc chunker → composable coreset tree under a per-component
// memory budget, and prints the machine-readable MPCReport JSON (composed
// guarantee, chunk/round counts, observed peak bytes):
//
//	faclocgen -huge -kind kmed -n 100000000 -k 50 | faclocsolve -mpc -solver kmedian -budget 256MiB
//
// Client mode: -addr sends the NDJSON instance stream to a running faclocd
// daemon's POST /batch instead of solving in-process. The daemon emits
// results in input order through the same encoder, so output is
// byte-identical to a local -jobs run (and repeated submissions hit the
// daemon's solution cache). Against a daemon started with -data-dir that
// byte-identity survives daemon restarts: a warm-restarted faclocd replays
// previously solved work from its durable store without re-solving:
//
//	faclocgen -count 200 | faclocsolve -addr localhost:8649 -solver greedy-par -seed 42
//
// -addr may be a comma-separated seed list of cluster members: each seed is
// asked for GET /cluster/ring until one answers, dead seeds are skipped,
// and the workload goes to the first alive ring member (any member serves
// any request — routing is internal to the cluster).
//
// Discovery:
//
//	faclocsolve -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	facloc "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	solver := flag.String("solver", "pd-par", "registered solver name (see -list)")
	eps := flag.Float64("eps", 0.3, "slack parameter ε")
	seed := flag.Int64("seed", 0, "random seed (batch: master seed for splitmix64 derivation)")
	workers := flag.Int("workers", 0, "goroutine fan-out per solve (0 = GOMAXPROCS; batch: 1)")
	track := flag.Bool("track", true, "track PRAM work/span")
	timeout := flag.Duration("timeout", 0, "per-solve deadline (0 = none)")
	jobs := flag.Int("jobs", 0, "batch mode: solve a NDJSON instance stream with this many concurrent jobs")
	denseLimit := flag.Int("dense-limit", 0, "lazy->dense materialization cap per solve (0 = library default)")
	addr := flag.String("addr", "", "client mode: submit the NDJSON instance stream to a faclocd daemon (host:port, or a comma-separated cluster seed list)")
	tracePath := flag.String("trace", "", "single-solve mode: write the solve's per-round trace events to this JSON file")
	mpcMode := flag.Bool("mpc", false, "stream a point-form instance through the beyond-RAM coreset tree (solver must be, or is made, a *-mpc entry)")
	budget := flag.String("budget", "", "mpc mode: per-component memory budget (e.g. 256MiB, 1G; empty = unbounded)")
	chunkPoints := flag.Int("chunk-points", 0, "mpc mode: points per chunk (0 = budget-derived or library default)")
	coresetSize := flag.Int("coreset-size", 0, "mpc mode: members per coreset node (0 = auto)")
	list := flag.Bool("list", false, "list registered solvers and exit")
	flag.Parse()

	if *list {
		listSolvers()
		return
	}
	name := *solver

	o := facloc.Options{Epsilon: *eps, Seed: *seed, Workers: *workers, TrackCost: *track, DenseLimit: *denseLimit}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: faclocsolve -solver <name> [instance.json]")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	if *mpcMode {
		runMPC(name, in, o, *timeout, *budget, *chunkPoints, *coresetSize)
		return
	}
	if *addr != "" {
		runRemote(discover(*addr), name, in, o, *jobs, *timeout)
		return
	}
	if *jobs > 0 {
		runBatch(name, in, o, *jobs, *timeout)
		return
	}
	runSingle(name, in, o, *timeout, *tracePath)
}

// discover resolves -addr, which may be a comma-separated seed list of
// cluster members: each seed is asked for GET /cluster/ring until one
// answers. A 200 picks the first alive member (every daemon in the ring can
// serve any request — requests route internally); a 404 means the seed is a
// plain single-node daemon, used directly. Seeds that refuse the connection
// are skipped, so a partly-down seed list still finds the cluster.
func discover(addrs string) string {
	seeds := strings.Split(addrs, ",")
	client := &http.Client{Timeout: 5 * time.Second}
	var last error
	for _, seed := range seeds {
		seed = strings.TrimSpace(seed)
		if seed == "" {
			continue
		}
		resp, err := client.Get("http://" + seed + "/cluster/ring")
		if err != nil {
			last = err
			continue
		}
		var ring struct {
			Self    string `json:"self"`
			Members []struct {
				Addr  string `json:"addr"`
				Alive bool   `json:"alive"`
			} `json:"members"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ring)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return seed // not clustered: a plain daemon
		}
		if resp.StatusCode != http.StatusOK || err != nil {
			last = fmt.Errorf("seed %s: ring status %s", seed, resp.Status)
			continue
		}
		for _, m := range ring.Members {
			if m.Alive {
				fmt.Fprintf(os.Stderr, "faclocsolve: discovered %d-member ring via %s, using %s\n",
					len(ring.Members), seed, m.Addr)
				return strings.TrimPrefix(m.Addr, "http://")
			}
		}
		last = fmt.Errorf("seed %s: ring has no alive members", seed)
	}
	if last != nil && len(seeds) > 1 {
		fatal(fmt.Errorf("no reachable cluster member in %s: %w", addrs, last))
	}
	return strings.TrimSpace(seeds[0]) // single unreachable seed: let /batch report it
}

// runRemote streams the NDJSON instances to a faclocd daemon's POST /batch
// and copies the NDJSON result stream to stdout. The daemon emits results
// in input order through the same encoder local batch mode uses, so the
// output is byte-identical to `faclocsolve -jobs` run locally.
func runRemote(addr, solver string, r io.Reader, o facloc.Options, jobs int, timeout time.Duration) {
	q := url.Values{}
	q.Set("solver", solver)
	q.Set("seed", strconv.FormatInt(o.Seed, 10))
	q.Set("eps", strconv.FormatFloat(o.Epsilon, 'g', -1, 64))
	if jobs > 0 {
		q.Set("jobs", strconv.Itoa(jobs))
	}
	if o.Workers > 0 {
		q.Set("workers", strconv.Itoa(o.Workers))
	}
	if o.DenseLimit > 0 {
		q.Set("dense_limit", strconv.Itoa(o.DenseLimit))
	}
	if timeout > 0 {
		q.Set("timeout_ms", strconv.FormatInt(timeout.Milliseconds(), 10))
	}
	resp, err := http.Post("http://"+addr+"/batch?"+q.Encode(), "application/x-ndjson", r)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("daemon at %s: %s: %s", addr, resp.Status, string(body)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fatal(fmt.Errorf("result stream from %s aborted: %w", addr, err))
	}
	fmt.Fprintf(os.Stderr, "faclocsolve: remote batch complete (%s via %s)\n", solver, addr)
}

// runMPC streams a point-form instance (faclocgen -huge on stdin, or a file)
// through the beyond-RAM chunker → coreset tree → inner solve pipeline and
// prints the MPCReport as JSON — the machine-readable form the CI budget
// smoke asserts on. The instance is never materialized: peak memory follows
// the -budget, not the stream size.
func runMPC(name string, r io.Reader, o facloc.Options, timeout time.Duration, budget string, chunkPoints, coresetSize int) {
	if !strings.HasSuffix(name, "-mpc") {
		name += "-mpc"
	}
	mo := facloc.MPCOptions{ChunkPoints: chunkPoints, CoresetSize: coresetSize}
	if budget != "" {
		b, err := facloc.ParseByteSize(budget)
		if err != nil {
			fatal(err)
		}
		mo.BudgetBytes = b
	}
	ctx, cancel := solveCtx(timeout)
	defer cancel()
	rep, err := facloc.SolveMPCStream(ctx, name, r, o, mo)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"faclocsolve: mpc %s: n=%d chunks=%d rounds=%d peak=%dB merge=%dB estimate=%.4f\n",
		rep.Solver, rep.N, rep.Chunks, rep.Rounds, rep.PeakBytes, rep.MergeBytes, rep.Estimate)
}

func listSolvers() {
	fmt.Println("facility-location solvers:")
	for _, s := range facloc.Solvers() {
		fmt.Printf("  %-18s %s\n", s.Name(), s.Guarantee())
	}
	fmt.Println("k-clustering solvers:")
	for _, s := range facloc.KSolvers() {
		fmt.Printf("  %-18s [%s] %s\n", s.Name(), s.Objective(), s.Guarantee())
	}
}

func solveCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func runSingle(name string, r io.Reader, o facloc.Options, timeout time.Duration, tracePath string) {
	ctx, cancel := solveCtx(timeout)
	defer cancel()

	var rec *obs.Recorder
	if tracePath != "" {
		rec = &obs.Recorder{}
		o.Trace = rec
	}
	writeTrace := func(solver string) {
		if rec == nil {
			return
		}
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Solver string          `json:"solver"`
			Rounds int             `json:"rounds"`
			Events []obs.SpanEvent `json:"events"`
		}{solver, rec.Rounds(), rec.Events()}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "faclocsolve: wrote %d trace events to %s\n", rec.Len(), tracePath)
	}

	if _, ok := facloc.Lookup(name); ok {
		in, err := core.ReadInstance(r)
		if err != nil {
			fatal(err)
		}
		rep, err := facloc.Solve(ctx, name, in, o)
		if err != nil {
			fatal(err)
		}
		writeTrace(rep.Solver)
		sol := rep.Solution
		backing := "dense"
		if in.Points != nil {
			backing = "points"
		}
		fmt.Printf("solver:           %s\n", rep.Solver)
		fmt.Printf("guarantee:        %s\n", rep.Guarantee)
		fmt.Printf("instance:         %d facilities x %d clients (m=%d, %s)\n", in.NF, in.NC, in.M(), backing)
		fmt.Printf("open facilities:  %v\n", sol.Open)
		fmt.Printf("facility cost:    %.4f\n", sol.FacilityCost)
		fmt.Printf("connection cost:  %.4f\n", sol.ConnectionCost)
		fmt.Printf("total cost:       %.4f\n", sol.Cost())
		printStats(rep.Stats)
		return
	}
	if ks, ok := facloc.LookupK(name); ok {
		ki, err := core.ReadKInstance(r)
		if err != nil {
			fatal(err)
		}
		rep, err := facloc.SolveKWith(ctx, ks, ki, o)
		if err != nil {
			fatal(err)
		}
		writeTrace(rep.Solver)
		backing := "dense"
		if ki.Points != nil {
			backing = "points"
		}
		fmt.Printf("solver:    %s\n", rep.Solver)
		fmt.Printf("guarantee: %s\n", rep.Guarantee)
		fmt.Printf("instance:  n=%d k=%d (%s)\n", ki.N, ki.K, backing)
		fmt.Printf("centers:   %v\n", rep.Solution.Centers)
		fmt.Printf("objective: %s = %.4f\n", rep.Solution.Obj, rep.Solution.Value)
		printStats(rep.Stats)
		return
	}
	fatal(fmt.Errorf("unknown solver %q (use -list)", name))
}

// runBatch solves an NDJSON instance stream locally, emitting the same
// serve.BatchLine NDJSON records the faclocd /batch endpoint streams — one
// encoder for both paths is what keeps -addr output byte-identical.
func runBatch(name string, r io.Reader, o facloc.Options, jobs int, timeout time.Duration) {
	s, ok := facloc.Lookup(name)
	if !ok {
		fatal(fmt.Errorf("batch mode needs a facility-location solver, %q is not one (use -list)", name))
	}
	b := facloc.NewBatch(s, facloc.BatchOptions{
		Jobs:       jobs,
		Timeout:    timeout,
		MasterSeed: o.Seed,
		Base:       o,
	})
	solved, failed, err := serve.WriteBatch(context.Background(), b, facloc.NewInstanceStream(r), os.Stdout)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "faclocsolve: %d solved, %d failed (%s, jobs=%d)\n", solved, failed, name, jobs)
}

func printStats(s facloc.Stats) {
	if s.Work > 0 {
		fmt.Printf("PRAM work/span:   %d / %d (%d primitive calls)\n", s.Work, s.Span, s.Calls)
	}
	fmt.Printf("wall time:        %v\n", s.WallTime)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faclocsolve:", err)
	os.Exit(1)
}
