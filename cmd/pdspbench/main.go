// Command pdspbench is the PDSP-Bench command-line interface: it lists
// the benchmark suite (Table 2), the parameter domain (Table 3) and the
// hardware catalogue (Table 4), runs individual workloads on either the
// real engine or the cluster simulator, regenerates every evaluation
// figure of the paper (Exp-1/2/3), builds ML training corpora, and
// serves the web API (the WUI substitute).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/ml"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/queue"
	"pdspbench/internal/server"
	"pdspbench/internal/storage"
	"pdspbench/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancel the context, so an in-flight run, campaign
	// or server drains cleanly instead of dying mid-measurement; a second
	// signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "params":
		err = cmdParams()
	case "clusters":
		err = cmdClusters()
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "parity":
		err = cmdParity(ctx, os.Args[2:])
	case "exp1":
		err = cmdExp(ctx, 1, os.Args[2:])
	case "exp2":
		err = cmdExp(ctx, 2, os.Args[2:])
	case "exp3":
		err = cmdExp3(ctx, os.Args[2:])
	case "corpus":
		err = cmdCorpus(ctx, os.Args[2:])
	case "ablation":
		err = cmdAblation(ctx, os.Args[2:])
	case "bench":
		err = cmdBench(ctx, os.Args[2:])
	case "sut":
		err = cmdSUT(ctx, os.Args[2:])
	case "dot":
		err = cmdDot(os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "storm":
		err = cmdStorm(ctx, os.Args[2:])
	case "worker":
		err = cmdWorker(ctx, os.Args[2:])
	case "jobs":
		err = cmdJobs(ctx, os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pdspbench: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdspbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`pdspbench — benchmarking system for parallel and distributed stream processing

commands:
  list                       application suite (paper Table 2)
  params                     workload parameter domain (paper Table 3)
  clusters                   hardware catalogue (paper Table 4)
  run      [flags]           run one application or structure (--backend=sim|real)
  parity   [flags]           cross-backend parity harness (sim vs real)
  exp1     --set S           regenerate Figure 3 (S = synthetic | realworld)
  exp2     --set S           regenerate Figure 4 (S = synthetic | realworld)
  exp3     --part P          regenerate Figure 5 (P = models) or 6 (P = strategies)
  corpus   [flags]           build and store an ML training corpus
  ablation --part P          ablations (P = partitioning | autoscaler)
  bench    --spec F          run a declarative benchmark campaign (JSON spec)
  sut      [flags]           compare SUT profiles on identical workloads
  dot      [flags]           print a query plan in Graphviz DOT
  serve    [flags]           serve the HTTP API and job dispatcher (WUI substitute)
  storm    [flags]           load-harness: storm a dispatcher with mixed-tenant traffic
  worker   [flags]           run a campaign worker daemon against a dispatcher
  jobs     <sub> [flags]     manage the job queue (enqueue | list | workers)

run 'pdspbench <command> -h' for command flags; the HTTP surface is
documented in docs/API.md`)
}

func cmdList() error {
	fmt.Printf("%-6s %-20s %-24s %-4s %s\n", "code", "name", "area", "UDO", "description")
	for _, a := range apps.Registry {
		di := ""
		if a.DataIntensive {
			di = "yes"
		}
		fmt.Printf("%-6s %-20s %-24s %-4s %s\n", a.Code, a.Name, a.Area, di, a.Description)
	}
	fmt.Printf("\nsynthetic query structures (%d):\n", len(workload.Structures))
	for _, s := range workload.Structures {
		fmt.Printf("  %s\n", s)
	}
	return nil
}

func cmdParams() error {
	fmt.Println("workload parameter domain (paper Table 3):")
	fmt.Println("  parallelism degrees:   1 –", core.MaxDegree, " categories:", core.AllCategories)
	fmt.Println("  event rates (ev/s):   ", workload.EventRates)
	fmt.Println("  window duration (ms): ", workload.WindowDurationsMs)
	fmt.Println("  window length (tuple):", workload.WindowLengthsTuples)
	fmt.Println("  slide ratios:         ", workload.SlideRatios)
	fmt.Println("  tuple widths:          1 – 15 × {string, double, int}")
	fmt.Println("  window types/policies: tumbling, sliding × count, time")
	fmt.Println("  aggregate functions:   min, max, avg, mean, sum")
	fmt.Println("  partitioning:          forward, rebalance, hashing")
	fmt.Println("  distributions:        ", workload.Distributions)
	fmt.Println("  parallelism strategies:", strings.Join(workload.StrategyNames, ", "))
	return nil
}

func cmdClusters() error {
	fmt.Printf("%-12s %-6s %-7s %-10s %-34s %-6s %-8s %s\n",
		"node", "cores", "RAM_GB", "storage_GB", "processor", "GHz", "net_Gbps", "rel_speed")
	for _, name := range []string{"m510", "c6525_25g", "c6320"} {
		nt := cluster.Catalogue[name]
		fmt.Printf("%-12s %-6d %-7d %-10d %-34s %-6.1f %-8.0f %.2f\n",
			nt.Name, nt.Cores, nt.RAMGB, nt.StorageGB, nt.Processor, nt.ClockGHz, nt.NetGbps, nt.Speed())
	}
	return nil
}

// parseDisorder parses the --disorder argument "kind:maxSkewMs"
// (e.g. "bounded:50", "zipfburst:20"); empty means in-order sources.
func parseDisorder(arg string) (*core.DisorderSpec, error) {
	if arg == "" {
		return nil, nil
	}
	kind, skewStr, ok := strings.Cut(arg, ":")
	if !ok {
		return nil, fmt.Errorf("--disorder wants kind:maxSkewMs (e.g. bounded:50), got %q", arg)
	}
	skew, err := strconv.ParseInt(skewStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("--disorder skew %q: %v", skewStr, err)
	}
	d := &core.DisorderSpec{Kind: kind, MaxSkewMs: skew}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var req controller.Request
	fs.StringVar(&req.App, "app", "", "application code (e.g. SG); mutually exclusive with --structure")
	fs.StringVar(&req.Structure, "structure", "", "synthetic structure (e.g. 3-way-join)")
	fs.Float64Var(&req.EventRate, "rate", 500_000, "source event rate (events/s)")
	fs.IntVar(&req.Parallelism, "parallelism", 8, "uniform parallelism degree")
	fs.StringVar(&req.Cluster, "cluster", "m510", "cluster: m510, c6525_25g, c6320, mixed")
	fs.StringVar(&req.Backend, "backend", "sim", "execution backend: sim | real")
	fs.Int64Var(&req.AllowedLatenessMs, "lateness", 0, "allowed lateness in ms: windows delay firing by this much watermark progress and drop (and count) tuples later still")
	tuples := fs.Int("tuples", backend.DefaultTuplesPerSource, "tuples per source instance (real backend)")
	seed := fs.Int64("seed", 0, "generator seed (0 = the backend's default)")
	runs := fs.Int("runs", 0, "repetitions, averaged into one record (0 = 3, or 1 with --fast)")
	out := fs.String("out", "", "optional store directory for the run record")
	fast := fs.Bool("fast", false, "reduced simulation fidelity")
	faults := fs.String("faults", "", "fault plan: 'kind:key=val,...;...' spec or @file.json (see internal/chaos)")
	disorder := fs.String("disorder", "", "event-time disorder on every source: kind:maxSkewMs (bounded:50 shuffles within the skew, zipfburst:50 adds a heavy Zipf delay tail)")
	fs.Parse(args)

	c := controller.New()
	if *fast {
		c = controller.Fast()
	}
	var err error
	if *faults != "" {
		if req.Faults, err = chaos.FromArg(*faults); err != nil {
			return err
		}
	}
	if req.Disorder, err = parseDisorder(*disorder); err != nil {
		return err
	}
	r, err := c.Resolve(req)
	if err != nil {
		return err
	}
	if *out != "" {
		if r.Ctrl.Store, err = storage.Open(*out); err != nil {
			return err
		}
	}
	r.Spec.TuplesPerSource = *tuples
	r.Spec.Seed = *seed
	r.Spec.Runs = *runs
	fmt.Println(r.Plan)
	rec, err := r.Ctrl.MeasureSpec(ctx, r.Plan, r.Cluster, r.Spec)
	if err != nil {
		return err
	}
	fmt.Print(metrics.Table([]metrics.RunRecord{*rec}))
	if req.Disorder != nil || req.AllowedLatenessMs > 0 {
		fmt.Printf("event time: late drops=%d (lateness=%dms)\n", rec.LateDrops, req.AllowedLatenessMs)
	}
	if r.Ctrl.BackendName() == "sim" {
		// Decompose the mean latency so the user sees where time is spent
		// (attribution only the simulator can make).
		b, err := r.Ctrl.ExplainSim(ctx, r.Plan, r.Cluster, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("mean latency breakdown: queue=%.1fms service=%.1fms network=%.1fms window=%.1fms other=%.1fms\n",
			b.QueueWait*1000, b.Service*1000, b.Network*1000, b.Window*1000, b.Other*1000)
	}
	if *out != "" {
		fmt.Printf("record %s stored in %s\n", rec.ID, *out)
	}
	return nil
}

func cmdParity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("parity", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "modelled cluster size")
	faults := fs.Bool("faults", false, "also run the fault-injection parity cases")
	fs.Parse(args)

	cases, err := backend.DefaultParityCases()
	if err != nil {
		return err
	}
	if *faults {
		fc, err := backend.FaultParityCases()
		if err != nil {
			return err
		}
		cases = append(cases, fc...)
	}
	var backends []backend.Backend
	for _, name := range backend.Names() {
		b, err := backend.ByName(name)
		if err != nil {
			return err
		}
		backends = append(backends, b)
	}
	cl := cluster.NewHomogeneous("m510", cluster.M510, *nodes)
	results, err := backend.Parity(ctx, backends, cl, cases)
	if err != nil {
		return err
	}
	fmt.Print(backend.FormatParity(results))
	for _, r := range results {
		if !r.OK() {
			return fmt.Errorf("parity violated in case %s", r.Case)
		}
	}
	return nil
}

func cmdExp(ctx context.Context, n int, args []string) error {
	fs := flag.NewFlagSet(fmt.Sprintf("exp%d", n), flag.ExitOnError)
	set := fs.String("set", "synthetic", "workload set: synthetic | realworld")
	fast := fs.Bool("fast", true, "reduced simulation fidelity")
	fs.Parse(args)

	c := controller.New()
	if *fast {
		c = controller.Fast()
	}
	var fig *metrics.Figure
	var err error
	switch {
	case n == 1 && *set == "synthetic":
		fig, err = c.Exp1Synthetic(ctx, nil, nil)
	case n == 1 && *set == "realworld":
		fig, err = c.Exp1RealWorld(ctx, nil, nil)
	case n == 2 && *set == "synthetic":
		fig, err = c.Exp2Synthetic(ctx, nil, nil)
	case n == 2 && *set == "realworld":
		fig, err = c.Exp2RealWorld(ctx, nil)
	default:
		return fmt.Errorf("unknown set %q", *set)
	}
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	return nil
}

func cmdExp3(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("exp3", flag.ExitOnError)
	part := fs.String("part", "models", "models (Figure 5) | strategies (Figure 6)")
	queries := fs.Int("queries", 500, "corpus size for --part models")
	fs.Parse(args)

	c := controller.Fast()
	opts := ml.TrainOptions{MaxEpochs: 200, Patience: 15, LearningRate: 3e-3}
	switch *part {
	case "models":
		corpus, err := c.BuildCorpus(ctx, "random", workload.Structures, *queries, c.Homogeneous(), c.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("corpus: %d labeled queries in %s\n\n", corpus.Dataset.Len(), corpus.BuildTime.Round(time.Second))
		fig, evs, err := c.Exp3Models(corpus.Dataset, opts)
		if err != nil {
			return err
		}
		fmt.Print(mlmanager.FormatEvaluations(evs))
		fmt.Println()
		fmt.Print(fig.Render())
	case "strategies":
		curves, err := c.Exp3Strategies(ctx, nil, 0, opts)
		if err != nil {
			return err
		}
		fmt.Print(curves.Fig6a.Render())
		fmt.Println()
		fmt.Print(curves.Fig6b.Render())
	default:
		return fmt.Errorf("unknown part %q", *part)
	}
	return nil
}

func cmdCorpus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	strategy := fs.String("strategy", "rule-based", "parallelism enumeration strategy")
	n := fs.Int("n", 100, "number of labeled queries")
	out := fs.String("out", "pdspbench-data", "store directory")
	seed := fs.Int64("seed", 1, "enumeration seed")
	fs.Parse(args)

	c := controller.Fast()
	corpus, err := c.BuildCorpus(ctx, *strategy, nil, *n, c.Homogeneous(), *seed)
	if err != nil {
		return err
	}
	st, err := storage.Open(*out)
	if err != nil {
		return err
	}
	for _, e := range corpus.Dataset.Examples {
		if err := st.Append("corpus", e); err != nil {
			return err
		}
	}
	fmt.Printf("stored %d labeled queries (strategy=%s) in %s (%s)\n",
		corpus.Dataset.Len(), *strategy, *out, corpus.BuildTime.Round(time.Millisecond))
	return nil
}

func cmdAblation(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	part := fs.String("part", "partitioning", "partitioning | autoscaler")
	fs.Parse(args)

	c := controller.Fast()
	switch *part {
	case "partitioning":
		fig, err := c.ExpPartitioning(ctx, 8)
		if err != nil {
			return err
		}
		fmt.Print(fig.Render())
	case "autoscaler":
		fig, err := c.ExpAutoscaler(ctx, workload.StructTwoWayJoin)
		if err != nil {
			return err
		}
		fmt.Print(fig.Render())
	default:
		return fmt.Errorf("unknown ablation part %q", *part)
	}
	return nil
}

func cmdBench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to a JSON campaign spec")
	out := fs.String("out", "", "optional store directory for run records")
	fast := fs.Bool("fast", true, "reduced simulation fidelity")
	fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("--spec is required (see examples/campaign.json)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := controller.ParseSpec(data)
	if err != nil {
		return err
	}
	c := controller.New()
	if *fast {
		c = controller.Fast()
	}
	if *out != "" {
		st, err := storage.Open(*out)
		if err != nil {
			return err
		}
		c.Store = st
	}
	records, err := c.RunSpec(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %q: %d measurements\n", spec.Name, len(records))
	fmt.Print(metrics.Table(records))
	return nil
}

func cmdSUT(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sut", flag.ExitOnError)
	par := fs.Int("parallelism", 64, "uniform parallelism degree")
	fs.Parse(args)
	c := controller.Fast()
	fig, err := c.ExpSUTComparison(ctx, nil, *par)
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	var req controller.Request
	fs.StringVar(&req.App, "app", "", "application code")
	fs.StringVar(&req.Structure, "structure", "", "synthetic structure")
	fs.IntVar(&req.Parallelism, "parallelism", 4, "uniform parallelism degree")
	fs.Parse(args)

	r, err := controller.Fast().Resolve(req)
	if err != nil {
		return err
	}
	fmt.Print(r.Plan.DOT())
	return nil
}

// cmdWorker runs the fleet daemon half of the distributed campaign
// fabric: register with a dispatcher, lease jobs, execute, report.
func cmdWorker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "dispatcher base URL")
	name := fs.String("name", "worker", "worker name shown in listings")
	capacity := fs.Int("capacity", 1, "advertised concurrent-lease capacity")
	backends := fs.String("backends", "", "comma-separated backends this worker accepts (empty = any)")
	once := fs.Bool("once", false, "exit once the queue is drained")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
	fast := fs.Bool("fast", true, "reduced simulation fidelity")
	fs.Parse(args)

	w := &queue.Worker{
		Client:   queue.NewClient(*url),
		Name:     *name,
		Capacity: *capacity,
		Backends: queue.ParseBackends(*backends),
		Poll:     *poll,
		Once:     *once,
		Execute:  queue.RunCampaign(*fast),
		Logf: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	}
	err := w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		return nil // Ctrl-C is a clean daemon stop, not a failure
	}
	return err
}

// cmdJobs is the operator view onto the dispatcher's queue.
func cmdJobs(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs needs a subcommand: enqueue | list | workers")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("jobs "+sub, flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "dispatcher base URL")
	switch sub {
	case "enqueue":
		specPath := fs.String("spec", "", "path to a JSON campaign spec")
		split := fs.Bool("split", false, "shard the campaign into one job per measurement point")
		maxAttempts := fs.Int("max-attempts", 0, "retry budget per job (0 = dispatcher default)")
		fs.Parse(rest)
		if *specPath == "" {
			return fmt.Errorf("--spec is required (see examples/campaign.json)")
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec, err := controller.ParseSpec(data)
		if err != nil {
			return err
		}
		jobs, err := queue.NewClient(*url).Enqueue(ctx, *spec, *split, *maxAttempts)
		if err != nil {
			return err
		}
		fmt.Printf("enqueued %d job(s) for campaign %q:\n", len(jobs), spec.Name)
		for _, j := range jobs {
			fmt.Printf("  %-12s %s\n", j.ID, j.Campaign.Name)
		}
		return nil
	case "list":
		status := fs.String("status", "", "filter: pending | leased | completed | failed")
		fs.Parse(rest)
		jobs, err := queue.NewClient(*url).Jobs(ctx, queue.Status(*status))
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-10s %-8s %-8s %-8s %s\n", "id", "status", "attempt", "worker", "records", "campaign")
		for _, j := range jobs {
			fmt.Printf("%-12s %-10s %d/%-6d %-8s %-8d %s\n",
				j.ID, j.Status, j.Attempts, j.MaxAttempts, j.Worker, j.Records, j.Campaign.Name)
		}
		return nil
	case "workers":
		fs.Parse(rest)
		workers, err := queue.NewClient(*url).Workers(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %-12s %-9s %-7s %s\n", "id", "name", "capacity", "leased", "backends")
		for _, w := range workers {
			b := strings.Join(w.Backends, ",")
			if b == "" {
				b = "any"
			}
			fmt.Printf("%-6s %-12s %-9d %-7d %s\n", w.ID, w.Name, w.Capacity, w.Leased, b)
		}
		return nil
	default:
		return fmt.Errorf("unknown jobs subcommand %q (enqueue, list, workers)", sub)
	}
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	data := fs.String("data", "pdspbench-data", "store directory")
	fs.Parse(args)

	st, err := storage.Open(*data)
	if err != nil {
		return err
	}
	srv, err := server.New(st)
	if err != nil {
		return err
	}
	fmt.Printf("serving PDSP-Bench API on http://%s (store: %s)\n", *addr, *data)
	err = srv.ListenAndServe(ctx, *addr)
	return errors.Join(err, st.Close())
}
