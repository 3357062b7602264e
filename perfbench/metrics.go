package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	pmetrics "pdspbench/internal/metrics"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what an "op" is depends on the workload
// (README.md has the table):
//
//	replay, paced  op = one input sentence
//	campaign       op = one corpus query, labelled and learned
//	serve          op = one HTTP request
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mean_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_kop", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// layers name the packages whose calls the traced run times.
var layers = []string{"apps", "engine", "controller", "workload", "backend", "ml", "mlmanager", "server", "queue", "storage"}

// perLayer are the traced run's metrics. A workload that does not use a
// layer reports zero for its metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"apps.gen_ns_per_tuple", "ns"},
		{"apps.gen_headroom", "x"},
		{"engine.new_ms", "ms"},
		{"engine.run_s", "s"},
		{"engine.cpu_s", "s"},
		{"engine.allocs_per_tuple", "count"},
		{"engine.bytes_per_tuple", "B"},
		{"engine.gc_cycles", "count"},
		{"engine.gc_pause_ms", "ms"},
		{"engine.source_emit_ns_per_tuple", "ns"},
		{"engine.source_lag_p99_ms", "ms"},
	}
	for _, op := range wcOperators {
		defs = append(defs, metricDef{"engine.op." + op + ".in", "count"}, metricDef{"engine.op." + op + ".out", "count"})
	}
	defs = append(defs,
		metricDef{"engine.late_drops", "count"},
		metricDef{"engine.udo_panics", "count"},
		metricDef{"controller.corpus_s", "s"},
		metricDef{"workload.enumerate_us", "us"},
		metricDef{"simengine.run_ms_p50", "ms"},
		metricDef{"simengine.run_ms_p99", "ms"},
		metricDef{"ml.encode_us", "us"},
		metricDef{"ml.train_s.total", "s"},
	)
	for _, m := range modelNames {
		defs = append(defs, metricDef{"ml.train_s." + m, "s"}, metricDef{"ml.epochs." + m, "count"}, metricDef{"ml.qerror_p50." + m, "q"})
	}
	defs = append(defs, metricDef{"ml.allocs_per_epoch.MLP", "count"}, metricDef{"ml.allocs_per_epoch.GNN", "count"})
	for _, op := range serveOps {
		defs = append(defs, metricDef{"server.op_p50_ms." + op, "ms"}, metricDef{"server.op_p99_ms." + op, "ms"})
	}
	defs = append(defs,
		metricDef{"server.admission_p99_ms", "ms"},
		metricDef{"server.queued_runs_max", "count"},
		metricDef{"server.rejected_429", "count"},
		metricDef{"server.shed_503", "count"},
		metricDef{"server.client_lag_p99_ms", "ms"},
		metricDef{"server.knee_rate_per_s", "1/s"},
		metricDef{"queue.enqueue_ms", "ms"},
		metricDef{"queue.lease_ms", "ms"},
		metricDef{"queue.complete_ms", "ms"},
		metricDef{"storage.seed_mb_per_s", "MB/s"},
		metricDef{"storage.list_ms_per_krecord", "ms"},
		metricDef{"storage.bytes_per_record", "B"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%"}, metricDef{"trace.spans", "count"})
}()

// quantile is the nearest-rank quantile the serving layer also uses.
func quantile(xs []float64, q float64) float64 { return pmetrics.Quantile(xs, q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// timeSetups runs setup setupRepeats times and returns the median wall
// time and the last result. Earlier results go to discard, when given.
func timeSetups[T any](ctx context.Context, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if err := ctx.Err(); err != nil {
			return last, 0, err
		}
		// Each set-up starts from a collected heap, so the garbage the
		// previous one left does not land in its time.
		runtime.GC()
		start := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return last, median(secs), nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap (bytes marked by the last GC) while
// the timed phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mb = append(h.mb, float64(sample[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mean stops the sampler and returns the time-averaged live heap in MB.
// A heap that grows through the phase steps up at each GC; the mean
// moves little when a step comes a GC cycle earlier or later, where a
// high quantile can land on either side of it.
func (h *heapSampler) mean() float64 {
	close(h.stop)
	<-h.done
	return mean(h.mb)
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(before, after runtime.MemStats) memDelta {
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// fingerprint identifies the host and the code that produced a result.
func fingerprint(root string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from or, in a checkout
// without version control, a digest of the Go sources it was built from.
func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "src:" + sourceDigest(root)
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
