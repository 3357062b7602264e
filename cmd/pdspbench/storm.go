package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"pdspbench/internal/controller"
	"pdspbench/internal/server"
	"pdspbench/internal/storage"
	"pdspbench/internal/storm"
)

// cmdStorm implements `pdspbench storm`: the load harness that drives
// the serving front door to saturation with mixed-tenant open-loop
// traffic and reports the outcome as JSON (sustained req/s, latency
// quantiles, 429/shed counts, per-tenant fairness), on stdout unless
// --out names a file. Progress and the human-readable summary go to
// stderr, so stdout stays one JSON document.
//
// With --url it storms a live dispatcher; without, it self-hosts an
// httptest server over a throwaway store with sim fidelity shrunk so
// scripted runs finish in milliseconds — the same rig the overload test
// suite and the storm_smoke CI stage use.
func cmdStorm(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("storm", flag.ExitOnError)
	url := fs.String("url", "", "dispatcher base URL; empty self-hosts an httptest server")
	seed := fs.Int64("seed", 1, "arrival-schedule seed (same seed, same schedule)")
	duration := fs.Duration("duration", 5*time.Second, "storm duration")
	tenants := fs.String("tenants", "alpha,beta,gamma", "comma-separated tenant names")
	clients := fs.Int("clients", 4, "concurrent open-loop generators per tenant")
	rate := fs.Float64("rate", 20, "arrival rate per generator (req/s)")
	maxReq := fs.Int("max", 0, "cap on total requests (0 = schedule-bounded)")
	structure := fs.String("structure", "linear", "scripted run: synthetic structure")
	par := fs.Int("parallelism", 2, "scripted run: parallelism degree")
	disorderArg := fs.String("disorder", "", "scripted run: source disorder kind:maxSkewMs (e.g. bounded:50)")
	lateness := fs.Int64("lateness", 0, "scripted run: allowed event-time lateness in ms")
	sync := fs.Bool("sync", false, "submit runs synchronously instead of async+SSE")
	workers := fs.Int("workers", 4, "self-hosted: worker-pool width")
	tenantRate := fs.Float64("tenant-rate", 30, "self-hosted: per-tenant admission rate (req/s)")
	out := fs.String("out", "-", "report file; '-' writes the JSON report to stdout")
	smoke := fs.Bool("smoke", false, "gate mode: exit nonzero on any unexplained 5xx/transport error or unfair tenant service")
	fairTol := fs.Float64("fair-tol", 0.25, "smoke mode: max allowed per-tenant OK spread (relative deviation from the mean)")
	fs.Parse(args)

	dspec, err := parseDisorder(*disorderArg)
	if err != nil {
		return err
	}
	body, err := json.Marshal(server.RunRequest{
		Structure:         *structure,
		Parallelism:       *par,
		Backend:           "sim",
		Disorder:          dspec,
		AllowedLatenessMs: *lateness,
		Async:             !*sync,
	})
	if err != nil {
		return err
	}

	base := *url
	if base == "" {
		dir, err := os.MkdirTemp("", "pdspbench-storm-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := storage.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		srv, err := server.New(st,
			server.WithServing(server.ServingConfig{
				Admission: server.AdmissionConfig{
					PerTenant: server.TenantQuota{RatePerSec: *tenantRate, Burst: *tenantRate},
					Global:    server.TenantQuota{RatePerSec: 3 * *tenantRate, Burst: 3 * *tenantRate},
				},
				Workers: *workers,
			}),
			server.WithControllerTuning(func(c *controller.Controller) {
				c.Cfg.Duration = 2
				c.Cfg.SourceBatches = 20
				c.Runs = 1
			}),
		)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "storm: self-hosted dispatcher at %s (workers=%d, tenant quota %.0f req/s)\n",
			base, *workers, *tenantRate)
	}

	var scripts []storm.ClientScript
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		scripts = append(scripts, storm.ClientScript{
			Tenant:     name,
			Clients:    *clients,
			RatePerSec: *rate,
			Body:       body,
		})
	}

	fmt.Fprintf(os.Stderr, "storm: %d tenants × %d clients × %.0f req/s for %s (seed %d)\n",
		len(scripts), *clients, *rate, *duration, *seed)
	rep, err := storm.Run(ctx, storm.Config{
		BaseURL:     base,
		Seed:        *seed,
		Duration:    *duration,
		Scripts:     scripts,
		MaxRequests: *maxReq,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "storm: %d requests in %.1fs — %.1f req/s sustained, p50 %.1fms, p99 %.1fms\n",
		rep.Requests, rep.DurationS, rep.SustainedReqPerS, rep.P50LatencyMS, rep.P99LatencyMS)
	fmt.Fprintf(os.Stderr, "storm: %d ok, %d rejected (429), %d shed (503), %d other 4xx, %d other 5xx, %d transport\n",
		rep.OK, rep.Rejected429, rep.Shed503, rep.Other4xx, rep.Other5xx, rep.Transport)
	if rep.Serving != nil {
		fmt.Fprintf(os.Stderr, "storm: server admission wait p50 %.1fms p99 %.1fms; %d admitted, %d completed\n",
			rep.Serving.AdmissionP50MS, rep.Serving.AdmissionP99MS, rep.Serving.Admitted, rep.Serving.Completed)
	}
	for name, tr := range rep.Tenants {
		fmt.Fprintf(os.Stderr, "storm:   tenant %-10s %4d req  %4d ok  %4d 429  %4d 503  p99 %.1fms\n",
			name, tr.Requests, tr.OK, tr.Rejected429, tr.Shed503, tr.P99MS)
	}

	// Smoke gate (the storm_smoke CI stage): 429s and 503s are the front
	// door doing its job; anything else server-side is a defect, and so
	// is uneven service across equal-quota tenants.
	if *smoke {
		if rep.Other5xx > 0 || rep.Transport > 0 {
			return fmt.Errorf("storm smoke: %d unexplained 5xx, %d transport errors", rep.Other5xx, rep.Transport)
		}
		oks := make([]float64, 0, len(rep.Tenants))
		for _, tr := range rep.Tenants {
			oks = append(oks, float64(tr.OK))
		}
		sp := storm.Spread(oks)
		if sp > *fairTol {
			return fmt.Errorf("storm smoke: per-tenant OK spread %.2f exceeds %.2f (%v)", sp, *fairTol, oks)
		}
		fmt.Fprintf(os.Stderr, "storm smoke: gates passed (no unexplained 5xx; OK spread %.2f ≤ %.2f)\n", sp, *fairTol)
	}

	return writeStormReport(*out, rep)
}

// writeStormReport writes the report, stamped with its recording time,
// to path, or to stdout when path is "-".
func writeStormReport(path string, rep *storm.Report) error {
	envelope := map[string]any{
		"recorded": time.Now().UTC().Format(time.RFC3339),
		"storm":    rep,
	}
	data, err := json.MarshalIndent(envelope, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "storm: report written to %s\n", path)
	return nil
}
