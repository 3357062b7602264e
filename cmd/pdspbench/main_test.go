package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"pdspbench/internal/controller"
	"pdspbench/internal/metrics"
	"pdspbench/internal/server"
	"pdspbench/internal/storage"
)

// stdout runs f and returns what it printed.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFrontEndsResolveOneRequestAlike submits one run through the CLI
// (dot and run --out), the server (GET /api/plan and POST /api/run) and
// a campaign shard, and checks that all three mean the same plan and
// produce the same record.
func TestFrontEndsResolveOneRequestAlike(t *testing.T) {
	cases := []struct {
		name     string
		workload []string // CLI flags naming the workload
		query    string   // the same as /api/plan query parameters
		body     string   // the same as a POST /api/run body
		cluster  string
		campaign controller.WorkloadSpec
	}{
		{
			name:     "structure",
			workload: []string{"--structure", "linear", "--parallelism", "4"},
			query:    "structure=linear&parallelism=4",
			body:     `{"structure":"linear","parallelism":4,"cluster":"c6320"}`,
			cluster:  "c6320",
			campaign: controller.WorkloadSpec{Structure: "linear", Degrees: []int{2, 4}},
		},
		{
			name:     "app",
			workload: []string{"--app", "SD", "--parallelism", "8"},
			query:    "app=SD&parallelism=8",
			body:     `{"app":"SD","parallelism":8,"cluster":"mixed"}`,
			cluster:  "mixed",
			campaign: controller.WorkloadSpec{App: "SD", Degrees: []int{2, 8}},
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// CLI.
			cliDOT := stdout(t, func() error { return cmdDot(tc.workload) })
			dir := t.TempDir()
			args := append([]string{"--cluster", tc.cluster, "--fast", "--out", dir}, tc.workload...)
			printed := stdout(t, func() error { return cmdRun(ctx, args) })
			st, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := storage.Load[metrics.RunRecord](st, "runs")
			if err != nil || len(stored) != 1 {
				t.Fatalf("run --out stored %d records (%v), want 1", len(stored), err)
			}
			cliRec := stored[0]
			if !strings.Contains(printed, "record "+cliRec.ID+" stored in "+dir) {
				t.Errorf("run output does not report the stored record:\n%s", printed)
			}

			// Server.
			srvStore, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(srvStore)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/plan?"+tc.query, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("GET /api/plan: %d %s", w.Code, w.Body)
			}
			if w.Body.String() != cliDOT {
				t.Errorf("plan DOT differs:\nCLI:\n%s\nserver:\n%s", cliDOT, w.Body)
			}
			w = httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(tc.body)))
			if w.Code != http.StatusOK {
				t.Fatalf("POST /api/run: %d %s", w.Code, w.Body)
			}
			var srvRec metrics.RunRecord
			if err := json.Unmarshal(w.Body.Bytes(), &srvRec); err != nil {
				t.Fatal(err)
			}

			// Campaign shard: the second point of a two-point sweep.
			spec := controller.Spec{Name: "front-ends", Cluster: tc.cluster, Workloads: []controller.WorkloadSpec{tc.campaign}}
			shard := spec.Shard()[1]
			recs, err := controller.Fast().RunSpec(ctx, &shard)
			if err != nil || len(recs) != 1 {
				t.Fatalf("campaign shard gave %d records (%v), want 1", len(recs), err)
			}

			if cliRec.ID != srvRec.ID || cliRec.ID != recs[0].ID {
				t.Errorf("record IDs differ: CLI %s, server %s, campaign %s", cliRec.ID, srvRec.ID, recs[0].ID)
			}
			if !reflect.DeepEqual(cliRec, srvRec) || !reflect.DeepEqual(cliRec, recs[0]) {
				t.Errorf("records differ:\nCLI      %+v\nserver   %+v\ncampaign %+v", cliRec, srvRec, recs[0])
			}
		})
	}
}
