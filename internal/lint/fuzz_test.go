package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLintLoader feeds arbitrary (mostly malformed) Go source through
// the whole pipeline: parse, type-check with the module importer,
// build the flow graph, and run every analyzer. Broken input must
// surface as a load error or soft type errors — never a panic. The
// seeds cover the shapes the protocol analyzers dig into: channels,
// mutexes, lease fields, goroutines, directives.
func FuzzLintLoader(f *testing.F) {
	f.Add("package p\n\nfunc ok() {}\n")
	f.Add("package p\nfunc ( {")
	f.Add("package p\nimport \"no/such/pkg\"\nfunc x() { }\n")
	f.Add("package main\n\nimport \"time\"\n\nfunc main() { time.Sleep(1) }\n")
	f.Add("package queue\n\ntype Job struct{ LeaseID string }\n\ntype Client struct{}\n\nfunc (c *Client) Complete(id string) error { return nil }\n")
	f.Add("package p\n\nimport \"sync\"\n\nvar a, b sync.Mutex\n\nfunc x() { a.Lock(); b.Lock(); b.Unlock(); a.Unlock() }\n")
	f.Add("package p\n\nfunc x(ch chan int) { close(ch); ch <- 1 }\n")
	f.Add("package p\n\nfunc x() { go func() { for { } }() }\n")
	f.Add("package p\n\n//lint:ignore chan-discipline reason\nfunc x() {}\n")
	f.Add("package p\n\nfunc x() { select {} }\nfunc y() { <-make(chan int) }\n")
	f.Fuzz(func(t *testing.T, src string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		loader := &Loader{Root: dir, ModulePath: "fuzz"}
		pkgs, err := loader.Load("./...")
		if err != nil {
			// Unparsable input is a diagnostic, not a crash.
			return
		}
		runner := &Runner{}
		_ = runner.Run(pkgs)
	})
}
