package flow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"testing"

	"pdspbench/internal/lint/flow"
	"pdspbench/internal/testutil"
)

func TestMain(m *testing.M) { os.Exit(testutil.RunMain(m)) }

// loadUnit type-checks one in-memory file into a flow.Unit, the same
// shape the lint loader hands to Build.
func loadUnit(t *testing.T, src string) *flow.Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "unit.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("unit", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &flow.Unit{Path: "unit", Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

func fnByName(t *testing.T, prog *flow.Program, name string) *flow.Func {
	t.Helper()
	for _, fn := range prog.All() {
		if fn.Decl.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("function %s not in program", name)
	return nil
}

func TestCallGraphAndBlocking(t *testing.T) {
	prog := flow.Build([]*flow.Unit{loadUnit(t, `package unit

import (
	"context"
	"time"
)

func entry() { middle() }

func middle() { leaf() }

func leaf() { time.Sleep(time.Millisecond) }

func pure(a, b int) int { return a + b }

func withCtx(ctx context.Context) {
	// Literals fold into the declaring function: the receive inside the
	// spawned goroutine is withCtx's blocker.
	ch := make(chan int)
	go func() { <-ch }()
}
`)})
	if got := len(prog.All()); got != 5 {
		t.Fatalf("want 5 functions, got %d", got)
	}
	entry := fnByName(t, prog, "entry")
	middle := fnByName(t, prog, "middle")
	leaf := fnByName(t, prog, "leaf")
	pure := fnByName(t, prog, "pure")
	withCtx := fnByName(t, prog, "withCtx")

	if len(entry.Calls) != 1 || entry.Calls[0] != middle {
		t.Errorf("entry.Calls = %v, want [middle]", entry.Calls)
	}
	if len(middle.Callers) != 1 || middle.Callers[0] != entry {
		t.Errorf("middle.Callers = %v, want [entry]", middle.Callers)
	}
	if pos := entry.CallSite(middle); !pos.IsValid() {
		t.Error("entry→middle call site should be recorded")
	}

	reach := prog.Reachable([]*flow.Func{entry})
	for fn, want := range map[*flow.Func]bool{entry: true, middle: true, leaf: true, pure: false, withCtx: false} {
		if reach[fn] != want {
			t.Errorf("Reachable[%s] = %v, want %v", fn.Name(), reach[fn], want)
		}
	}

	blocking := prog.Blocking()
	if b := blocking[leaf]; b == nil || b.Direct == nil || b.Direct.What != "time.Sleep" {
		t.Errorf("leaf should block directly via time.Sleep, got %+v", b)
	}
	if b := blocking[entry]; b == nil || b.Via != middle {
		t.Errorf("entry should block via middle, got %+v", b)
	}
	if blocking[pure] != nil {
		t.Error("pure must not be classified as blocking")
	}
	if b := blocking[withCtx]; b == nil || b.Direct == nil {
		t.Errorf("withCtx's goroutine receive should fold into its blockers, got %+v", b)
	}
	if !withCtx.HasCtx || entry.HasCtx {
		t.Errorf("HasCtx: withCtx=%v entry=%v, want true/false", withCtx.HasCtx, entry.HasCtx)
	}
}

func TestMemoComputesOnce(t *testing.T) {
	prog := flow.Build(nil)
	calls := 0
	build := func() any { calls++; return calls }
	if got := prog.Memo("k", build); got != 1 {
		t.Fatalf("first Memo = %v, want 1", got)
	}
	if got := prog.Memo("k", build); got != 1 {
		t.Fatalf("second Memo = %v, want cached 1", got)
	}
	if calls != 1 {
		t.Fatalf("build ran %d times, want 1", calls)
	}
}
