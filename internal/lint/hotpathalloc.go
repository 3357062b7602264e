package lint

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"strings"
)

// hotAllocCalls maps package path → function names whose every call
// allocates, with the zero-allocation replacement the data plane uses.
var hotAllocCalls = map[string]map[string]string{
	"hash/fnv": {
		"New32":  "inline the FNV loop (see tuple.Value.Hash)",
		"New32a": "inline the FNV loop (see tuple.Value.Hash)",
		"New64":  "inline the FNV loop (see tuple.Value.Hash)",
		"New64a": "inline the FNV loop (see tuple.Value.Hash)",
	},
	"time": {
		"After": "reuse a single time.Timer (Reset between waits)",
	},
	"fmt": {
		"Sprintf": "format off the hot path, or build with strconv/strings",
	},
}

// strictOnlyPkgs names the package directories (by base name) where
// only the strict-file set is in scope: internal/tuple and internal/core
// legitimately format in cold paths (Value.String, spec rendering), and
// internal/stream formats in its cold generators (stream.Word), so the
// rule covers just their columnar and event-time files.
var strictOnlyPkgs = map[string]bool{"tuple": true, "core": true, "stream": true}

// columnarFile reports whether base names a columnar data-plane file:
// column batches (column*.go) or compiled kernels (kernel*.go). These
// files get the stricter kernel-loop checks on top of the general table.
func columnarFile(base string) bool {
	return strings.HasPrefix(base, "column") || strings.HasPrefix(base, "kernel")
}

// eventTimeFile reports whether base names an event-time plane file:
// watermark propagation, session-window state, or disordered delivery.
// Their loops run per message or per arrival — a watermark merge scans
// every producer slot on each marker, session coalescing walks the open
// spans of a key on each tuple — so they carry the same strict loop
// bans as the columnar files.
func eventTimeFile(base string) bool {
	return strings.HasPrefix(base, "watermark") ||
		strings.HasPrefix(base, "session") ||
		strings.HasPrefix(base, "disorder")
}

// HotPathAlloc flags known-allocating constructs inside the data-plane
// packages. These packages move millions of tuples or events per second,
// so a per-call allocation — a hash.Hash64 per partition decision, a
// timer channel per throttle tick, a formatted string per record —
// turns into GC pressure that dominates what the benchmarks measure.
// The rule bans the constructs this repo has already paid to remove,
// so they cannot creep back in.
//
// Columnar files (column*.go, kernel*.go — including those in
// internal/tuple and internal/core) additionally ban, inside any loop:
// every fmt call, and per-row tuple boxing (tuple.Get or
// ColumnBatch.MaterializeRow). Kernels exist to stay on the column
// slabs; a deliberate row-fallback loop carries //lint:ignore with its
// reason, which keeps every fallback visible to the linter.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpath-alloc",
		Doc: "Data-plane code (internal/engine, internal/des, internal/simengine) must not call " +
			"per-invocation allocators on hot paths: hash/fnv constructors (inline the FNV-1a " +
			"loop), time.After (reuse one time.Timer), or fmt.Sprintf (format off the hot path). " +
			"Columnar files (column*.go, kernel*.go; also in internal/tuple and internal/core) " +
			"and event-time plane files (watermark*.go, session*.go, disorder*.go; also in " +
			"internal/stream) further ban fmt calls and per-row tuple boxing (tuple.Get, " +
			"MaterializeRow) inside loops — kernels operate on column slabs, and watermark " +
			"merges and session coalescing run per message. " +
			"Suppress deliberately-cold call sites with //lint:ignore hotpath-alloc <reason>.",
		Dirs: []string{"internal/engine", "internal/des", "internal/simengine", "internal/tuple", "internal/core", "internal/stream"},
		Run:  runHotPathAlloc,
	}
}

func runHotPathAlloc(w *WholePass) {
	for _, pkg := range w.Scoped() {
		strictOnly := strictOnlyPkgs[path.Base(pkg.Dir)]
		for _, f := range pkg.Files {
			base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
			isStrict := columnarFile(base) || eventTimeFile(base)
			if strictOnly && !isStrict {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if isStrict {
					switch n.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						checkKernelLoop(w, pkg, n)
					}
				}
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				pkgPath, name, ok := pkgFuncCall(pkg, call)
				if !ok {
					return true
				}
				if hint, banned := hotAllocCalls[pkgPath][name]; banned {
					short := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
					w.Reportf(call.Pos(), "%s.%s allocates on every call in data-plane code; %s", short, name, hint)
				}
				return true
			})
		}
	}
}

// checkKernelLoop applies the columnar-file bans to one loop body: no
// fmt at all (kernel loops run per batch row, so even Fprintf to a
// discarded writer is per-row work), and no per-row boxing — the whole
// point of the columnar plane is that rows stay unmaterialized until a
// row-only consumer forces them.
func checkKernelLoop(w *WholePass, u *Package, loop ast.Node) {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if body == nil {
		return
	}
	inspectShallow(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkgPath, name, ok := pkgFuncCall(u, call); ok {
			if pkgPath == "fmt" {
				w.Reportf(call.Pos(), "fmt.%s inside a kernel loop runs per row; format outside the loop or drop it", name)
				return true
			}
			if path.Base(pkgPath) == "tuple" && name == "Get" {
				w.Reportf(call.Pos(), "tuple.Get inside a kernel loop boxes a pooled row per iteration; operate on the column slabs, or //lint:ignore a deliberate row fallback")
				return true
			}
		}
		if _, recvPkg, typeName, method, ok := methodCallOn(u, call); ok {
			if typeName == "ColumnBatch" && method == "MaterializeRow" && path.Base(recvPkg) == "tuple" {
				w.Reportf(call.Pos(), "MaterializeRow inside a kernel loop boxes a pooled row per iteration; operate on the column slabs, or //lint:ignore a deliberate row fallback")
			}
			return true
		}
		// Unqualified Get(...) inside package tuple itself.
		if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "Get" {
			if fn, isFn := u.ObjectOf(id).(*types.Func); isFn && fn.Pkg() != nil && path.Base(fn.Pkg().Path()) == "tuple" {
				w.Reportf(call.Pos(), "tuple.Get inside a kernel loop boxes a pooled row per iteration; operate on the column slabs, or //lint:ignore a deliberate row fallback")
			}
		}
		return true
	})
}
