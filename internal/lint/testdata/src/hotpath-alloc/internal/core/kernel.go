// Package core's kernel.go is a columnar file: compiled filter kernels
// that must stay on the column slabs.
package core

import (
	"fmt"

	"fixture/internal/tuple"
)

// selectGreater is a clean vectorized kernel: slab reads, selection
// writes, nothing else.
func selectGreater(b *tuple.ColumnBatch, ints []int64, lit int64) []int32 {
	out := b.Sel()[:0]
	for _, i := range b.Sel() {
		if ints[i] > lit {
			out = append(out, i)
		}
	}
	return out
}

// traceKernel materializes and formats per row inside the kernel loop:
// both banned in columnar files.
func traceKernel(b *tuple.ColumnBatch) {
	for _, i := range b.Sel() {
		t := b.MaterializeRow(int(i)) // want `MaterializeRow inside a kernel loop boxes a pooled row`
		fmt.Printf("row %v\n", t)     // want `fmt\.Printf inside a kernel loop runs per row`
	}
}
