// Package engine stands in for internal/engine and exercises the
// hotpath-alloc rule: per-call allocators on the data plane.
package engine

import (
	"fmt"
	"hash/fnv"
	"time"
)

func hashPerTuple(b []byte) uint64 {
	h := fnv.New64a() // want `fnv\.New64a allocates on every call`
	h.Write(b)
	return h.Sum64()
}

func hash32PerTuple(b []byte) uint32 {
	h := fnv.New32() // want `fnv\.New32 allocates on every call`
	h.Write(b)
	return h.Sum32()
}

func throttleTick(done chan struct{}) {
	select {
	case <-time.After(time.Millisecond): // want `time\.After allocates on every call`
	case <-done:
	}
}

func labelPerRecord(op string, n int) string {
	return fmt.Sprintf("%s-%d", op, n) // want `fmt\.Sprintf allocates on every call`
}

func suppressedColdPath(op string, v any) string {
	//lint:ignore hotpath-alloc panic bookkeeping runs once per failure, not per tuple
	return fmt.Sprintf("%s: %v", op, v)
}

// allowedConstructs shows the replacements the rule points at: a reused
// timer and an inline FNV loop.
func allowedConstructs(b []byte) uint64 {
	tm := time.NewTimer(time.Millisecond)
	defer tm.Stop()
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
