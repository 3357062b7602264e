// Package server sits outside the rule's data-plane dirs, so the same
// constructs are fine here — control-plane code may format freely.
package server

import (
	"fmt"
	"hash/fnv"
)

func report(op string, n int) string {
	return fmt.Sprintf("%s processed %d", op, n)
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
