// Package smuggler reaches into the fenced queue from outside its allow
// list — the restricted-import check must flag it.
package smuggler

import "fixture/internal/queue" // want `internal/queue may be imported only by \[internal/queue internal/server internal/controller cmd/pdspbench\]; internal/smuggler is outside the fence`

// Steal bypasses the dispatcher surface.
func Steal() {
	queue.Lease()
}
