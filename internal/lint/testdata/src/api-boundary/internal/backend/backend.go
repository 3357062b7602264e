// Package backend is the sanctioned bridge: the one package allowed to
// import both execution engines and hide them behind one run protocol.
package backend

import (
	"fixture/internal/engine"
	"fixture/internal/simengine"
)

// Run dispatches to either engine behind the shared protocol.
func Run(sim bool) {
	if sim {
		simengine.Simulate()
		return
	}
	engine.Run()
}
