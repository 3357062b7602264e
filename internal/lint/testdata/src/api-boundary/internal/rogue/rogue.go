// Package rogue wires itself to both engines at once, bypassing the
// backend bridge — the dual-import check must flag the pair.
package rogue

import (
	"fixture/internal/engine"
	"fixture/internal/simengine" // want `internal/rogue imports both internal/engine and internal/simengine; only \[internal/backend\] may bridge them`
)

// Shortcut runs both engines directly.
func Shortcut() {
	engine.Run()
	simengine.Simulate()
}
