// Package server must reach the engine only through the controller.
package server

import (
	"fixture/internal/controller"
	"fixture/internal/engine" // want `internal/server must not import internal/engine directly; go through internal/controller`
)

// Handle serves one request.
func Handle() {
	controller.Execute()
	engine.Run()
}
