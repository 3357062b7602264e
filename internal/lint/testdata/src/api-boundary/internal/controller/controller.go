// Package controller is the sanctioned mediator: it reaches the engines
// only through the backend, and may read the queue.
package controller

import (
	"fixture/internal/backend"
	"fixture/internal/queue"
)

// Execute routes work to an engine on the server's behalf.
func Execute() {
	queue.Lease()
	backend.Run(true)
}
