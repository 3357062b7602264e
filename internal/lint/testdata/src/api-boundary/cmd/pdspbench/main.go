// Command pdspbench sits inside the queue's import fence: a sanctioned
// importer on the rule's restricted-import allow list.
package main

import "fixture/internal/queue"

// main pulls work through the sanctioned surface.
func main() {
	queue.Lease()
}
