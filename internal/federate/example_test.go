package federate_test

import (
	"fmt"

	"trader/internal/federate"
)

// The federation fold: per-edge cumulative counters merge by addition into
// the fleet-wide view, and signed deltas against a credited baseline keep
// the merged totals exact even when an edge's own totals fall.
func Example() {
	edgeA := federate.Counters{"outputs": 40, "deviations": 2}
	edgeB := federate.Counters{"outputs": 20}

	// The aggregator credits each edge's first (full-state) delta.
	view := federate.Counters{}
	view.Add(edgeA)
	view.Add(edgeB)

	// A device (30 outputs, 2 deviations) leaves A's pool — a disconnect on
	// an edge without a journal — and takes its monitor counters with it:
	// A's cumulative state legitimately decreases, so deltas are signed.
	// Meanwhile B's devices stream 10 more outputs.
	prevA, prevB := edgeA.Clone(), edgeB.Clone()
	edgeA = federate.Counters{"outputs": 10}
	edgeB = federate.Counters{"outputs": 30}
	view.Add(edgeA.Diff(prevA))
	view.Add(edgeB.Diff(prevB))

	fmt.Println("outputs:", view["outputs"])
	fmt.Println("deviations:", view["deviations"])
	// Output:
	// outputs: 40
	// deviations: 0
}
