// Command mediaplayer: awareness on a second SUO (the paper's MPlayer experiments,
// Sect. 5), monitoring a correctness property (A/V sync drift) and a
// performance property (rendered frame rate / stalls) at the same time.
//
// Run with:
//
//	go run ./examples/mediaplayer
package main

import (
	"fmt"

	"trader/internal/faults"
	"trader/internal/mediaplayer"
	"trader/internal/sim"
	"trader/internal/wire"
)

func main() {
	k := sim.NewKernel(3)
	p := mediaplayer.New(k, mediaplayer.Config{})
	mon, err := mediaplayer.NewMonitor(k, mediaplayer.Config{})
	if err != nil {
		panic(err)
	}
	mon.OnError(func(r wire.ErrorReport) {
		kind := "correctness"
		if r.Observable == "fps" {
			kind = "performance"
		}
		fmt.Printf("[%v] %s error: %s expected %.1f, actual %.1f\n",
			r.At, kind, r.Observable, r.Expected, r.Actual)
	})
	mon.AttachBus(p.Bus())

	fmt.Println("playing; demuxer stall at 2s (2s long), audio clock drift from 6s")
	p.Injector().Schedule(faults.Fault{
		ID: "stall", Kind: faults.Deadlock, Target: "demuxer",
		At: 2 * sim.Second, Duration: 2 * sim.Second,
	})
	p.Injector().Schedule(faults.Fault{
		ID: "drift", Kind: faults.ValueCorruption, Target: "audio-clock",
		At: 6 * sim.Second, Duration: 3 * sim.Second, Param: 1.15,
	})
	p.Do(mediaplayer.CmdPlay)
	k.Run(10 * sim.Second)
	p.Do(mediaplayer.CmdStop)

	st := mon.Stats()
	fmt.Printf("done: %d observations, %d comparisons, %d errors reported\n",
		st.OutputsSeen, st.Comparisons, st.Errors)
}
