package accel

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// WriteChromeTrace emits the pipeline timeline in the Chrome trace-event
// format through obs.EncodeChromeTrace: one track per pipeline stage, named
// "stage N" up to the highest stage, and one slice per (input, stage)
// occupation. Cycle counts are emitted as microseconds so a 1 GHz run reads
// as nanosecond-accurate after dividing by 1000. The encoder sorts the
// slices, so the file is byte-identical for a given timeline regardless of
// how the events were produced.
func (p *PipelineResult) WriteChromeTrace(w io.Writer) error {
	var tracks []string
	events := make([]obs.ChromeEvent, 0, len(p.Events))
	for _, e := range p.Events {
		for len(tracks) <= e.Stage {
			tracks = append(tracks, "stage "+strconv.Itoa(len(tracks)))
		}
		events = append(events, obs.ChromeEvent{
			Name: "input " + strconv.Itoa(e.Input),
			Cat:  "rna-stage",
			Ts:   e.Start,
			Dur:  e.End - e.Start,
			Tid:  e.Stage,
		})
	}
	return obs.EncodeChromeTrace(w, tracks, events)
}
