package hostos

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// EventKind classifies scheduler trace events.
type EventKind int

// Trace event kinds.
const (
	EvSpawn EventKind = iota
	EvRun             // task dispatched onto the CPU
	EvReady           // task became runnable (preempted or woken)
	EvBlock           // task suspended on the FPGA resource
	EvDone
)

func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvRun:
		return "run"
	case EvReady:
		return "ready"
	case EvBlock:
		return "block"
	case EvDone:
		return "done"
	}
	return fmt.Sprintf("ev(%d)", int(k))
}

// Event is one scheduling transition.
type Event struct {
	At   sim.Time
	Task string
	Kind EventKind
}

// EventLog records scheduling events for post-mortem inspection: raw
// event listing and an ASCII Gantt chart. Attach with OS.AttachTrace.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Emit appends an event.
func (l *EventLog) Emit(e Event) { l.events = append(l.events, e) }

// Events returns the recorded events in order.
func (l *EventLog) Events() []Event { return l.events }

// String renders the raw event list.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.events {
		fmt.Fprintf(&b, "%12v  %-10s %s\n", e.At, e.Task, e.Kind)
	}
	return b.String()
}

// Gantt renders a per-task timeline of width columns covering [0, end]:
// '#' running, '.' ready, 'b' blocked on the FPGA, ' ' not alive.
func (l *EventLog) Gantt(width int, end sim.Time) string {
	if width <= 0 || end <= 0 || len(l.events) == 0 {
		return ""
	}
	// Collect tasks in first-appearance order.
	var order []string
	perTask := map[string][]Event{}
	for _, e := range l.events {
		if _, ok := perTask[e.Task]; !ok {
			order = append(order, e.Task)
		}
		perTask[e.Task] = append(perTask[e.Task], e)
	}
	nameW := 0
	for _, n := range order {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  |0%*s|%v\n", nameW, "", width-2, "", end)
	for _, name := range order {
		evs := perTask[name]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		state := byte(' ')
		prev := sim.Time(0)
		paint := func(from, to sim.Time, ch byte) {
			if ch == ' ' {
				return
			}
			lo := int(int64(from) * int64(width) / int64(end))
			hi := int(int64(to) * int64(width) / int64(end))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i >= 0; i++ {
				row[i] = ch
			}
		}
		for _, e := range evs {
			paint(prev, e.At, state)
			switch e.Kind {
			case EvSpawn, EvReady:
				state = '.'
			case EvRun:
				state = '#'
			case EvBlock:
				state = 'b'
			case EvDone:
				state = ' '
			}
			prev = e.At
		}
		paint(prev, end, state)
		fmt.Fprintf(&b, "%*s  %s\n", nameW, name, string(row))
	}
	return b.String()
}

// AttachTrace starts recording scheduling events into log.
func (o *OS) AttachTrace(log *EventLog) { o.trace = log }

// emit records a trace event if tracing is attached.
func (o *OS) emit(t *Task, kind EventKind) {
	if o.trace == nil {
		return
	}
	o.trace.Emit(Event{At: o.K.Now(), Task: t.Name, Kind: kind})
}
