package core

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

// The ledger's single-goroutine assertion must fail loudly when a second
// goroutine enters while an operation is mid-flight, and must stay
// invisible to well-behaved single-goroutine use (every other test in
// this package exercises that side).
func TestLedgerConcurrencyGuard(t *testing.T) {
	e := NewEngine(DefaultOptions(), nil)
	l := e.Ledger()

	// Simulate an operation held mid-flight on another goroutine.
	l.guard.Lock()
	defer l.guard.Unlock()

	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		l.NoteBlock("intruder")
	}()
	v := <-done
	if v == nil {
		t.Fatal("concurrent ledger entry did not panic")
	}
	msg, ok := v.(string)
	if !ok || !strings.Contains(msg, "concurrent Ledger use") {
		t.Fatalf("unexpected panic value: %v", v)
	}
}

// Reentrant composite operations (Relocate performs readback + restore
// internally) must not trip the guard.
func TestLedgerGuardAllowsComposites(t *testing.T) {
	e := NewEngine(DefaultOptions(), nil)
	nl := netlist.Counter(8)
	if err := e.AddCircuit(nl); err != nil {
		t.Fatal(err)
	}
	c := e.Lib[nl.Name]
	l := e.Ledger()
	if _, _, err := l.TryLoad("t", c, 0, false); err != nil {
		t.Fatal(err)
	}
	l.Relocate(0, c.BS.W+1) // readback + apply + restore under one guard entry
	if got := l.Residents(); len(got) != 1 || got[0].Region.X != c.BS.W+1 {
		t.Fatalf("relocate failed: %+v", got)
	}
}
