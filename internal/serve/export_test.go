package serve

// NoteCompleted records on board b's service record one completed job of
// scenario scen that took ns, as a finished job does: with it a test in
// package serve_test gives a pool whose workers never start a history.
func (p *Pool) NoteCompleted(b, scen int, ns int64) {
	bd := p.boards[b]
	bd.mu.Lock()
	bd.svc[scen].Observe(ns)
	bd.mu.Unlock()
}
