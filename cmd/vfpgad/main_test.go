package main

import (
	"net/http"
	"testing"
)

// The job API's server bounds every phase of a connection: its headers,
// its whole request, body included, and its idle time between requests.
// With only the header deadline, a client that sent headers and then
// trickled its body held a connection and a handler indefinitely.
func TestHTTPServerDeadlines(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("deadlines: header %v, read %v, idle %v: want all set", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout < hs.ReadHeaderTimeout {
		t.Errorf("read deadline %v is shorter than the header deadline %v it contains", hs.ReadTimeout, hs.ReadHeaderTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}
