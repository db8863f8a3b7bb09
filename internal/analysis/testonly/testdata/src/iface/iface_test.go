package iface

import "testing"

func TestKind(t *testing.T) {
	if Kind(1).String() != "one" {
		t.Fatal("kind")
	}
}
