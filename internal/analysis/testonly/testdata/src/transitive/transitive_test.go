package transitive

import "testing"

func TestModel(t *testing.T) {
	if Model() == 0 {
		t.Fatal("unreachable")
	}
}
