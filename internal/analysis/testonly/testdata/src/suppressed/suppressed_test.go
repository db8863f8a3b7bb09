package suppressed

import "testing"

func TestOracle(t *testing.T) {
	if NewOracle().Eval() != 2 {
		t.Fatal("oracle")
	}
}
