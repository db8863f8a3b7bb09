package direct

import "testing"

func TestDirect(t *testing.T) {
	if OnlyTested()+Limit+len(Table)+(Shape{1, 2}).Area()+testedHelper() == 0 || ModeOff != 0 {
		t.Fatal("unreachable")
	}
}
