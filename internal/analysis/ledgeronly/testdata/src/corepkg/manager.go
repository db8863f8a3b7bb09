package corepkg

// manager is pure policy; bumping metrics here bypasses the ledger.
type manager struct{ m *Metrics }

func (mg *manager) sneak() {
	mg.m.Loads++ // want `core\.Metrics\.Loads mutated outside the ledger`
}

func (mg *manager) decide() int { return 1 }
