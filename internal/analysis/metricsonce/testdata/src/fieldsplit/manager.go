package fieldsplit

type manager struct{ m *Metrics }

func (g *manager) sneak() {
	g.m.Loads++ // want `core\.Metrics\.Loads written here and in ledger\.go`
}
