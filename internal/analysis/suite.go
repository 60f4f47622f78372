package analysis

// All returns the project's analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Wallclock, Errenvelope, Lockdiscipline, Unreached}
}
