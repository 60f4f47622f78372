package optimize

// ReferenceOf returns referenceLogistic over l's examples, for the
// package's external tests.
func ReferenceOf(l *Logistic) Problem {
	rows := make([][]float64, l.Len())
	for i := range rows {
		rows[i] = l.x[i*l.dim:][:l.dim]
	}
	ref := newReferenceLogistic(rows, l.y, l.c, l.lambda)
	ref.dim = l.dim
	return ref
}
