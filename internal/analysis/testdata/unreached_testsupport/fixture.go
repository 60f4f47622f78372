// Fixture for the one library root the unreached census keeps: the
// exported API of a *test support package, with the exported methods of
// the types it declares, since its callers are tests by construction.
package pubtest

type Harness struct{}

func (Harness) Check() { settle() }

func (Harness) helper() {} // want "method Harness.helper is reached by no main"

func settle() {}

func NewHarness() Harness { return Harness{} }

func unused() {} // want "func unused is reached by no main"
