// Fixture for the unreached census on a library package outside
// internal/: it roots nothing. An exported function, and an exported
// method of a type it declares, are findings like unexported ones.
package pub

// Engine is reached from the blank declaration below; its exported
// method is not.
type Engine struct{ n int }

func (e *Engine) Run() int { return e.n } // want "method Engine.Run is reached by no main"

func New() *Engine { return &Engine{} }

var _ = New()

func Exported() {} // want "func Exported is reached by no main"

// An alias keeps neither itself nor the methods of the type it names.
type Alias = Engine // want "type Alias is reached"
