// Fixture for the unreached census's public-API roots: in a library
// package outside internal/, exported declarations are roots, together
// with the exported methods of the types they declare or alias.
package pub

// Engine is exported: Run is a root, step is reached from it.
type Engine struct{ n int }

func (e *Engine) Run() int { return e.step() }

func (e *Engine) step() int { return e.n }

func (e *Engine) idle() {} // want "method Engine.idle is reached by no main"

// Alias roots the exported methods of the type it names.
type Alias = inner

type inner struct{}

func (inner) Exported() {}

func (inner) hidden() {} // want "method inner.hidden is reached"

func New() *Engine { return &Engine{} }

func unexported() {} // want "func unexported is reached"
