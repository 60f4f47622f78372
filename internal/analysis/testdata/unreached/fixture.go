// Fixture for the unreached census. A main package is a whole program:
// main, every init and every blank declaration are roots, and what they
// do not reach is a finding on the declared name.
package main

import "fmt"

type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is never called by name; it is live with its type because an
// interface of this package declares a method so named.
func (s square) Area() float64 { return s.side * s.side }

// String is live the same way through an imported scope (fmt.Stringer).
func (s square) String() string { return "square" }

func (s square) Perimeter() float64 { return 4 * s.side } // want "method square.Perimeter is reached by no main"

// An unreached type is one finding; its methods go with it.
type orphan struct{} // want "type orphan is reached by no main"

func (orphan) tidy() {}

const used = 1

const onlyDead = 2 // want "const onlyDead is reached"

var table = []int{used}

func helper() shape { return square{side: float64(table[0])} }

// A chain hanging off nothing is dead link by link.
func dead() int { return onlyDead } // want "func dead is reached"

func deadToo() int { return dead() } // want "func deadToo is reached"

// The audited hatch covers the finding on the line below it.
//
//lint:allow unreached fixture exercises the escape hatch end to end
func excused() {}

func viaInit() {}

func init() { viaInit() }

func viaBlank() int { return 0 }

var _ = viaBlank()

func main() { fmt.Println(helper()) }
