package core

import (
	"reflect"

	"factcheck/internal/gibbs"
)

// HoldTables keeps the session's sampler tables, its database's base
// and its gain entries past Done: the session that never releases,
// against which a releasing one is compared.
func (s *Session) HoldTables() { s.holdTables = true }

// Released reports whether the engine's chain has dropped its tables,
// without rebuilding them as Engine.Chain would.
func (s *Session) Released() bool {
	f := reflect.ValueOf(s.Engine).Elem().FieldByName("chain")
	return reflect.NewAt(f.Type().Elem(), f.UnsafePointer()).Interface().(*gibbs.Chain).Released()
}
