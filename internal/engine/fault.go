package engine

// Fault is a data-dependent predicate failure — a zero divisor, SQRT of a
// negative — met on an object that construction-time validation (which
// only ever evaluates object 0) did not reach. The predicate contract,
// object index → bool, has no error result, so both evaluators behind it
// (the interpreter's predicate.EngineExists and qcompile's closures) panic
// with a *Fault, and the SDK's entry points recover exactly this type and
// return it as a request error. Any other panic value is a bug and is left
// to propagate.
type Fault struct{ Msg string }

func (f *Fault) Error() string { return f.Msg }
